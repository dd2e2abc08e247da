//! # tpp-rl
//!
//! Tabular reinforcement-learning building blocks for the planner's
//! SARSA(λ) loop (`tpp-core`'s `RlPlanner`), hand-rolled because no
//! mature RL crate exists offline and the paper's learner is tabular
//! anyway: dense/sparse Q-tables and visit counts, the [`Environment`]
//! trait, parameter schedules, compute budgets, a seedable training RNG,
//! resumable checkpoints and cross-universe policy transfer.

#![warn(missing_docs)]

pub mod budget;
pub mod checkpoint;
pub mod env;
pub mod qtable;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod transfer;
pub mod visits;

pub use budget::{Budget, BudgetStop};
pub use checkpoint::TrainCheckpoint;
pub use env::{greedy_tie_scan, scan_greedy_ties, Environment, StepOutcome};
pub use qtable::{QTable, QTableError, DENSE_AUTO_MAX};
pub use rng::TrainRng;
pub use schedule::Schedule;
pub use stats::{ReturnSummary, TrainStats};
pub use transfer::{transfer_q, StateMapping};
pub use visits::VisitTable;
