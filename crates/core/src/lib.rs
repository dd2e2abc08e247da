//! # tpp-core
//!
//! The paper's primary contribution: **RL-Planner**, a computational
//! framework for the Task Planning Problem modeled as a constrained MDP
//! (§III).
//!
//! * [`reward`] — the weighted reward design of Eq. 2–7: the gated
//!   combination `R = θ · [δ · AvgSim + β · weight_type]` with
//!   `θ = r1 · r2` (topic-coverage gate × antecedent-gap gate) and the
//!   Levenshtein-inspired interleaving similarity kernel.
//! * [`mod@env`] — deterministic discrete CMDP environments over the complete
//!   item graph, instantiated for course planning (fixed horizon
//!   `H = #cr / cr`) and trip planning (visit-time budget, distance
//!   threshold, no-consecutive-theme gap).
//! * [`planner`] — Algorithm 1: SARSA policy learning and greedy
//!   Q-table plan recommendation.
//! * [`score`] — the evaluation score (Eq. 7 for courses; popularity for
//!   trips; 0 on any hard-constraint violation).
//! * [`transfer`] — cross-universe policy transport for the §IV-D
//!   transfer-learning case studies.
//! * [`feedback`] — the §VI future-work extension: an adaptive loop
//!   folding binary / categorical / distributional user feedback into
//!   the learned policy.

#![warn(missing_docs)]

pub mod env;
pub mod feedback;
pub mod params;
pub mod planner;
pub mod reward;
pub mod score;
pub mod signature;
pub mod transfer;

pub use env::{GateCounts, GateReject, TppEnv};
pub use feedback::{Feedback, FeedbackConfig, FeedbackLoop};
pub use params::{PlannerParams, QReprMode, ShortlistMode, SimAggregate, StartPolicy, TypeWeights};
pub use planner::{LearnedPolicy, RlPlanner};
pub use reward::{InterleavingKernel, RewardModel, SimTracker};
pub use score::{plan_violations, raw_score, score_plan, score_with_violations};
pub use signature::constraint_signature;
pub use transfer::{course_mapping_by_code, poi_mapping_by_theme, transfer_policy};
// The cooperative compute budget threaded through the planner loop
// (serving deadlines, `train --max-seconds`) lives in `tpp-rl` so the
// RL substrate's rollouts can share it; re-exported here because the
// planner API is where most callers meet it.
pub use tpp_rl::{Budget, BudgetStop, DENSE_AUTO_MAX};
