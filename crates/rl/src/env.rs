//! The environment abstraction the planner's learner runs against.

use crate::QTable;

/// Result of taking one action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// State reached by the action.
    pub next_state: usize,
    /// Immediate reward.
    pub reward: f64,
    /// `true` when the episode ended with this step.
    pub done: bool,
}

/// A deterministic, discrete, episodic environment.
///
/// The TPP CMDP (§III-A) fits this shape exactly: states are items of the
/// complete item graph `G`, an action is "add item `a` next" and is
/// identified by the *target state index*, transitions are deterministic
/// (`T : S × E → S`), and an episode ends when the trajectory/budget
/// bound `H` is reached.
pub trait Environment {
    /// Number of states `|S|` (also the number of action columns — in
    /// TPP the action space is "go to state `a`", so actions and states
    /// share indices and the Q-table is `|I| × |I|`).
    fn n_states(&self) -> usize;

    /// Starts a new episode at `start`. Implementations reset all episode
    /// bookkeeping (visited set, coverage, budgets).
    fn reset(&mut self, start: usize);

    /// Current state.
    fn state(&self) -> usize;

    /// Actions legal in the current state, as target-state indices.
    /// An empty slice means the episode cannot continue.
    fn valid_actions(&self, buf: &mut Vec<usize>);

    /// Applies an action. Callers must only pass actions previously
    /// reported valid; implementations may panic otherwise.
    fn step(&mut self, action: usize) -> StepOutcome;

    /// Immediate reward the current state would yield for `action`,
    /// without transitioning. Default implementation is unsupported;
    /// environments that can answer cheaply (TPP can — Eq. 2 is a pure
    /// function of episode state) override it. Needed by the
    /// reward-greedy action selection of the paper's Algorithm 1 and the
    /// EDA baseline.
    fn peek_reward(&self, action: usize) -> f64 {
        let _ = action;
        unimplemented!("this environment does not support peek_reward")
    }

    /// The reward-greedy tie set of Algorithm 1's behaviour policy over
    /// `allowed`, written to `best`: the `argmax R(s, ·)` actions, with
    /// reward ties broken by higher `Q(s, ·)`. The default is
    /// [`scan_greedy_ties`], which peeks every candidate; an environment
    /// that knows its reward levels may override it, but must return
    /// the same set in the same order.
    fn greedy_ties(&self, q: &QTable, allowed: &[usize], best: &mut Vec<usize>) {
        scan_greedy_ties(self, q, allowed, best);
    }
}

/// [`Environment::greedy_ties`] by peeking every candidate: the
/// [`greedy_tie_scan`] of `allowed`, in order, keyed by
/// [`Environment::peek_reward`].
pub fn scan_greedy_ties<E: Environment + ?Sized>(
    env: &E,
    q: &QTable,
    allowed: &[usize],
    best: &mut Vec<usize>,
) {
    let keys = allowed.iter().map(|&a| (a, env.peek_reward(a)));
    greedy_tie_scan(q, env.state(), keys, best);
}

/// Scans `(action, reward)` pairs in order and leaves in `best` the
/// actions whose `(reward, Q(s, action))` key ties the best key so far,
/// each component within `1e-12`. The tolerance is not transitive, so
/// the set depends on the scan order: it holds the last action that
/// strictly beat the best key and the later actions tied with it.
pub fn greedy_tie_scan(
    q: &QTable,
    s: usize,
    keys: impl IntoIterator<Item = (usize, f64)>,
    best: &mut Vec<usize>,
) {
    best.clear();
    let mut best_key = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for (a, reward) in keys {
        let key = (reward, q.get(s, a));
        if key.0 > best_key.0 + 1e-12
            || ((key.0 - best_key.0).abs() <= 1e-12 && key.1 > best_key.1 + 1e-12)
        {
            best_key = key;
            best.clear();
            best.push(a);
        } else if (key.0 - best_key.0).abs() <= 1e-12 && (key.1 - best_key.1).abs() <= 1e-12 {
            best.push(a);
        }
    }
}
