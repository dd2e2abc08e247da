//! RL-Planner hyper-parameters (Table III).

use serde::{Deserialize, Serialize};
use tpp_model::ItemId;
use tpp_rl::Schedule;

/// How per-template similarities are aggregated into the reward
/// (Eq. 7 uses the average; §IV-A4 also evaluates the minimum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimAggregate {
    /// `AvgSim`: mean similarity over the template set.
    Average,
    /// `MinSim`: worst-case similarity over the template set.
    Minimum,
}

/// The item-type weighting of Eq. 2's `weight_type` term.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TypeWeights {
    /// Two-way primary/secondary weights `w1 + w2 = 1`, `w1 > w2`
    /// (Univ-1 and trips).
    PrimarySecondary {
        /// Weight of primary items.
        w1: f64,
        /// Weight of secondary items.
        w2: f64,
    },
    /// Per-category weights ω1..ωk summing to 1 (Univ-2's six
    /// sub-disciplines). Items without a category fall back to the last
    /// weight.
    Categories(Vec<f64>),
}

impl TypeWeights {
    /// The Table III Univ-1 default: `w1 = 0.6, w2 = 0.4`.
    pub fn univ1_default() -> Self {
        TypeWeights::PrimarySecondary { w1: 0.6, w2: 0.4 }
    }

    /// The Table III Univ-2 default: `(0.25, 0.01, 0.15, 0.42, 0.01, 0.16)`.
    pub fn univ2_default() -> Self {
        TypeWeights::Categories(vec![0.25, 0.01, 0.15, 0.42, 0.01, 0.16])
    }

    /// Weight of an item given its kind and category.
    pub fn weight_of(&self, is_primary: bool, category: Option<usize>) -> f64 {
        match self {
            TypeWeights::PrimarySecondary { w1, w2 } => {
                if is_primary {
                    *w1
                } else {
                    *w2
                }
            }
            TypeWeights::Categories(w) => {
                let idx = category.unwrap_or(w.len().saturating_sub(1));
                w.get(idx)
                    .copied()
                    .unwrap_or_else(|| w.last().copied().unwrap_or(0.0))
            }
        }
    }
}

/// Which Q-table representation training allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QReprMode {
    /// Dense up to `tpp_rl::DENSE_AUTO_MAX` items, sparse above — the
    /// default, mirroring `DistanceMatrix::DEFAULT_CAP`'s auto cutover.
    Auto,
    /// Always dense (fails on catalogs past the dense element ceiling
    /// instead of allocating `n²` doubles).
    Dense,
    /// Always sparse (useful for equivalence testing on small catalogs).
    Sparse,
}

/// Whether `TppEnv::valid_actions` scans the whole catalog or a
/// grid-pruned, top-k shortlist around the current item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShortlistMode {
    /// Shortlist on trip catalogs above `tpp_rl::DENSE_AUTO_MAX` items,
    /// full scan below — the default.
    Auto,
    /// Always the full O(n) scan (the exact baseline the shortlist
    /// approximates).
    Off,
    /// Always shortlist (requires POI geometry; course catalogs fall
    /// back to the full scan).
    On,
}

/// Where learning episodes (and recommendations) start.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StartPolicy {
    /// Always the same item (Table III pins `s_1` per dataset).
    Fixed(ItemId),
    /// A uniformly random item each episode.
    Random,
    /// A uniformly random *primary* item each episode.
    RandomPrimary,
}

/// All RL-Planner hyper-parameters. Field names follow Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerParams {
    /// Number of training episodes `N`.
    pub episodes: usize,
    /// Learning rate α.
    pub alpha: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Topic-coverage threshold ε of Eq. 3. Values < 1 are interpreted as
    /// a *fraction* of `|T_ideal|` (the Table III defaults are 0.0025);
    /// values ≥ 1 as an absolute new-topic count (the §III-B1 examples
    /// use ε = 1).
    pub epsilon: f64,
    /// Interleaving weight δ (Eq. 2); `delta + beta = 1`.
    pub delta: f64,
    /// Type weight β (Eq. 2).
    pub beta: f64,
    /// `weight_type` definition.
    pub weights: TypeWeights,
    /// Similarity aggregation over the template set.
    pub sim: SimAggregate,
    /// Episode start policy.
    pub start: StartPolicy,
    /// Exploration-rate schedule for ε-greedy action selection during
    /// learning (distinct from the topic threshold ε; the paper does not
    /// publish its exploration schedule, so we default to a decaying one).
    pub exploration: Schedule,
    /// Eligibility-trace decay λ (SARSA(λ)); `0.0` recovers plain
    /// one-step SARSA. Traces propagate a late core-course reward back to
    /// the early decision that scheduled its antecedent.
    pub lambda: f64,
    /// Q-table representation policy (not a Table III parameter): see
    /// [`QReprMode`]. `Auto` keeps every seed dataset dense and
    /// bit-identical to the pre-sparse engine.
    pub q_repr: QReprMode,
    /// Action-shortlist policy for city-scale catalogs (not a Table III
    /// parameter): see [`ShortlistMode`]. Shortlisting is a documented
    /// approximation — it restricts exploration to the geographic
    /// neighbourhood of the current item — so `Auto` only engages it
    /// where the full scan is intractable.
    pub shortlist: ShortlistMode,
    /// Geo radius (km) of the shortlist candidate query around the
    /// current item.
    pub shortlist_radius_km: f64,
    /// Maximum number of gated candidates a shortlist returns
    /// (nearest-first before the cap, ascending item index after it).
    pub shortlist_top_k: usize,
}

impl PlannerParams {
    /// Table III defaults for Univ-1 programs:
    /// `N = 500, α = 0.75, γ = 0.95, ε = 0.0025, δ/β = 0.6/0.4,
    /// w = (0.6, 0.4)`.
    pub fn univ1_defaults() -> Self {
        PlannerParams {
            episodes: 500,
            alpha: 0.75,
            gamma: 0.95,
            epsilon: 0.0025,
            delta: 0.6,
            beta: 0.4,
            weights: TypeWeights::univ1_default(),
            sim: SimAggregate::Average,
            start: StartPolicy::RandomPrimary,
            exploration: Self::default_exploration(),
            lambda: 0.9,
            q_repr: QReprMode::Auto,
            shortlist: ShortlistMode::Auto,
            shortlist_radius_km: 3.0,
            shortlist_top_k: 64,
        }
    }

    /// Table III defaults for Univ-2:
    /// `N = 100, α = 0.75, γ = 0.95, ε = 0.0025, δ/β = 0.8/0.2,
    /// ω = (0.25, 0.01, 0.15, 0.42, 0.01, 0.16)`.
    pub fn univ2_defaults() -> Self {
        PlannerParams {
            episodes: 100,
            alpha: 0.75,
            gamma: 0.95,
            epsilon: 0.0025,
            delta: 0.8,
            beta: 0.2,
            weights: TypeWeights::univ2_default(),
            sim: SimAggregate::Average,
            start: StartPolicy::RandomPrimary,
            exploration: Self::default_exploration(),
            lambda: 0.9,
            q_repr: QReprMode::Auto,
            shortlist: ShortlistMode::Auto,
            shortlist_radius_km: 3.0,
            shortlist_top_k: 64,
        }
    }

    /// Table III defaults for trips:
    /// `N = 500, α = 0.95, γ = 0.75, δ/β = 0.6/0.4, w = (0.6, 0.4)`;
    /// topic threshold ε = 1 new theme (§III-B1's trip example).
    pub fn trip_defaults() -> Self {
        PlannerParams {
            episodes: 500,
            alpha: 0.95,
            gamma: 0.75,
            epsilon: 1.0,
            delta: 0.6,
            beta: 0.4,
            weights: TypeWeights::univ1_default(),
            sim: SimAggregate::Average,
            start: StartPolicy::RandomPrimary,
            exploration: Self::default_exploration(),
            lambda: 0.9,
            q_repr: QReprMode::Auto,
            shortlist: ShortlistMode::Auto,
            shortlist_radius_km: 3.0,
            shortlist_top_k: 64,
        }
    }

    /// The default exploration schedule: ε-greedy decaying from 1.0
    /// toward 0.05.
    pub fn default_exploration() -> Schedule {
        Schedule::Exponential {
            from: 1.0,
            rate: 0.99,
            min: 0.05,
        }
    }

    /// Sets the fixed start item (builder style).
    pub fn with_start(mut self, start: ItemId) -> Self {
        self.start = StartPolicy::Fixed(start);
        self
    }

    /// Sets the similarity aggregate (builder style).
    pub fn with_sim(mut self, sim: SimAggregate) -> Self {
        self.sim = sim;
        self
    }

    /// Sets δ and β (builder style); the pair should sum to 1.
    pub fn with_delta_beta(mut self, delta: f64, beta: f64) -> Self {
        self.delta = delta;
        self.beta = beta;
        self
    }

    /// Sets the Q-table representation policy (builder style).
    pub fn with_q_repr(mut self, mode: QReprMode) -> Self {
        self.q_repr = mode;
        self
    }

    /// Sets the action-shortlist policy (builder style).
    pub fn with_shortlist(mut self, mode: ShortlistMode) -> Self {
        self.shortlist = mode;
        self
    }

    /// Sets the shortlist geometry (builder style): candidate radius in
    /// km and the top-k cap.
    pub fn with_shortlist_geometry(mut self, radius_km: f64, top_k: usize) -> Self {
        self.shortlist_radius_km = radius_km;
        self.shortlist_top_k = top_k;
        self
    }

    /// Checks parameter invariants (`δ + β = 1`, weights sum to 1, …).
    pub fn validate(&self) -> Result<(), String> {
        if (self.delta + self.beta - 1.0).abs() > 1e-9 {
            return Err(format!(
                "delta + beta must be 1, got {}",
                self.delta + self.beta
            ));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(format!("gamma must be in [0,1], got {}", self.gamma));
        }
        if self.alpha <= 0.0 || self.alpha > 1.0 {
            return Err(format!("alpha must be in (0,1], got {}", self.alpha));
        }
        match &self.weights {
            TypeWeights::PrimarySecondary { w1, w2 } => {
                if (w1 + w2 - 1.0).abs() > 1e-9 {
                    return Err(format!("w1 + w2 must be 1, got {}", w1 + w2));
                }
            }
            TypeWeights::Categories(w) => {
                if w.is_empty() {
                    return Err("category weights must be non-empty".into());
                }
                let s: f64 = w.iter().sum();
                if (s - 1.0).abs() > 1e-9 {
                    return Err(format!("category weights must sum to 1, got {s}"));
                }
            }
        }
        if self.epsilon < 0.0 {
            return Err(format!(
                "epsilon must be non-negative, got {}",
                self.epsilon
            ));
        }
        if !(0.0..=1.0).contains(&self.lambda) {
            return Err(format!("lambda must be in [0,1], got {}", self.lambda));
        }
        if !self.shortlist_radius_km.is_finite() || self.shortlist_radius_km <= 0.0 {
            return Err(format!(
                "shortlist radius must be positive and finite, got {}",
                self.shortlist_radius_km
            ));
        }
        if self.shortlist_top_k == 0 {
            return Err("shortlist top-k must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PlannerParams::univ1_defaults().validate().unwrap();
        PlannerParams::univ2_defaults().validate().unwrap();
        PlannerParams::trip_defaults().validate().unwrap();
    }

    #[test]
    fn univ1_defaults_match_table3() {
        let p = PlannerParams::univ1_defaults();
        assert_eq!(p.episodes, 500);
        assert_eq!(p.alpha, 0.75);
        assert_eq!(p.gamma, 0.95);
        assert_eq!(p.epsilon, 0.0025);
        assert_eq!((p.delta, p.beta), (0.6, 0.4));
    }

    #[test]
    fn trip_defaults_match_table3() {
        let p = PlannerParams::trip_defaults();
        assert_eq!(p.alpha, 0.95);
        assert_eq!(p.gamma, 0.75);
    }

    #[test]
    fn weight_of_primary_secondary() {
        let w = TypeWeights::univ1_default();
        assert_eq!(w.weight_of(true, None), 0.6);
        assert_eq!(w.weight_of(false, None), 0.4);
    }

    #[test]
    fn weight_of_categories() {
        let w = TypeWeights::univ2_default();
        assert_eq!(w.weight_of(true, Some(3)), 0.42);
        assert_eq!(w.weight_of(false, Some(1)), 0.01);
        // Missing category → last weight (the elective bucket).
        assert_eq!(w.weight_of(false, None), 0.16);
        // Out-of-range category → last weight.
        assert_eq!(w.weight_of(false, Some(99)), 0.16);
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = PlannerParams::univ1_defaults();
        p.delta = 0.9; // beta still 0.4
        assert!(p.validate().is_err());
        let mut p2 = PlannerParams::univ1_defaults();
        p2.weights = TypeWeights::PrimarySecondary { w1: 0.9, w2: 0.4 };
        assert!(p2.validate().is_err());
        let mut p3 = PlannerParams::univ1_defaults();
        p3.gamma = 1.5;
        assert!(p3.validate().is_err());
        let mut p4 = PlannerParams::univ1_defaults();
        p4.alpha = 0.0;
        assert!(p4.validate().is_err());
        let mut p5 = PlannerParams::univ1_defaults();
        p5.epsilon = -0.1;
        assert!(p5.validate().is_err());
        let mut p6 = PlannerParams::univ2_defaults();
        p6.weights = TypeWeights::Categories(vec![]);
        assert!(p6.validate().is_err());
    }

    #[test]
    fn builders() {
        let p = PlannerParams::univ1_defaults()
            .with_start(ItemId(3))
            .with_sim(SimAggregate::Minimum)
            .with_delta_beta(0.5, 0.5);
        assert_eq!(p.start, StartPolicy::Fixed(ItemId(3)));
        assert_eq!(p.sim, SimAggregate::Minimum);
        assert_eq!(p.delta, 0.5);
        p.validate().unwrap();
    }
}
