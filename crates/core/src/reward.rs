//! The reward design of §III-B (Eq. 2–7).
//!
//! ```text
//! R(s_i, e_i, s_{i+1}) = θ · [ δ · AvgSim(s_{i+1}, IT_{i+1}) + β · weight_type ]
//! θ = r1 · r2
//! r1 = 1  iff the action's novel ideal-topic coverage ≥ ε      (Eq. 3)
//! r2 = 1  iff Dist(pre^m, m) ≥ gap                             (Eq. 4)
//! Sim(s, I)^k = ζ · Σ c / k                                    (Eq. 6)
//! AvgSim(s, IT)^k = mean_I Sim(s, I)^k                         (Eq. 7)
//! ```
//!
//! where `c` is the positionwise match vector between the sequence's
//! primary/secondary pattern and the template prefix, and `ζ` is the
//! longest consecutive run of matches.

use crate::params::{PlannerParams, SimAggregate, TypeWeights};
use tpp_model::{
    InterleavingTemplate, Item, ItemId, ItemKind, PrereqExpr, TemplateSet, TopicVector,
};

/// The interleaving-similarity kernel (Eq. 6 / Eq. 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct InterleavingKernel;

impl InterleavingKernel {
    /// `Sim(s, I)^k` for a sequence prefix of kinds against one template.
    ///
    /// The paper's worked example (§III-B4): sequence
    /// `{primary, secondary, primary, primary}` against the course
    /// templates yields `[0.5, 1, 1.5]`.
    pub fn sim(seq: &[ItemKind], template: &InterleavingTemplate) -> f64 {
        let k = seq.len().min(template.len());
        if k == 0 {
            return 0.0;
        }
        let slots = template.slots();
        let mut matches = 0u32;
        let mut run = 0u32;
        let mut zeta = 0u32;
        for i in 0..k {
            if seq[i] == slots[i] {
                matches += 1;
                run += 1;
                zeta = zeta.max(run);
            } else {
                run = 0;
            }
        }
        f64::from(zeta) * f64::from(matches) / k as f64
    }

    /// Aggregated similarity over the template set: `AvgSim` or `MinSim`.
    pub fn aggregate(seq: &[ItemKind], templates: &TemplateSet, mode: SimAggregate) -> f64 {
        if templates.is_empty() {
            return 0.0;
        }
        let sims = templates.templates().iter().map(|t| Self::sim(seq, t));
        match mode {
            SimAggregate::Average => sims.sum::<f64>() / templates.len() as f64,
            SimAggregate::Minimum => sims.fold(f64::INFINITY, f64::min),
        }
    }

    /// The evaluation-side score of a complete sequence: the **best**
    /// per-template similarity (§IV-A "the highest value is selected as
    /// the final score"). A sequence that perfectly realizes some
    /// template of length `H` scores `H` (ζ = Σc = k = H), matching the
    /// paper's gold-standard scores of 10 (Univ-1) and 15 (Univ-2).
    pub fn best(seq: &[ItemKind], templates: &TemplateSet) -> f64 {
        templates
            .templates()
            .iter()
            .map(|t| Self::sim(seq, t))
            .fold(0.0, f64::max)
    }
}

/// Incremental Eq. 6/7 state: per-template prefix-match counters.
///
/// [`InterleavingKernel::sim`] is a left-to-right fold over the episode
/// prefix, so its loop state — matched slots, current run, best run ζ —
/// can be carried across steps instead of recomputed: `push` advances
/// the counters by one appended item in O(|IT|), and
/// [`SimTracker::peek_aggregate`] evaluates the Eq. 7 aggregate for a
/// *candidate* append in O(|IT|) without touching the prefix. The
/// aggregate depends on the candidate only through its kind, so the
/// environment peeks twice per step (P and S, see
/// [`RewardModel::sim_term`]) instead of rescanning the O(L) prefix per
/// candidate; the golden equivalence suite pins it bit-identical to the
/// naive kernel.
#[derive(Debug, Clone)]
pub struct SimTracker {
    /// Template slot sequences, cloned from the owning set (templates
    /// are immutable per instance and small).
    slots: Vec<Vec<ItemKind>>,
    state: Vec<TplCounters>,
    prefix_len: usize,
}

/// The loop state of [`InterleavingKernel::sim`] for one template,
/// frozen at the current prefix.
#[derive(Debug, Clone, Copy, Default)]
struct TplCounters {
    matches: u32,
    run: u32,
    zeta: u32,
}

impl TplCounters {
    /// The counters after appending an item matching (`hit`) or missing
    /// the next template slot.
    #[inline]
    fn advanced(self, hit: bool) -> Self {
        if hit {
            let run = self.run + 1;
            TplCounters {
                matches: self.matches + 1,
                run,
                zeta: self.zeta.max(run),
            }
        } else {
            TplCounters { run: 0, ..self }
        }
    }

    /// `ζ · Σc / k` with the exact float expression of the naive kernel.
    #[inline]
    fn sim(self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        f64::from(self.zeta) * f64::from(self.matches) / k as f64
    }
}

impl SimTracker {
    /// A tracker over `templates` at the empty prefix.
    pub fn new(templates: &TemplateSet) -> Self {
        SimTracker {
            slots: templates
                .templates()
                .iter()
                .map(|t| t.slots().to_vec())
                .collect(),
            state: vec![TplCounters::default(); templates.len()],
            prefix_len: 0,
        }
    }

    /// Rewinds to the empty prefix (episode reset).
    pub fn reset(&mut self) {
        self.state.fill(TplCounters::default());
        self.prefix_len = 0;
    }

    /// Length of the prefix consumed so far.
    #[inline]
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Appends one item kind to the tracked prefix.
    pub fn push(&mut self, kind: ItemKind) {
        let at = self.prefix_len;
        for (slots, st) in self.slots.iter().zip(self.state.iter_mut()) {
            // Beyond the template's length the naive kernel truncates the
            // sequence, so the counters freeze.
            if at < slots.len() {
                *st = st.advanced(slots[at] == kind);
            }
        }
        self.prefix_len = at + 1;
    }

    /// `Sim(prefix + [kind], I_i)` without mutating the tracker.
    fn peek_template(&self, i: usize, kind: ItemKind) -> f64 {
        let tlen = self.slots[i].len();
        let at = self.prefix_len;
        if at < tlen {
            self.state[i]
                .advanced(self.slots[i][at] == kind)
                .sim(at + 1)
        } else {
            self.state[i].sim(tlen)
        }
    }

    /// The Eq. 7 aggregate for appending `kind` to the tracked prefix —
    /// the incremental equivalent of [`InterleavingKernel::aggregate`]
    /// over `prefix + [kind]`.
    pub fn peek_aggregate(&self, kind: ItemKind, mode: SimAggregate) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        let sims = (0..self.slots.len()).map(|i| self.peek_template(i, kind));
        match mode {
            SimAggregate::Average => sims.sum::<f64>() / self.slots.len() as f64,
            SimAggregate::Minimum => sims.fold(f64::INFINITY, f64::min),
        }
    }
}

/// Everything Eq. 2 needs, bound to one instance's soft constraints.
///
/// The model is a pure function of the episode state supplied per call,
/// so one instance can be shared by the environment, the EDA baseline and
/// the scorer.
#[derive(Debug, Clone)]
pub struct RewardModel {
    ideal: TopicVector,
    templates: TemplateSet,
    gap: usize,
    epsilon: f64,
    delta: f64,
    beta: f64,
    weights: TypeWeights,
    sim: SimAggregate,
    /// Scale the type weight by `popularity / 5` (trip instances): the
    /// paper's trip scores are popularity scores, so popularity must
    /// enter the actual value being maximized. Documented in DESIGN.md.
    popularity_shaping: bool,
    /// Trip instances: the paper instantiates the trip `gap` as "not
    /// visiting two POIs of the same theme consecutively" (§IV-A1), so
    /// the theme check is part of the r2 gate.
    theme_gap: bool,
    /// The smallest novel ideal-topic gain that passes r1
    /// ([`RewardModel::min_gain`]).
    min_gain: u32,
}

impl RewardModel {
    /// Builds a reward model from an instance's soft constraints and the
    /// planner parameters.
    pub fn new(
        ideal: TopicVector,
        templates: TemplateSet,
        gap: usize,
        params: &PlannerParams,
        popularity_shaping: bool,
    ) -> Self {
        let min_gain = min_passing_gain(ideal.count_ones(), params.epsilon);
        RewardModel {
            ideal,
            templates,
            gap,
            epsilon: params.epsilon,
            delta: params.delta,
            beta: params.beta,
            weights: params.weights.clone(),
            sim: params.sim,
            popularity_shaping,
            theme_gap: popularity_shaping,
            min_gain,
        }
    }

    /// Enables/disables the trip theme-gap component of r2 (defaults to
    /// on for trip instances).
    pub fn with_theme_gap(mut self, on: bool) -> Self {
        self.theme_gap = on;
        self
    }

    /// The topic-coverage gate `r1` (Eq. 3): 1 iff adding the item
    /// increases ideal-topic coverage by at least ε. ε < 1 is a fraction
    /// of `|T_ideal|`, ε ≥ 1 an absolute count.
    pub fn coverage_gate(&self, item_topics: &TopicVector, current: &TopicVector) -> bool {
        let gain = item_topics.novel_ideal_coverage(&self.ideal, current);
        if self.epsilon < 1.0 {
            let ideal_size = self.ideal.count_ones().max(1);
            f64::from(gain) / f64::from(ideal_size) >= self.epsilon
        } else {
            f64::from(gain) >= self.epsilon
        }
    }

    /// The antecedent-gap gate `r2` (Eq. 4), evaluated with the semester
    /// (block) gap semantics of `tpp-model`.
    pub fn prereq_gate<F>(&self, prereq: &PrereqExpr, position_of: &F, at: usize) -> bool
    where
        F: Fn(ItemId) -> Option<usize>,
    {
        prereq.satisfied_with_gap(position_of, at, self.gap)
    }

    /// The full Eq. 2 reward for appending `item` to an episode whose
    /// current kind sequence is `seq_before`, ideal-topic coverage is
    /// `coverage`, and item positions are given by `position_of`.
    /// `prev_topics` carries the preceding item's themes so the trip
    /// theme-gap can gate (pass `None` for course instances or at the
    /// first position).
    pub fn reward<F>(
        &self,
        item: &Item,
        seq_before: &[ItemKind],
        coverage: &TopicVector,
        position_of: &F,
        prev_topics: Option<&TopicVector>,
    ) -> f64
    where
        F: Fn(ItemId) -> Option<usize>,
    {
        let at = seq_before.len();
        if !self.theta(item, at, coverage, position_of, prev_topics) {
            return 0.0; // θ = r1 · r2 = 0
        }
        // Interleaving similarity of the sequence *including* the new
        // item (`AvgSim(s_{i+1}, IT_{i+1})`).
        let mut seq_after = Vec::with_capacity(at + 1);
        seq_after.extend_from_slice(seq_before);
        seq_after.push(item.kind);
        let sim = InterleavingKernel::aggregate(&seq_after, &self.templates, self.sim);
        self.shaped(item, sim)
    }

    /// The ideal topic vector `T_ideal`.
    pub(crate) fn ideal(&self) -> &TopicVector {
        &self.ideal
    }

    /// The smallest novel ideal-topic gain `g` for which
    /// [`RewardModel::coverage_gate`] passes: r1 holds iff
    /// `|T^m ∩ T_ideal \ T_current| ≥ min_gain`. Found once, with
    /// `coverage_gate`'s own float expression, by trying every gain
    /// `0..=|T_ideal|`; `|T_ideal| + 1` when none passes.
    pub(crate) fn min_gain(&self) -> u32 {
        self.min_gain
    }

    /// Whether the trip theme-gap is part of r2
    /// ([`RewardModel::with_theme_gap`]).
    pub(crate) fn theme_gap(&self) -> bool {
        self.theme_gap
    }

    /// The semester (block) of sequence position `pos`: `⌊pos/gap⌋`, the
    /// quantity [`PrereqExpr::satisfied_with_gap`] compares. An
    /// antecedent seated at `p` satisfies r2 for a candidate at `at` iff
    /// `block_of(p) < block_of(at)`.
    pub(crate) fn block_of(&self, pos: usize) -> usize {
        pos / self.gap.max(1)
    }

    /// Eq. 2's type term `β · weight_type` for `item`, including the trip
    /// popularity shaping: the expression of the naive path's `shaped`,
    /// kept separate so that path stays an independent oracle. Constant
    /// per item.
    pub(crate) fn type_term(&self, item: &Item) -> f64 {
        let mut weight = self
            .weights
            .weight_of(item.is_primary(), item.category.map(|c| c.index()));
        if self.popularity_shaping {
            if let Some(attrs) = item.poi {
                weight *= attrs.popularity / 5.0;
            }
        }
        self.beta * weight
    }

    /// Eq. 2's similarity term `δ · Agg(prefix + [kind])` over the prefix
    /// `tracker` holds. It depends on the candidate only through its
    /// kind, so it takes two values per step.
    pub(crate) fn sim_term(&self, tracker: &SimTracker, kind: ItemKind) -> f64 {
        self.delta * tracker.peek_aggregate(kind, self.sim)
    }

    /// A [`SimTracker`] over this model's template set, at the empty
    /// prefix.
    pub fn sim_tracker(&self) -> SimTracker {
        SimTracker::new(&self.templates)
    }

    /// The gate θ = r1 · r2 for appending `item` at position `at`.
    fn theta<F>(
        &self,
        item: &Item,
        at: usize,
        coverage: &TopicVector,
        position_of: &F,
        prev_topics: Option<&TopicVector>,
    ) -> bool
    where
        F: Fn(ItemId) -> Option<usize>,
    {
        if !self.coverage_gate(&item.topics, coverage) {
            return false;
        }
        let mut r2 = self.prereq_gate(&item.prereq, position_of, at);
        if self.theme_gap {
            if let Some(prev) = prev_topics {
                r2 = r2 && prev.intersection_count(&item.topics) == 0;
            }
        }
        r2
    }

    /// Eq. 2's shaped value for a gate-passing action. Eq. 2 uses the
    /// *raw* aggregated similarity (not normalized by prefix length): a
    /// matched consecutive run makes AvgSim grow superlinearly through
    /// ζ, which is what commits the policy to one template — exactly the
    /// behaviour that lets a recommendation realize a single ideal
    /// composition and score ≈ H.
    fn shaped(&self, item: &Item, sim: f64) -> f64 {
        let mut weight = self
            .weights
            .weight_of(item.is_primary(), item.category.map(|c| c.index()));
        if self.popularity_shaping {
            if let Some(attrs) = item.poi {
                weight *= attrs.popularity / 5.0;
            }
        }
        self.delta * sim + self.beta * weight
    }
}

/// [`RewardModel::min_gain`]: the first gain in `0..=ideal_size` that
/// passes r1 under `epsilon`, using the float expression of
/// [`RewardModel::coverage_gate`]. Both branches are monotone in the
/// gain, so every larger gain passes too.
fn min_passing_gain(ideal_size: u32, epsilon: f64) -> u32 {
    let passes = |gain: u32| {
        if epsilon < 1.0 {
            f64::from(gain) / f64::from(ideal_size.max(1)) >= epsilon
        } else {
            f64::from(gain) >= epsilon
        }
    };
    (0..=ideal_size)
        .find(|&g| passes(g))
        .unwrap_or(ideal_size + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_model::toy;
    use tpp_model::{ItemKind::Primary as P, ItemKind::Secondary as S};

    #[test]
    fn paper_sim_worked_example() {
        // §III-B4: sequence {P, S, P, P}, course templates
        // {PPSPSS, PSSSPP, PSSPPS} → Sim = [0.5, 1, 1.5], AvgSim = 1.
        let seq = [P, S, P, P];
        let it = TemplateSet::paper_course_example();
        let sims: Vec<f64> = it
            .templates()
            .iter()
            .map(|t| InterleavingKernel::sim(&seq, t))
            .collect();
        assert_eq!(sims, vec![0.5, 1.0, 1.5]);
        assert_eq!(
            InterleavingKernel::aggregate(&seq, &it, SimAggregate::Average),
            1.0
        );
        assert_eq!(
            InterleavingKernel::aggregate(&seq, &it, SimAggregate::Minimum),
            0.5
        );
        assert_eq!(InterleavingKernel::best(&seq, &it), 1.5);
    }

    #[test]
    fn perfect_prefix_scores_k() {
        let it = TemplateSet::paper_course_example();
        // I2 = PSSSPP; its own prefix of length 6 scores 6·6/6 = 6.
        let seq = [P, S, S, S, P, P];
        assert_eq!(InterleavingKernel::best(&seq, &it), 6.0);
    }

    #[test]
    fn sim_bounds() {
        let it = TemplateSet::paper_course_example();
        for seq in [vec![P], vec![S, S], vec![P, P, S, S, P, S]] {
            for t in it.templates() {
                let s = InterleavingKernel::sim(&seq, t);
                assert!((0.0..=seq.len() as f64).contains(&s), "{s}");
            }
        }
    }

    #[test]
    fn empty_sequence_sims_zero() {
        let it = TemplateSet::paper_course_example();
        assert_eq!(InterleavingKernel::best(&[], &it), 0.0);
        assert_eq!(
            InterleavingKernel::aggregate(&[], &it, SimAggregate::Average),
            0.0
        );
    }

    fn toy_model(epsilon: f64) -> RewardModel {
        let mut params = crate::PlannerParams::univ1_defaults();
        params.epsilon = epsilon;
        RewardModel::new(
            toy::table2_soft().ideal_topics,
            TemplateSet::paper_course_example(),
            toy::table2_hard().gap,
            &params,
            false,
        )
    }

    #[test]
    fn paper_r1_example() {
        // §III-B1 with ε = 1: after taking m2 (Data Mining), adding m4
        // (Linear Algebra) has r1 = 1, adding m5 (Big Data) has r1 = 0.
        let cat = toy::table2_catalog();
        let model = toy_model(1.0);
        let m2 = cat.by_code("m2").unwrap();
        let m4 = cat.by_code("m4").unwrap();
        let m5 = cat.by_code("m5").unwrap();
        let mut coverage = cat.vocabulary().zero_vector();
        coverage.union_with(&m2.topics);
        assert!(model.coverage_gate(&m4.topics, &coverage));
        assert!(!model.coverage_gate(&m5.topics, &coverage));
    }

    #[test]
    fn fractional_epsilon_is_fraction_of_ideal() {
        // ideal has 4 topics; ε = 0.3 needs gain ≥ 1.2 → 2 topics.
        let cat = toy::table2_catalog();
        let model = toy_model(0.3);
        let empty = cat.vocabulary().zero_vector();
        // m6 (ML) covers Classification, Clustering, Neural Network from
        // the ideal → gain 3 ≥ 1.2.
        let m6 = cat.by_code("m6").unwrap();
        assert!(model.coverage_gate(&m6.topics, &empty));
        // m4 (Linear Algebra) only gains Linear System → 1 < 1.2.
        let m4 = cat.by_code("m4").unwrap();
        assert!(!model.coverage_gate(&m4.topics, &empty));
    }

    #[test]
    fn reward_zero_when_prereq_violated_theorem1() {
        // Theorem 1: the gate forces R = 0 whenever the gap constraint is
        // unsatisfied. m6 requires m4 AND m2; with neither taken the
        // reward is exactly 0 regardless of everything else.
        let cat = toy::table2_catalog();
        let model = toy_model(1.0);
        let m6 = cat.by_code("m6").unwrap();
        let empty = cat.vocabulary().zero_vector();
        let none = |_: ItemId| None::<usize>;
        assert_eq!(model.reward(m6, &[], &empty, &none, None), 0.0);
    }

    #[test]
    fn reward_positive_for_valid_action_and_decomposes() {
        let cat = toy::table2_catalog();
        let model = toy_model(1.0);
        let m1 = cat.by_code("m1").unwrap();
        let empty = cat.vocabulary().zero_vector();
        let none = |_: ItemId| None::<usize>;
        // m1 covers Algorithms + Data Structure — neither is ideal, so r1
        // fails even though m1 has no prereq.
        assert_eq!(model.reward(m1, &[], &empty, &none, None), 0.0);
        // m2 covers Classification + Clustering (both ideal): reward > 0.
        let m2 = cat.by_code("m2").unwrap();
        let r = model.reward(m2, &[], &empty, &none, None);
        assert!(r > 0.0);
        // Decomposition: first slot, kind S matches no first template
        // slot (all start P) → sim 0; weight w2 = 0.4, β = 0.4.
        assert!((r - 0.4 * 0.4).abs() < 1e-12, "r = {r}");
    }

    #[test]
    fn primary_items_rewarded_higher_all_else_equal() {
        // Theorem 1 Case II's engine: β·w1 > β·w2.
        let cat = toy::table2_catalog();
        let model = toy_model(1.0);
        let empty = cat.vocabulary().zero_vector();
        // m6 (primary, ideal topics, no prereq issue if we fake positions)
        let m6 = cat.by_code("m6").unwrap();
        let m2 = cat.by_code("m2").unwrap();
        let pos = |id: ItemId| match id.0 {
            1 | 3 => Some(0usize), // pretend m2 and m4 were taken long ago
            _ => None,
        };
        let seq = [S, S, S]; // at position 3 → semester 1
        let r_primary = model.reward(m6, &seq, &empty, &pos, None);
        let r_secondary = model.reward(m2, &seq, &empty, &pos, None);
        assert!(r_primary > r_secondary, "{r_primary} !> {r_secondary}");
    }

    #[test]
    fn popularity_shaping_scales_weight() {
        let cat = toy::paris_toy_catalog();
        let mut params = crate::PlannerParams::trip_defaults();
        params.epsilon = 1.0;
        let model = RewardModel::new(
            toy::paris_toy_soft().ideal_topics,
            TemplateSet::paper_trip_example(),
            1,
            &params,
            true,
        );
        let empty = cat.vocabulary().zero_vector();
        let none = |_: ItemId| None::<usize>;
        // Louvre: primary, popularity 5 → full w1.
        let louvre = cat.by_code("louvre museum").unwrap();
        let r_louvre = model.reward(louvre, &[], &empty, &none, None);
        // Pantheon: secondary, popularity 4.2 → w2 · 4.2/5.
        let pantheon = cat.by_code("pantheon").unwrap();
        let r_pantheon = model.reward(pantheon, &[], &empty, &none, None);
        // Both match 'P...' first slots? Louvre is primary: all templates
        // start P → sim_norm = 1. Pantheon secondary → sim 0.
        let expect_louvre = 0.6 * 1.0 + 0.4 * (0.6 * 1.0);
        assert!((r_louvre - expect_louvre).abs() < 1e-12, "{r_louvre}");
        let expect_pantheon = 0.4 * (0.4 * 4.2 / 5.0);
        assert!((r_pantheon - expect_pantheon).abs() < 1e-12, "{r_pantheon}");
    }

    #[test]
    fn sim_tracker_peek_is_bit_identical_to_naive_kernel() {
        // Exhaustive over every P/S sequence up to length 8 against the
        // paper template set: the incremental peek must reproduce the
        // naive kernel's aggregate to the bit, for both aggregates.
        let it = TemplateSet::paper_course_example();
        for len in 0..8u32 {
            for bits in 0..(1u32 << len) {
                let seq: Vec<_> = (0..len)
                    .map(|i| if bits >> i & 1 == 1 { P } else { S })
                    .collect();
                let mut tracker = SimTracker::new(&it);
                for &k in &seq {
                    tracker.push(k);
                }
                assert_eq!(tracker.prefix_len(), seq.len());
                for cand in [P, S] {
                    let mut after = seq.clone();
                    after.push(cand);
                    for mode in [SimAggregate::Average, SimAggregate::Minimum] {
                        let naive = InterleavingKernel::aggregate(&after, &it, mode);
                        let fast = tracker.peek_aggregate(cand, mode);
                        assert_eq!(naive.to_bits(), fast.to_bits(), "{seq:?} + {cand:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn sim_tracker_reset_rewinds_to_empty_prefix() {
        let it = TemplateSet::paper_course_example();
        let mut tracker = SimTracker::new(&it);
        tracker.push(P);
        tracker.push(S);
        tracker.reset();
        assert_eq!(tracker.prefix_len(), 0);
        let fresh = SimTracker::new(&it);
        for mode in [SimAggregate::Average, SimAggregate::Minimum] {
            assert_eq!(
                tracker.peek_aggregate(P, mode).to_bits(),
                fresh.peek_aggregate(P, mode).to_bits()
            );
        }
    }

    #[test]
    fn sim_tracker_freezes_past_template_length() {
        // Prefixes longer than the template leave the similarity fixed,
        // exactly like the naive kernel's truncation.
        let it = TemplateSet::from_strs(&["PS"]).unwrap();
        let mut tracker = SimTracker::new(&it);
        for k in [P, S, P, P, S] {
            tracker.push(k);
        }
        let seq = [P, S, P, P, S, P];
        let naive = InterleavingKernel::aggregate(&seq, &it, SimAggregate::Average);
        assert_eq!(
            tracker.peek_aggregate(P, SimAggregate::Average).to_bits(),
            naive.to_bits()
        );
    }

    #[test]
    fn sim_tracker_empty_template_set_is_zero() {
        let it = TemplateSet::new(vec![]);
        let tracker = SimTracker::new(&it);
        assert_eq!(tracker.peek_aggregate(P, SimAggregate::Average), 0.0);
        assert_eq!(tracker.peek_aggregate(S, SimAggregate::Minimum), 0.0);
    }

    #[test]
    fn min_gain_matches_coverage_gate_at_every_gain() {
        // For each ideal size and every ε at and around the r1
        // boundaries (k/|T_ideal| and whole counts), `gain ≥ min_gain`
        // must agree with `coverage_gate` for every reachable gain.
        for ideal_size in [0usize, 1, 3, 4, 7, 13, 70] {
            let ideal = TopicVector::ones(ideal_size);
            let empty = TopicVector::zeros(ideal_size);
            let mut epsilons = vec![0.0, 0.3, 0.5, 0.999, 1.0, 2.0, 2.5, 80.0];
            for k in 0..=ideal_size {
                let at = k as f64 / ideal_size.max(1) as f64;
                // The boundary and its two float neighbours.
                let above = f64::from_bits(at.to_bits() + 1);
                let below = if at > 0.0 {
                    f64::from_bits(at.to_bits() - 1)
                } else {
                    -f64::MIN_POSITIVE
                };
                epsilons.extend([at, above, below, k as f64]);
            }
            for epsilon in epsilons {
                let mut params = crate::PlannerParams::univ1_defaults();
                params.epsilon = epsilon;
                let model = RewardModel::new(
                    ideal.clone(),
                    TemplateSet::paper_course_example(),
                    1,
                    &params,
                    false,
                );
                for gain in 0..=ideal_size {
                    let topics = TopicVector::from_topics(
                        ideal_size,
                        (0..gain).map(tpp_model::TopicId::from),
                    );
                    assert_eq!(
                        gain as u32 >= model.min_gain(),
                        model.coverage_gate(&topics, &empty),
                        "|ideal| {ideal_size}, ε {epsilon}, gain {gain}"
                    );
                }
            }
        }
    }

    #[test]
    fn shaped_reward_splits_into_sim_and_type_terms() {
        // The fast peek adds the per-step `sim_term` to the per-item
        // `type_term`; both must reproduce Eq. 2's value to the bit.
        let cat = toy::table2_catalog();
        let model = toy_model(0.0);
        let empty = cat.vocabulary().zero_vector();
        let pos = |id: ItemId| match id.0 {
            1 | 3 => Some(0usize),
            _ => None,
        };
        let mut tracker = model.sim_tracker();
        let mut seq = Vec::new();
        for kind in [S, P, S, P] {
            for item in cat.items() {
                let naive = model.reward(item, &seq, &empty, &pos, None);
                if naive != 0.0 {
                    let split = model.sim_term(&tracker, item.kind) + model.type_term(item);
                    assert_eq!(naive.to_bits(), split.to_bits(), "{}", item.code);
                }
            }
            seq.push(kind);
            tracker.push(kind);
        }
    }

    #[test]
    fn min_aggregate_is_lower_bound_of_avg() {
        let it = TemplateSet::paper_course_example();
        for seq in [vec![P, S], vec![P, P, S], vec![S, P, S, P]] {
            let avg = InterleavingKernel::aggregate(&seq, &it, SimAggregate::Average);
            let min = InterleavingKernel::aggregate(&seq, &it, SimAggregate::Minimum);
            assert!(min <= avg + 1e-12);
        }
    }
}
