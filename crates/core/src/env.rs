//! The TPP CMDP environment (§III-A).
//!
//! States are items of the complete item graph `G`; an action adds one
//! item; transitions are deterministic. Course episodes run to the fixed
//! horizon `H = #primary + #secondary` (equivalently `#cr / cr^m` for
//! uniform credits); trip episodes additionally enforce the visit-time
//! budget, the distance threshold `d`, and the no-consecutive-theme gap
//! as *action validity*, so the learner only ever explores feasible
//! itineraries.

use crate::params::{PlannerParams, ShortlistMode};
use crate::reward::{RewardModel, SimTracker};
use std::cell::{Cell, RefCell};
use tpp_geo::{haversine_km, DistanceMatrix, GeoPoint, GridIndex};
use tpp_model::{ItemId, ItemKind, Plan, PlanningInstance, PrereqExpr, TopicVector};
use tpp_rl::{Environment, StepOutcome, DENSE_AUTO_MAX};

/// Float tolerance on the `#cr` budget boundary, shared by the
/// admission gate and the course termination check so the two can never
/// disagree about the boundary: an item is admitted iff
/// `elapsed + cr^m ≤ #cr + ε`, so `elapsed_hours` can never exceed
/// `#cr` by more than accumulated float error, and a course episode is
/// over once `elapsed ≥ #cr − ε`.
const CREDIT_EPS: f64 = 1e-9;

/// Why the constraint gate rejected a candidate action (§III-A's action
/// validity: only feasible items are explorable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateReject {
    /// The `#cr` budget — course credits, or the trip visit-time limit.
    Credits,
    /// The no-consecutive-same-theme rule (the trip gap constraint).
    ThemeGap,
    /// The trip distance threshold `d`.
    Distance,
}

impl GateReject {
    /// Stable lowercase name, used as the metrics-counter suffix.
    pub fn as_str(self) -> &'static str {
        match self {
            GateReject::Credits => "credits",
            GateReject::ThemeGap => "theme_gap",
            GateReject::Distance => "distance",
        }
    }
}

/// Constraint-gate tallies accumulated across [`Environment::valid_actions`]
/// calls: how many candidate actions were checked and how many each hard
/// constraint rejected. Drained by the training loop into the global
/// metrics registry (`gate.checked`, `gate.reject.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// Unvisited candidates examined by the gate.
    pub checked: u64,
    /// Rejections by the `#cr` budget.
    pub credits: u64,
    /// Rejections by the no-consecutive-same-theme rule.
    pub theme_gap: u64,
    /// Rejections by the distance threshold.
    pub distance: u64,
}

impl GateCounts {
    fn bump(&mut self, reason: GateReject) {
        match reason {
            GateReject::Credits => self.credits += 1,
            GateReject::ThemeGap => self.theme_gap += 1,
            GateReject::Distance => self.distance += 1,
        }
    }

    /// Total rejections across every constraint.
    pub fn rejected(&self) -> u64 {
        self.credits + self.theme_gap + self.distance
    }
}

/// Where the distance gate's legs come from (§III-A's distance gate
/// probes one leg per unvisited candidate per step). The geometry is the
/// catalog's ([`tpp_model::Catalog::geometry`]): built once per catalog
/// and borrowed by every env over it.
#[derive(Debug, Clone)]
enum DistCache<'a> {
    /// No geometry: course instances, POI-less items (rejected by
    /// [`PlanningInstance::validate`]), or the naive benchmark path.
    Direct,
    /// The catalog's distance matrix, present for catalogs of at most
    /// [`DistanceMatrix::DEFAULT_CAP`] items.
    Matrix(&'a DistanceMatrix),
    /// Over-cap fallback over the catalog's points: one on-demand row
    /// ([`tpp_geo::LazyRowCache`], owned by this env), rebuilt only when
    /// the current item changes (once per step, not once per candidate
    /// — the cache's rebuild counter proves it). `RefCell` because the
    /// gate runs under `&self`; the env is single-threaded per
    /// experiment run.
    Lazy {
        points: &'a [GeoPoint],
        row: RefCell<tpp_geo::LazyRowCache>,
    },
}

/// Grid-pruned candidate shortlisting for city-scale trip catalogs:
/// `valid_actions` queries the spatial index for unvisited POIs within
/// `radius_km` of the current item and keeps the first `top_k` that
/// pass the constraint gate (nearest-first), instead of gating all `n`
/// items. A **documented approximation**: exploration is restricted to
/// the geographic neighbourhood of the current item, and an empty
/// shortlist ends the episode early even if a feasible far-away item
/// exists. The full scan stays available as the measured baseline
/// (`ShortlistMode::Off`). The grid and the points are borrowed from
/// the catalog's geometry.
#[derive(Debug, Clone)]
struct Shortlist<'a> {
    grid: &'a GridIndex<usize>,
    points: &'a [GeoPoint],
    radius_km: f64,
    top_k: usize,
}

/// The catalog's per-item columns, copied once in [`TppEnv::new`] into
/// contiguous arrays so the gate and the reward peek read a few words
/// per candidate instead of a whole [`tpp_model::Item`].
#[derive(Debug, Clone)]
struct ItemTables<'a> {
    credits: Vec<f64>,
    kinds: Vec<ItemKind>,
    prereqs: Vec<&'a PrereqExpr>,
    /// Topic words, `words` per item ([`TopicVector::blocks`]).
    topics: Vec<u64>,
    words: usize,
    /// Eq. 2's `β · w(m)` ([`RewardModel::type_term`]).
    type_term: Vec<f64>,
}

impl<'a> ItemTables<'a> {
    fn new(instance: &'a PlanningInstance, model: &RewardModel, words: usize) -> Self {
        let items = instance.catalog.items();
        let mut topics = Vec::with_capacity(items.len() * words);
        for item in items {
            debug_assert_eq!(item.topics.blocks().len(), words, "vocabulary mismatch");
            topics.extend_from_slice(item.topics.blocks());
        }
        ItemTables {
            credits: items.iter().map(|i| i.credits).collect(),
            kinds: items.iter().map(|i| i.kind).collect(),
            prereqs: items.iter().map(|i| &i.prereq).collect(),
            topics,
            words,
            type_term: items.iter().map(|i| model.type_term(i)).collect(),
        }
    }

    #[inline]
    fn topics(&self, j: usize) -> &[u64] {
        &self.topics[j * self.words..(j + 1) * self.words]
    }
}

/// Whether two topic-word slices share a topic.
#[inline]
fn words_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Index of a kind in per-kind arrays.
#[inline]
fn kind_slot(kind: ItemKind) -> usize {
    usize::from(!kind.is_primary())
}

/// The gate's per-call invariants, hoisted out of the candidate loop of
/// [`Environment::valid_actions`].
struct GateCtx<'e> {
    elapsed_hours: f64,
    credits_admit_cap: f64,
    /// The current item's topic words, when the no-consecutive-theme
    /// rule applies.
    theme: Option<&'e [u64]>,
    /// Where legs from the current item come from, with `travelled_km`
    /// and `d + 1e-9`, when the distance rule applies.
    distance: Option<(Legs<'e>, f64, f64)>,
}

/// Legs from the current item.
enum Legs<'e> {
    /// The current item's [`DistanceMatrix::row`].
    Row(&'e [f64]),
    /// Over the matrix cap: one [`TppEnv::leg_km`] probe per candidate.
    Probe,
}

/// The TPP environment over one planning instance.
#[derive(Debug, Clone)]
pub struct TppEnv<'a> {
    instance: &'a PlanningInstance,
    model: RewardModel,
    horizon: usize,
    // Interior mutability because `valid_actions` takes `&self`; the env
    // is single-threaded per experiment run.
    gates: Cell<GateCounts>,
    /// Distance structure for `leg_km` (trips).
    dist: DistCache<'a>,
    /// Grid-pruned action shortlisting (`None` = full scan).
    shortlist: Option<Shortlist<'a>>,
    /// `#cr + ε`, precomputed for the admission gate.
    credits_admit_cap: f64,
    /// `#cr − ε`, precomputed for the course termination check.
    credits_done_floor: f64,
    /// Benchmark/equivalence switch: recompute distances and template
    /// similarity from scratch every probe (the pre-incremental hot
    /// path) instead of using the caches. Semantics are identical; only
    /// the work per step differs.
    naive: bool,
    tables: ItemTables<'a>,
    // --- episode state ---
    visited: Vec<bool>,
    /// Item positions and the prefix's kinds and coverage: the naive
    /// path's inputs.
    positions: Vec<Option<usize>>,
    seq_kinds: Vec<ItemKind>,
    coverage: TopicVector,
    /// Incremental Eq. 6/7 prefix counters, kept in lockstep with
    /// `seq_kinds`.
    sim: SimTracker,
    /// `⌊pos/gap⌋` of each seated item; `usize::MAX` while unseated.
    seated_block: Vec<usize>,
    // --- per-step reward terms, refreshed on every seat ---
    /// `δ · Agg(prefix + [kind])`, indexed by [`kind_slot`].
    sim_term: [f64; 2],
    /// The ideal topics not yet covered: `T_ideal ∧ ¬T_current`.
    missing: Vec<u64>,
    /// `⌊at/gap⌋` for the next position `at`.
    at_block: usize,
    items: Vec<ItemId>,
    current: usize,
    elapsed_hours: f64,
    travelled_km: f64,
}

impl<'a> TppEnv<'a> {
    /// Builds an environment for `instance` under `params`.
    pub fn new(instance: &'a PlanningInstance, params: &PlannerParams) -> Self {
        let n = instance.catalog.len();
        let model = RewardModel::new(
            instance.soft.ideal_topics.clone(),
            instance.soft.templates.clone(),
            instance.hard.gap,
            params,
            instance.is_trip(),
        );
        let naive = params.naive_hot_path;
        let shortlist_wanted = match params.shortlist {
            ShortlistMode::Off => false,
            ShortlistMode::On => true,
            ShortlistMode::Auto => instance.is_trip() && n > DENSE_AUTO_MAX,
        };
        // Course catalogs have no geometry, and neither does an
        // unvalidated trip catalog with a POI-less item (rejected by
        // `PlanningInstance::validate`): both take the full scan and the
        // direct legs, which keep their original panic site.
        let geometry = instance
            .is_trip()
            .then(|| instance.catalog.geometry())
            .flatten();
        let shortlist = geometry.filter(|_| shortlist_wanted).and_then(|geo| {
            Some(Shortlist {
                grid: geo.grid()?,
                points: geo.points(),
                radius_km: params.shortlist_radius_km,
                top_k: params.shortlist_top_k.max(1),
            })
        });
        let dist = match geometry.filter(|_| !naive) {
            None => DistCache::Direct,
            Some(geo) => match geo.matrix() {
                Some(m) => DistCache::Matrix(m),
                // Over the matrix cap the per-step choice is a full
                // O(n) lazy-row rebuild vs one haversine per probe.
                // With a shortlist only ~top_k legs are probed per step,
                // so direct evaluation wins (all three paths delegate to
                // `haversine_km` and are bit-identical).
                None if shortlist.is_some() => DistCache::Direct,
                None => DistCache::Lazy {
                    points: geo.points(),
                    row: RefCell::new(tpp_geo::LazyRowCache::new()),
                },
            },
        };
        let sim = model.sim_tracker();
        let coverage = instance.catalog.vocabulary().zero_vector();
        let tables = ItemTables::new(instance, &model, coverage.blocks().len());
        let missing = model.ideal().blocks().to_vec();
        let mut env = TppEnv {
            instance,
            model,
            horizon: instance.horizon(),
            gates: Cell::new(GateCounts::default()),
            dist,
            shortlist,
            credits_admit_cap: instance.hard.credits + CREDIT_EPS,
            credits_done_floor: instance.hard.credits - CREDIT_EPS,
            naive,
            tables,
            visited: vec![false; n],
            positions: vec![None; n],
            seq_kinds: Vec::with_capacity(instance.horizon()),
            coverage,
            sim,
            seated_block: vec![usize::MAX; n],
            sim_term: [0.0; 2],
            missing,
            at_block: 0,
            items: Vec::with_capacity(instance.horizon()),
            current: 0,
            elapsed_hours: 0.0,
            travelled_km: 0.0,
        };
        env.refresh_step_terms();
        env
    }

    /// The reward model in use (shared with the EDA baseline).
    pub fn model(&self) -> &RewardModel {
        &self.model
    }

    /// The item sequence accumulated this episode, as a [`Plan`].
    pub fn plan(&self) -> Plan {
        Plan::from_items(self.items.clone())
    }

    /// The plan horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Excludes an item from the rest of the current episode (marks it
    /// visited without seating it). Call after [`Environment::reset`];
    /// used by the feedback loop to honour "not useful" feedback.
    pub fn exclude(&mut self, id: ItemId) {
        if id.index() < self.visited.len() && id.index() != self.current {
            self.visited[id.index()] = true;
        }
    }

    fn leg_km(&self, from: usize, to: usize) -> f64 {
        match &self.dist {
            DistCache::Matrix(m) => m.get(from, to),
            DistCache::Lazy { points, row } => row.borrow_mut().leg(points, from, to),
            DistCache::Direct => {
                let a = self.instance.catalog.items()[from]
                    .poi
                    .expect("trip items carry POI attrs");
                let b = self.instance.catalog.items()[to]
                    .poi
                    .expect("trip items carry POI attrs");
                haversine_km(a.lat, a.lon, b.lat, b.lon)
            }
        }
    }

    /// Course episodes also end once the credit requirement `#cr` is
    /// met (§III-A: `H` is "computed considering #cr and the cr^m of
    /// each course" — with uniform 3-credit courses this coincides with
    /// the `#primary + #secondary` horizon, but variable-credit catalogs
    /// terminate by accumulation).
    fn credits_exhausted(&self) -> bool {
        !self.instance.is_trip() && self.elapsed_hours >= self.credits_done_floor
    }

    /// Seats item `j` at the next position and refreshes the per-step
    /// reward terms.
    fn seat(&mut self, j: usize) {
        let item = &self.instance.catalog.items()[j];
        let pos = self.items.len();
        self.visited[j] = true;
        self.positions[j] = Some(pos);
        self.seated_block[j] = self.model.block_of(pos);
        self.seq_kinds.push(item.kind);
        self.sim.push(item.kind);
        self.coverage.union_with(&item.topics);
        for (m, t) in self.missing.iter_mut().zip(self.tables.topics(j)) {
            *m &= !t;
        }
        self.items.push(item.id);
        self.elapsed_hours += item.credits;
        self.current = j;
        self.refresh_step_terms();
    }

    /// Recomputes the reward terms that change once per step.
    fn refresh_step_terms(&mut self) {
        let (model, sim) = (&self.model, &self.sim);
        self.sim_term = [ItemKind::Primary, ItemKind::Secondary].map(|k| model.sim_term(sim, k));
        self.at_block = model.block_of(self.items.len());
    }

    /// The gate's invariants for the current state.
    fn gate_ctx(&self) -> GateCtx<'_> {
        let started = !self.items.is_empty();
        let trip = self.instance.trip.as_ref().filter(|_| started);
        GateCtx {
            elapsed_hours: self.elapsed_hours,
            credits_admit_cap: self.credits_admit_cap,
            theme: trip
                .filter(|t| t.no_consecutive_same_theme)
                .map(|_| self.tables.topics(self.current)),
            distance: trip.and_then(|t| t.max_distance_km).map(|max_km| {
                let legs = match &self.dist {
                    DistCache::Matrix(m) => Legs::Row(m.row(self.current)),
                    _ => Legs::Probe,
                };
                (legs, self.travelled_km, max_km + 1e-9)
            }),
        }
    }

    /// The action-validity gate: `None` if item `j` may follow the
    /// current state, otherwise the hard constraint that rejects it.
    #[inline]
    fn gate(&self, j: usize, ctx: &GateCtx<'_>) -> Option<GateReject> {
        // The `#cr` budget — course credits, or the trip visit-time
        // limit. Both families gate admission, so a variable-credit
        // catalog can never admit an item that pushes `elapsed_hours`
        // past `#cr` (beyond the shared float tolerance); see
        // [`CREDIT_EPS`] for the boundary convention.
        if ctx.elapsed_hours + self.tables.credits[j] > ctx.credits_admit_cap {
            return Some(GateReject::Credits);
        }
        if let Some(cur) = ctx.theme {
            if words_intersect(cur, self.tables.topics(j)) {
                return Some(GateReject::ThemeGap);
            }
        }
        if let Some((legs, travelled_km, limit)) = &ctx.distance {
            let leg = match legs {
                Legs::Row(row) => row[j],
                Legs::Probe => self.leg_km(self.current, j),
            };
            if travelled_km + leg > *limit {
                return Some(GateReject::Distance);
            }
        }
        None
    }

    /// The naive engine's gate: the same rules read straight from the
    /// catalog's items, with one haversine per leg.
    fn gate_naive(&self, j: usize) -> Option<GateReject> {
        let item = &self.instance.catalog.items()[j];
        if self.elapsed_hours + item.credits > self.credits_admit_cap {
            return Some(GateReject::Credits);
        }
        let Some(trip) = &self.instance.trip else {
            return None;
        };
        if trip.no_consecutive_same_theme && !self.items.is_empty() {
            let cur = &self.instance.catalog.items()[self.current].topics;
            if cur.intersection_count(&item.topics) > 0 {
                return Some(GateReject::ThemeGap);
            }
        }
        if let Some(max_km) = trip.max_distance_km {
            if !self.items.is_empty()
                && self.travelled_km + self.leg_km(self.current, j) > max_km + 1e-9
            {
                return Some(GateReject::Distance);
            }
        }
        None
    }

    /// Gates the unvisited candidates into `buf` — the whole catalog, or
    /// the grid shortlist around the current item — and tallies the
    /// rejections.
    fn scan<G>(&self, buf: &mut Vec<usize>, gate: G)
    where
        G: Fn(usize) -> Option<GateReject>,
    {
        let mut g = self.gates.get();
        if let Some(sl) = &self.shortlist {
            // Grid-pruned shortlist: gate candidates nearest-first and
            // stop once `top_k` pass, then restore ascending index
            // order so downstream tie-breaking ("lower index wins")
            // keeps its meaning.
            let here = &sl.points[self.current];
            for (_, &j) in sl.grid.within_radius(here, sl.radius_km) {
                if self.visited[j] {
                    continue;
                }
                g.checked += 1;
                match gate(j) {
                    None => {
                        buf.push(j);
                        if buf.len() >= sl.top_k {
                            break;
                        }
                    }
                    Some(reason) => g.bump(reason),
                }
            }
            buf.sort_unstable();
        } else {
            for (j, &seen) in self.visited.iter().enumerate() {
                if seen {
                    continue;
                }
                g.checked += 1;
                match gate(j) {
                    None => buf.push(j),
                    Some(reason) => g.bump(reason),
                }
            }
        }
        self.gates.set(g);
    }

    /// Gate tallies accumulated so far (see [`GateCounts`]).
    pub fn gate_counts(&self) -> GateCounts {
        self.gates.get()
    }

    /// Returns the accumulated gate tallies and resets them to zero.
    pub fn take_gate_counts(&self) -> GateCounts {
        self.gates.take()
    }
}

impl Environment for TppEnv<'_> {
    fn n_states(&self) -> usize {
        self.instance.catalog.len()
    }

    fn reset(&mut self, start: usize) {
        let n = self.instance.catalog.len();
        assert!(start < n, "start {start} out of range {n}");
        self.visited.fill(false);
        self.positions.fill(None);
        self.seated_block.fill(usize::MAX);
        self.seq_kinds.clear();
        self.sim.reset();
        self.items.clear();
        self.coverage.clear();
        self.missing.copy_from_slice(self.model.ideal().blocks());
        self.elapsed_hours = 0.0;
        self.travelled_km = 0.0;
        // Seat the start item as position 0 of the episode.
        self.seat(start);
    }

    fn state(&self) -> usize {
        self.current
    }

    fn valid_actions(&self, buf: &mut Vec<usize>) {
        buf.clear();
        if self.items.len() >= self.horizon || self.credits_exhausted() {
            return;
        }
        if self.naive {
            self.scan(buf, |j| self.gate_naive(j));
        } else {
            let ctx = self.gate_ctx();
            self.scan(buf, |j| self.gate(j, &ctx));
        }
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        debug_assert!(!self.visited[action], "action {action} already visited");
        let reward = self.peek_reward(action);
        if self.instance.is_trip() && !self.items.is_empty() {
            self.travelled_km += self.leg_km(self.current, action);
        }
        self.seat(action);
        StepOutcome {
            next_state: action,
            reward,
            done: self.items.len() >= self.horizon || self.credits_exhausted(),
        }
    }

    /// Eq. 2 for appending `action`. The fast path does only the
    /// candidate's share of the work: r1 is a popcount against the
    /// missing ideal topics, r2 compares seated blocks, and the value is
    /// the per-step similarity term plus the per-item type term.
    fn peek_reward(&self, action: usize) -> f64 {
        if self.naive {
            let item = &self.instance.catalog.items()[action];
            let positions = &self.positions;
            let pos_of = |id: ItemId| positions[id.index()];
            let prev = (!self.items.is_empty() && self.instance.is_trip())
                .then(|| &self.instance.catalog.items()[self.current].topics);
            return self
                .model
                .reward(item, &self.seq_kinds, &self.coverage, &pos_of, prev);
        }
        let t = &self.tables;
        let topics = t.topics(action);
        let gain: u32 = topics
            .iter()
            .zip(&self.missing)
            .map(|(m, i)| (m & i).count_ones())
            .sum();
        if gain < self.model.min_gain() {
            return 0.0; // r1 = 0
        }
        let (seated, at_block) = (&self.seated_block, self.at_block);
        if !t.prereqs[action].holds(&|id: ItemId| seated[id.index()] < at_block) {
            return 0.0; // r2 = 0
        }
        if self.model.theme_gap()
            && self.instance.is_trip()
            && !self.items.is_empty()
            && words_intersect(t.topics(self.current), topics)
        {
            return 0.0; // r2's trip theme gap
        }
        self.sim_term[kind_slot(t.kinds[action])] + t.type_term[action]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_model::toy;
    use tpp_model::TripConstraints;

    fn course_instance() -> PlanningInstance {
        PlanningInstance {
            catalog: toy::table2_catalog(),
            hard: toy::table2_hard(),
            soft: toy::table2_soft(),
            trip: None,
            default_start: Some(ItemId(0)),
        }
    }

    fn course_params() -> PlannerParams {
        let mut p = PlannerParams::univ1_defaults();
        p.epsilon = 1.0; // the paper's §III-B1 example threshold
        p
    }

    #[test]
    fn reset_seats_start_item() {
        let inst = course_instance();
        let params = course_params();
        let mut env = TppEnv::new(&inst, &params);
        env.reset(0);
        assert_eq!(env.state(), 0);
        assert_eq!(env.plan().items(), &[ItemId(0)]);
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        assert_eq!(acts, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn episode_terminates_at_horizon() {
        let inst = course_instance();
        let params = course_params();
        let mut env = TppEnv::new(&inst, &params);
        env.reset(0);
        let order = [1usize, 3, 4, 5, 2];
        let mut last = StepOutcome {
            next_state: 0,
            reward: 0.0,
            done: false,
        };
        for &a in &order {
            assert!(!last.done);
            last = env.step(a);
        }
        assert!(last.done);
        assert_eq!(env.plan().len(), 6);
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        assert!(acts.is_empty());
    }

    #[test]
    fn paper_example_sequence_collects_positive_reward() {
        // m1 → m2 → m4 → m5 → m6 → m3 (§II-B1's exemplar).
        let inst = course_instance();
        let params = course_params();
        let mut env = TppEnv::new(&inst, &params);
        env.reset(0); // m1
        let mut total = 0.0;
        for &a in &[1usize, 3, 4, 5, 2] {
            total += env.step(a).reward;
        }
        assert!(total > 0.0, "exemplar plan should earn reward, got {total}");
    }

    #[test]
    fn peek_reward_matches_step_reward() {
        let inst = course_instance();
        let params = course_params();
        let mut env = TppEnv::new(&inst, &params);
        env.reset(0);
        let peek = env.peek_reward(1);
        let got = env.step(1).reward;
        assert_eq!(peek, got);
    }

    #[test]
    fn prereq_gated_reward_is_zero_in_env() {
        // m5 (Big Data) straight after m1: neither m2 nor m3 present.
        let inst = course_instance();
        let params = course_params();
        let mut env = TppEnv::new(&inst, &params);
        env.reset(0);
        assert_eq!(env.peek_reward(4), 0.0);
    }

    fn trip_instance() -> PlanningInstance {
        PlanningInstance {
            catalog: toy::paris_toy_catalog(),
            hard: toy::paris_toy_hard(),
            soft: toy::paris_toy_soft(),
            trip: Some(TripConstraints {
                max_distance_km: Some(20.0),
                no_consecutive_same_theme: true,
            }),
            default_start: Some(ItemId(1)),
        }
    }

    #[test]
    fn trip_budget_limits_actions() {
        let inst = trip_instance();
        let params = PlannerParams::trip_defaults();
        let mut env = TppEnv::new(&inst, &params);
        env.reset(1); // Louvre, 2.5h of the 6h budget
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        // Musée d'Orsay (2.0h) shares Museum/Art Gallery themes with the
        // Louvre → blocked by the no-consecutive-theme rule.
        assert!(!acts.contains(&4));
        // Eiffel Tower shares Architecture with the Louvre → blocked too.
        assert!(!acts.contains(&0));
        // Pantheon shares Architecture → blocked; Seine (River) fine.
        assert!(acts.contains(&7));
    }

    #[test]
    fn trip_time_budget_excludes_overflow() {
        let inst = trip_instance();
        let params = PlannerParams::trip_defaults();
        let mut env = TppEnv::new(&inst, &params);
        env.reset(1); // 2.5h used
        env.step(7); // Seine 0.5h → 3h used
        env.step(2); // Pantheon 1h → 4h
        env.step(3); // Rue des Martyrs 0.5h → 4.5h
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        // Musée d'Orsay needs 2h: 6.5 > 6 → excluded.
        assert!(!acts.contains(&4), "{acts:?}");
        // Le Cinq needs 1.5h: exactly 6 → allowed.
        assert!(acts.contains(&8), "{acts:?}");
    }

    #[test]
    fn trip_distance_threshold_excludes_far_pois() {
        let mut inst = trip_instance();
        inst.trip = Some(TripConstraints {
            max_distance_km: Some(1.0),
            no_consecutive_same_theme: false,
        });
        let params = PlannerParams::trip_defaults();
        let mut env = TppEnv::new(&inst, &params);
        env.reset(1); // Louvre
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        // Eiffel Tower is ~3.2 km from the Louvre → excluded.
        assert!(!acts.contains(&0), "{acts:?}");
        // Musée d'Orsay is ~0.8 km → allowed.
        assert!(acts.contains(&4), "{acts:?}");
    }

    #[test]
    fn variable_credit_courses_terminate_by_accumulation() {
        // A catalog with 4-credit courses and #cr = 12 finishes after 3
        // courses even though the primary/secondary horizon allows 6.
        use tpp_model::CatalogBuilder;
        let catalog = {
            let mut b =
                CatalogBuilder::new("var-credits").topics(["t0", "t1", "t2", "t3", "t4", "t5"]);
            for i in 0..6 {
                let kind = if i < 3 {
                    tpp_model::ItemKind::Primary
                } else {
                    tpp_model::ItemKind::Secondary
                };
                let names = ["t0", "t1", "t2", "t3", "t4", "t5"];
                b = b.course(
                    format!("C{i}"),
                    format!("Course {i}"),
                    kind,
                    4.0,
                    &[names[i]],
                );
            }
            b.build().unwrap()
        };
        let hard = tpp_model::HardConstraints {
            credits: 12.0,
            n_primary: 3,
            n_secondary: 3,
            gap: 1,
        };
        let soft = tpp_model::SoftConstraints::new(
            tpp_model::TopicVector::ones(6),
            tpp_model::TemplateSet::from_strs(&["PSPSPS", "PPPSSS"]).unwrap(),
            &hard,
        )
        .unwrap();
        let inst = PlanningInstance {
            catalog,
            hard,
            soft,
            trip: None,
            default_start: Some(ItemId(0)),
        };
        let mut params = PlannerParams::univ1_defaults();
        params.epsilon = 0.0;
        let mut env = TppEnv::new(&inst, &params);
        env.reset(0); // 4 credits
        let out = env.step(3); // 8 credits
        assert!(!out.done);
        let out = env.step(1); // 12 credits: requirement met
        assert!(out.done, "episode must end once #cr is accumulated");
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        assert!(acts.is_empty());
    }

    /// A course catalog with non-uniform credits: three 4-credit and
    /// three 2-credit courses under `#cr = 10`.
    fn mixed_credit_instance() -> PlanningInstance {
        use tpp_model::CatalogBuilder;
        let names = ["t0", "t1", "t2", "t3", "t4", "t5"];
        let mut b = CatalogBuilder::new("mixed-credits").topics(names);
        for (i, name) in names.iter().enumerate() {
            let kind = if i < 3 {
                tpp_model::ItemKind::Primary
            } else {
                tpp_model::ItemKind::Secondary
            };
            let credits = if i < 3 { 4.0 } else { 2.0 };
            b = b.course(
                format!("C{i}"),
                format!("Course {i}"),
                kind,
                credits,
                &[*name],
            );
        }
        let hard = tpp_model::HardConstraints {
            credits: 10.0,
            n_primary: 3,
            n_secondary: 3,
            gap: 1,
        };
        let soft = tpp_model::SoftConstraints::new(
            tpp_model::TopicVector::ones(6),
            tpp_model::TemplateSet::from_strs(&["PSPSPS", "PPPSSS"]).unwrap(),
            &hard,
        )
        .unwrap();
        PlanningInstance {
            catalog: b.build().unwrap(),
            hard,
            soft,
            trip: None,
            default_start: Some(ItemId(0)),
        }
    }

    #[test]
    fn course_gate_rejects_credit_overshoot() {
        // Regression for the asymmetric-epsilon audit: pre-fix, course
        // instances had no admission gate at all, so a 4-credit course
        // could be seated at 8/10 credits and push `elapsed_hours` to 12.
        let inst = mixed_credit_instance();
        let mut params = PlannerParams::univ1_defaults();
        params.epsilon = 0.0;
        let mut env = TppEnv::new(&inst, &params);
        env.reset(0); // C0: 4 credits
        env.step(1); // C1: 8 of 10 credits
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        // C2 (4 credits) would overshoot to 12 > 10 → rejected; the
        // 2-credit electives fit exactly.
        assert!(!acts.contains(&2), "{acts:?}");
        assert_eq!(acts, vec![3, 4, 5]);
        assert!(env.gate_counts().credits > 0);
        // Seat an exact-fit item: elapsed lands on #cr, never past it.
        let out = env.step(3);
        assert!(out.done, "10/10 credits must terminate the episode");
        assert!(env.elapsed_hours <= inst.hard.credits + 1e-9);
    }

    #[test]
    fn course_gate_admits_exact_credit_fit() {
        // The boundary convention: `elapsed + cr^m ≤ #cr + ε` admits an
        // exact fit (and tolerates accumulated float error), mirroring
        // the trip gate's treatment of `Le Cinq` at exactly 6 h.
        let inst = mixed_credit_instance();
        let mut params = PlannerParams::univ1_defaults();
        params.epsilon = 0.0;
        let mut env = TppEnv::new(&inst, &params);
        env.reset(0); // 4
        env.step(1); // 8
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        assert!(acts.contains(&5), "2-credit exact fit must be admitted");
    }

    #[test]
    fn trip_admission_never_pushes_elapsed_past_budget() {
        // Walk every greedy-feasible trip trajectory prefix and check the
        // invariant the gate promises: elapsed ≤ #cr + ε at all times.
        let inst = trip_instance();
        let params = PlannerParams::trip_defaults();
        let mut env = TppEnv::new(&inst, &params);
        for start in [0usize, 1, 5] {
            env.reset(start);
            let mut acts = Vec::new();
            loop {
                env.valid_actions(&mut acts);
                let Some(&a) = acts.first() else { break };
                assert!(env.elapsed_hours <= inst.hard.credits + 1e-9);
                if env.step(a).done {
                    break;
                }
            }
            assert!(
                env.elapsed_hours <= inst.hard.credits + 1e-9,
                "start {start}: elapsed {} > budget {}",
                env.elapsed_hours,
                inst.hard.credits
            );
        }
    }

    #[test]
    fn naive_and_incremental_paths_agree_on_toy_instances() {
        // Lockstep walk of both engines over course and trip toys: same
        // valid sets, bit-identical rewards at every step.
        for inst in [course_instance(), trip_instance()] {
            let params = if inst.is_trip() {
                PlannerParams::trip_defaults()
            } else {
                course_params()
            };
            let naive_params = params.clone().with_naive_hot_path(true);
            let mut fast = TppEnv::new(&inst, &params);
            let mut naive = TppEnv::new(&inst, &naive_params);
            fast.reset(0);
            naive.reset(0);
            let (mut fa, mut na) = (Vec::new(), Vec::new());
            loop {
                fast.valid_actions(&mut fa);
                naive.valid_actions(&mut na);
                assert_eq!(fa, na);
                let Some(&a) = fa.first() else { break };
                for &cand in &fa {
                    assert_eq!(
                        fast.peek_reward(cand).to_bits(),
                        naive.peek_reward(cand).to_bits(),
                        "candidate {cand} in {:?}",
                        inst.catalog.name()
                    );
                }
                let fo = fast.step(a);
                let no = naive.step(a);
                assert_eq!(fo.reward.to_bits(), no.reward.to_bits());
                assert_eq!(fo.done, no.done);
                if fo.done {
                    break;
                }
            }
        }
    }

    #[test]
    fn envs_over_one_catalog_borrow_one_matrix() {
        let inst = trip_instance();
        let params = PlannerParams::trip_defaults();
        let matrix = |env: &TppEnv<'_>| match env.dist {
            DistCache::Matrix(m) => m as *const DistanceMatrix,
            ref other => panic!("expected the catalog matrix, got {other:?}"),
        };
        let a = TppEnv::new(&inst, &params);
        let b = TppEnv::new(&inst, &params);
        assert!(std::ptr::eq(matrix(&a), matrix(&b)));
        let shared = inst.catalog.geometry().unwrap().matrix().unwrap();
        assert!(std::ptr::eq(matrix(&a), shared));
        // The naive engine keeps its direct haversine legs.
        let naive = TppEnv::new(&inst, &params.clone().with_naive_hot_path(true));
        assert!(matches!(naive.dist, DistCache::Direct));
    }

    #[test]
    fn shortlists_borrow_the_catalog_grid() {
        let inst = trip_instance();
        let mut params = PlannerParams::trip_defaults();
        params.shortlist = ShortlistMode::On;
        let grid =
            |env: &TppEnv<'_>| env.shortlist.as_ref().expect("shortlist on").grid as *const _;
        let (a, b) = (TppEnv::new(&inst, &params), TppEnv::new(&inst, &params));
        assert!(std::ptr::eq(grid(&a), grid(&b)));
        assert!(std::ptr::eq(
            grid(&a),
            inst.catalog.geometry().unwrap().grid().unwrap()
        ));
    }

    #[test]
    fn gate_counts_attribute_rejections_to_constraints() {
        let inst = trip_instance();
        let params = PlannerParams::trip_defaults();
        let mut env = TppEnv::new(&inst, &params);
        env.reset(1); // Louvre
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        let g = env.take_gate_counts();
        // Every unvisited item was examined exactly once.
        assert_eq!(g.checked, (inst.catalog.len() - 1) as u64);
        assert_eq!(g.checked, acts.len() as u64 + g.rejected());
        // The Louvre's neighbours share Museum/Art/Architecture themes →
        // the theme-gap rule fires (see trip_budget_limits_actions).
        assert!(g.theme_gap > 0, "{g:?}");
        // take drains the tallies.
        assert_eq!(env.gate_counts(), GateCounts::default());
        // A 1 km distance cap makes the distance gate fire too.
        let mut inst2 = trip_instance();
        inst2.trip = Some(TripConstraints {
            max_distance_km: Some(1.0),
            no_consecutive_same_theme: false,
        });
        let mut env2 = TppEnv::new(&inst2, &params);
        env2.reset(1);
        env2.valid_actions(&mut acts);
        assert!(env2.gate_counts().distance > 0);
        // Course instances gate nothing per-action.
        let course = course_instance();
        let cparams = course_params();
        let mut cenv = TppEnv::new(&course, &cparams);
        cenv.reset(0);
        cenv.valid_actions(&mut acts);
        let cg = cenv.gate_counts();
        assert_eq!(cg.rejected(), 0);
        assert_eq!(cg.checked, acts.len() as u64);
    }

    #[test]
    fn trip_restaurant_reward_respects_antecedent() {
        let inst = trip_instance();
        let mut params = PlannerParams::trip_defaults();
        params.epsilon = 1.0;
        let mut env = TppEnv::new(&inst, &params);
        // Start at Eiffel (no museum visited): Le Cinq gets reward 0.
        env.reset(0);
        assert_eq!(env.peek_reward(8), 0.0);
        // Start at the Louvre: Le Cinq's antecedent holds → positive.
        env.reset(1);
        assert!(env.peek_reward(8) > 0.0);
    }
}
