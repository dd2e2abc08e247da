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
use tpp_model::{ItemId, ItemKind, Plan, PlanningInstance, PrereqExpr};
use tpp_rl::{greedy_tie_scan, scan_greedy_ties, Environment, QTable, StepOutcome, DENSE_AUTO_MAX};

/// Float tolerance on the `#cr` budget boundary, shared by the
/// admission gate and the course termination check so the two can never
/// disagree about the boundary: an item is admitted iff
/// `elapsed + cr^m ≤ #cr + ε`, so `elapsed_hours` can never exceed
/// `#cr` by more than accumulated float error, and a course episode is
/// over once `elapsed ≥ #cr − ε`.
pub(crate) const CREDIT_EPS: f64 = 1e-9;

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
    /// Unvisited candidates examined by the gate (on the full scan, the
    /// popcount of the unvisited set).
    pub checked: u64,
    /// Rejections by the `#cr` budget.
    pub credits: u64,
    /// Rejections by the no-consecutive-same-theme rule.
    pub theme_gap: u64,
    /// Rejections by the distance threshold.
    pub distance: u64,
}

impl GateCounts {
    pub(crate) fn bump(&mut self, reason: GateReject) {
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
    /// One [`haversine_km`] per leg: course instances, POI-less items
    /// (rejected by [`PlanningInstance::validate`]), or an over-cap
    /// catalog with a shortlist, which probes only ~`top_k` legs a step.
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

/// How [`Environment::valid_actions`] finds its candidates. Each env
/// holds one, inline: boxing the larger variant would only add an
/// allocation to [`TppEnv::new`] and a load to every gate call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Scan<'a> {
    /// Every unvisited item, gated a word of 64 at a time.
    Full(FullScan),
    /// The grid shortlist around the current item, gated one at a time.
    Shortlist(Shortlist<'a>),
}

/// The catalog's per-item columns, copied once in [`TppEnv::new`] into
/// contiguous arrays so the gate and the reward peek read a few words
/// per candidate instead of a whole [`tpp_model::Item`].
#[derive(Debug, Clone)]
struct ItemTables<'a> {
    credits: Vec<f64>,
    kinds: Vec<ItemKind>,
    prereqs: Vec<&'a PrereqExpr>,
    /// Topic words, `words` per item ([`tpp_model::TopicVector::blocks`]).
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

/// Whether bit `j` of a `u64`-word bitset is set.
#[inline]
fn bit(words: &[u64], j: usize) -> bool {
    words[j / 64] >> (j % 64) & 1 != 0
}

#[inline]
fn set_bit(words: &mut [u64], j: usize) {
    words[j / 64] |= 1 << (j % 64);
}

#[inline]
fn clear_bit(words: &mut [u64], j: usize) {
    words[j / 64] &= !(1 << (j % 64));
}

/// The set bits of `word`, offset by `base`, in ascending order.
#[inline]
fn bits_of(mut word: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let j = base + word.trailing_zeros() as usize;
            word &= word - 1;
            j
        })
    })
}

/// The set bits of a `u64`-word bitset, in ascending order.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| bits_of(word, w * 64))
}

/// Calls `f` with the index of every antecedent leaf of `expr`.
fn each_antecedent(expr: &PrereqExpr, f: &mut impl FnMut(usize)) {
    match expr {
        PrereqExpr::None => {}
        PrereqExpr::Item(id) => f(id.index()),
        PrereqExpr::All(v) | PrereqExpr::Any(v) => v.iter().for_each(|e| each_antecedent(e, f)),
    }
}

/// The full scan's gate and reward state, kept current by [`TppEnv`]'s
/// `seat` so that [`Environment::valid_actions`] gates a word of 64
/// candidates at a time and [`Environment::greedy_ties`] picks by reward
/// level (DESIGN §11). Shortlisted envs carry none of it: their
/// per-step work stays proportional to the radius hits.
#[derive(Debug, Clone)]
struct FullScan {
    /// Item indices by descending credits; NaN credits, which the `#cr`
    /// gate never rejects, are left out.
    by_credits: Vec<usize>,
    /// How many of `by_credits` are retired this episode.
    cursor: usize,
    /// The items the `#cr` budget rejects, for the rest of the episode.
    retired: Vec<u64>,
    /// Per-topic item bitsets, one row of item words per topic; empty
    /// unless a theme rule applies.
    topic_items: Vec<u64>,
    /// The items sharing a theme with the current item: the OR of the
    /// `topic_items` rows of its topics. Empty unless a theme rule
    /// applies.
    clash: Vec<u64>,
    /// r2: the items whose antecedent expression holds at the env's
    /// `at_block`. Only gains bits within an episode.
    prereq_met: Vec<u64>,
    /// `prereq_met` before any antecedent is eligible.
    prereq_free: Vec<u64>,
    /// `(antecedent, dependent)` for every antecedent leaf, sorted: an
    /// item's dependents are one run of it.
    dependents: Vec<(usize, usize)>,
    /// Whether every item's type term is finite.
    finite_terms: bool,
    /// [`TppEnv::level_ties`]' candidate and θ masks and its top-level
    /// members, sized on the first pick.
    scratch: RefCell<(Vec<u64>, Vec<u64>, Vec<usize>)>,
}

impl FullScan {
    fn new(tables: &ItemTables<'_>, n_topics: usize, themed: bool) -> Self {
        let n = tables.credits.len();
        let item_words = n.div_ceil(64);
        let credits = &tables.credits;
        let mut by_credits: Vec<usize> = (0..n).filter(|&j| !credits[j].is_nan()).collect();
        by_credits.sort_unstable_by(|&a, &b| credits[b].total_cmp(&credits[a]));
        let mut topic_items = vec![0; if themed { n_topics * item_words } else { 0 }];
        let mut prereq_free = vec![0; item_words];
        let mut dependents = Vec::with_capacity(n);
        for (j, expr) in tables.prereqs.iter().enumerate() {
            if themed {
                for t in ones(tables.topics(j)) {
                    set_bit(&mut topic_items[t * item_words..], j);
                }
            }
            if expr.is_none() {
                set_bit(&mut prereq_free, j);
                continue;
            }
            if expr.holds(&|_| false) {
                set_bit(&mut prereq_free, j);
            }
            each_antecedent(expr, &mut |p| dependents.push((p, j)));
        }
        dependents.sort_unstable();
        FullScan {
            by_credits,
            cursor: 0,
            retired: vec![0; item_words],
            clash: vec![0; if themed { item_words } else { 0 }],
            topic_items,
            prereq_met: prereq_free.clone(),
            prereq_free,
            dependents,
            finite_terms: tables.type_term.iter().all(|t| t.is_finite()),
            scratch: RefCell::default(),
        }
    }

    /// Un-retires every item.
    fn restart(&mut self) {
        self.cursor = 0;
        self.retired.fill(0);
    }

    /// Adds to r2 every dependent of the `eligible` antecedents whose
    /// expression now holds over the seated blocks, the leaf
    /// [`TppEnv::prereq_holds`] walks.
    fn admit(
        &mut self,
        eligible: impl Iterator<Item = usize>,
        prereqs: &[&PrereqExpr],
        seated_block: &[usize],
        at_block: usize,
    ) {
        let leaf = |id: ItemId| seated_block[id.index()] < at_block;
        for p in eligible {
            let from = self.dependents.partition_point(|&(a, _)| a < p);
            for &(a, d) in &self.dependents[from..] {
                if a != p {
                    break;
                }
                if !bit(&self.prereq_met, d) && prereqs[d].holds(&leaf) {
                    set_bit(&mut self.prereq_met, d);
                }
            }
        }
    }

    /// Retires, in descending-credit order, every item the `#cr` gate
    /// rejects at `elapsed_hours`. The test is the gate's own float
    /// expression, monotone in both terms: while `elapsed_hours` does
    /// not fall, an item retired stays rejected, and the first item
    /// that passes means every lower-credit item passes too.
    fn retire(&mut self, elapsed_hours: f64, credits_admit_cap: f64, credits: &[f64]) {
        while let Some(&k) = self.by_credits.get(self.cursor) {
            if elapsed_hours + credits[k] > credits_admit_cap {
                set_bit(&mut self.retired, k);
                self.cursor += 1;
            } else {
                break;
            }
        }
    }

    /// Rebuilds `clash` for a current item with topic words `topics`.
    fn set_clash(&mut self, topics: &[u64]) {
        if self.clash.is_empty() {
            return;
        }
        let item_words = self.clash.len();
        self.clash.fill(0);
        for t in ones(topics) {
            let row = &self.topic_items[t * item_words..(t + 1) * item_words];
            for (c, m) in self.clash.iter_mut().zip(row) {
                *c |= m;
            }
        }
    }
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
    /// Whether the no-consecutive-theme rule applies.
    theme: bool,
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
    /// Where `valid_actions` finds its candidates.
    scan: Scan<'a>,
    /// `#cr + ε`, precomputed for the admission gate.
    credits_admit_cap: f64,
    /// `#cr − ε`, precomputed for the course termination check.
    credits_done_floor: f64,
    tables: ItemTables<'a>,
    // --- episode state ---
    /// The items neither seated nor excluded, one bit per item.
    unvisited: Vec<u64>,
    /// Incremental Eq. 6/7 prefix counters over the seated kinds.
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
        let dist = match geometry {
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
        let words = instance.catalog.vocabulary().zero_vector().blocks().len();
        let tables = ItemTables::new(instance, &model, words);
        let missing = model.ideal().blocks().to_vec();
        // The theme rules: the gate's, and r2's trip theme gap.
        let themed = instance
            .trip
            .as_ref()
            .is_some_and(|t| t.no_consecutive_same_theme || model.theme_gap());
        let credits_admit_cap = instance.hard.credits + CREDIT_EPS;
        let scan = match shortlist {
            Some(sl) => Scan::Shortlist(sl),
            None => {
                let n_topics = instance.catalog.vocabulary().len();
                let mut fs = FullScan::new(&tables, n_topics, themed);
                fs.retire(0.0, credits_admit_cap, &tables.credits);
                Scan::Full(fs)
            }
        };
        let mut env = TppEnv {
            instance,
            model,
            horizon: instance.horizon(),
            gates: Cell::new(GateCounts::default()),
            dist,
            scan,
            credits_admit_cap,
            credits_done_floor: instance.hard.credits - CREDIT_EPS,
            tables,
            unvisited: vec![0; n.div_ceil(64)],
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
        env.fill_unvisited();
        env.refresh_step_terms();
        env
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
        let j = id.index();
        if j < self.n_states() && j != self.current {
            clear_bit(&mut self.unvisited, j);
        }
    }

    /// Marks every item unvisited.
    fn fill_unvisited(&mut self) {
        let n = self.n_states();
        self.unvisited.fill(!0);
        if n % 64 != 0 {
            self.unvisited[n / 64] = (1 << (n % 64)) - 1;
        }
    }

    /// Whether item `j` shares a theme with the current item: a bit of
    /// the per-step clash mask on the full scan, a topic-word
    /// intersection on a shortlisted env.
    #[inline]
    fn shares_theme(&self, j: usize) -> bool {
        match &self.scan {
            Scan::Full(fs) if !fs.clash.is_empty() => bit(&fs.clash, j),
            _ => words_intersect(self.tables.topics(self.current), self.tables.topics(j)),
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
        clear_bit(&mut self.unvisited, j);
        self.seated_block[j] = self.model.block_of(pos);
        self.sim.push(item.kind);
        for (m, t) in self.missing.iter_mut().zip(self.tables.topics(j)) {
            *m &= !t;
        }
        self.items.push(item.id);
        let before = self.elapsed_hours;
        self.elapsed_hours += item.credits;
        self.current = j;
        let block = self.at_block;
        self.refresh_step_terms();
        if let Scan::Full(fs) = &mut self.scan {
            // Retirement holds only while `elapsed_hours` does not fall;
            // a negative or NaN credit (which `CatalogBuilder` rejects)
            // starts it over.
            if self.elapsed_hours < before || self.elapsed_hours.is_nan() {
                fs.restart();
            }
            fs.retire(
                self.elapsed_hours,
                self.credits_admit_cap,
                &self.tables.credits,
            );
            fs.set_clash(self.tables.topics(j));
            if self.at_block > block {
                // The items seated in the block just closed are the
                // antecedents that became eligible.
                let model = &self.model;
                let closed = (0..self.items.len())
                    .rev()
                    .take_while(|&p| model.block_of(p) == block)
                    .map(|p| self.items[p].index());
                fs.admit(
                    closed,
                    &self.tables.prereqs,
                    &self.seated_block,
                    self.at_block,
                );
            }
        }
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
            theme: trip.is_some_and(|t| t.no_consecutive_same_theme),
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
        if ctx.theme && self.shares_theme(j) {
            return Some(GateReject::ThemeGap);
        }
        if ctx.distance.as_ref().is_some_and(|d| self.too_far(j, d)) {
            return Some(GateReject::Distance);
        }
        None
    }

    /// The distance gate: whether the leg to `j` overruns the threshold.
    #[inline]
    fn too_far(&self, j: usize, (legs, travelled_km, limit): &(Legs<'_>, f64, f64)) -> bool {
        let leg = match legs {
            Legs::Row(row) => row[j],
            Legs::Probe => self.leg_km(self.current, j),
        };
        travelled_km + leg > *limit
    }

    /// Gates the unvisited candidates into `buf` — the whole catalog, or
    /// the grid shortlist around the current item — and tallies the
    /// rejections.
    fn scan(&self, buf: &mut Vec<usize>, ctx: &GateCtx<'_>) {
        let mut g = self.gates.get();
        match &self.scan {
            Scan::Shortlist(sl) => {
                // Grid-pruned shortlist: gate candidates nearest-first and
                // stop once `top_k` pass, then restore ascending index
                // order so downstream tie-breaking ("lower index wins")
                // keeps its meaning.
                let here = &sl.points[self.current];
                for (_, &j) in sl.grid.within_radius(here, sl.radius_km) {
                    if !bit(&self.unvisited, j) {
                        continue;
                    }
                    g.checked += 1;
                    match self.gate(j, ctx) {
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
            }
            Scan::Full(fs) => {
                // A word of 64 candidates at a time, in the gate's order:
                // the credit-retired bits, then the clash bits, are rejected
                // by popcount, and only the survivors pay the distance test.
                let clash = ctx.theme.then_some(fs.clash.as_slice());
                for (w, (&unvisited, &retired)) in
                    self.unvisited.iter().zip(&fs.retired).enumerate()
                {
                    g.checked += u64::from(unvisited.count_ones());
                    g.credits += u64::from((unvisited & retired).count_ones());
                    let mut live = unvisited & !retired;
                    if let Some(clash) = clash {
                        g.theme_gap += u64::from((live & clash[w]).count_ones());
                        live &= !clash[w];
                    }
                    for j in bits_of(live, w * 64) {
                        if ctx.distance.as_ref().is_some_and(|d| self.too_far(j, d)) {
                            g.distance += 1;
                        } else {
                            buf.push(j);
                        }
                    }
                }
            }
        }
        self.gates.set(g);
    }

    /// r1: the item's novel ideal gain reaches `min_gain`.
    fn covers(&self, j: usize) -> bool {
        let topics = self.tables.topics(j).iter().zip(&self.missing);
        let gain: u32 = topics.map(|(t, m)| (t & m).count_ones()).sum();
        gain >= self.model.min_gain()
    }

    /// r2 for a shortlisted env: the item's antecedent expression over
    /// the seated blocks.
    fn prereq_holds(&self, j: usize) -> bool {
        let (seated, at_block) = (&self.seated_block, self.at_block);
        self.tables.prereqs[j].holds(&|id: ItemId| seated[id.index()] < at_block)
    }

    /// Whether r2's trip theme gap zeroes the reward of an item sharing
    /// a theme with the current one.
    fn theme_gap_applies(&self) -> bool {
        self.model.theme_gap() && self.instance.is_trip() && !self.items.is_empty()
    }

    /// Eq. 2's value for an item that passes θ.
    #[inline]
    fn value(&self, j: usize) -> f64 {
        self.sim_term[kind_slot(self.tables.kinds[j])] + self.tables.type_term[j]
    }

    /// [`Environment::greedy_ties`] by reward level: the candidates that
    /// pass θ are those of `allowed ∧ r2 ∧ ¬clash` (the clash only while
    /// r2's theme gap applies) that pass r1, the rest sit on the zero
    /// level, and only the top level's members run [`greedy_tie_scan`]'s
    /// Q chain, in ascending index order.
    ///
    /// Writes `best` and returns `true` only when that provably equals
    /// the scan over every candidate (DESIGN §11): `allowed` is strictly
    /// ascending, every type term and similarity term is finite, the top
    /// level `t` is finite, and the next level `b` below it satisfies the
    /// scan's own `t > b + 1e-12` and `|b − t| > 1e-12`, so no lower
    /// candidate can displace or join a top one. Returns `false`, `best`
    /// untouched, otherwise.
    fn level_ties(
        &self,
        fs: &FullScan,
        q: &QTable,
        allowed: &[usize],
        best: &mut Vec<usize>,
    ) -> bool {
        if allowed.is_empty() || !fs.finite_terms || !self.sim_term.iter().all(|t| t.is_finite()) {
            return false;
        }
        let mut scratch = fs.scratch.borrow_mut();
        let (cand, theta, members) = &mut *scratch;
        cand.clear();
        cand.resize(self.unvisited.len(), 0);
        theta.resize(cand.len(), 0);
        let (mut word, mut acc, mut floor) = (0, 0u64, 0);
        for &a in allowed {
            if a < floor {
                return false;
            }
            floor = a + 1;
            if a / 64 != word {
                cand[word] = acc;
                (word, acc) = (a / 64, 0);
            }
            acc |= 1 << (a % 64);
        }
        cand[word] = acc;
        let clash = self.theme_gap_applies().then_some(fs.clash.as_slice());
        // The top level with its members, and the next level below it;
        // NEG_INFINITY means "none".
        let (mut top, mut next) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        members.clear();
        for (w, t) in theta.iter_mut().enumerate() {
            *t = 0;
            let live = cand[w] & fs.prereq_met[w] & !clash.map_or(0, |c| c[w]);
            for j in bits_of(live, w * 64).filter(|&j| self.covers(j)) {
                *t |= 1 << (j % 64);
                let v = self.value(j);
                if v > top {
                    (next, top) = (top, v);
                    members.clear();
                    members.push(j);
                } else if v == top {
                    members.push(j);
                } else if v > next {
                    next = v;
                }
            }
        }
        if cand.iter().zip(theta.iter()).any(|(c, t)| c & !t != 0) {
            if 0.0 < top {
                next = next.max(0.0);
            } else {
                // The zero level is the top: merge its members in.
                if 0.0 > top {
                    (next, top) = (top, 0.0);
                }
                members.clear();
                for (w, (&c, &t)) in cand.iter().zip(theta.iter()).enumerate() {
                    let zero = |j: usize| t >> (j % 64) & 1 == 0 || self.value(j) == 0.0;
                    members.extend(bits_of(c, w * 64).filter(|&j| zero(j)));
                }
            }
        }
        let separated =
            next == f64::NEG_INFINITY || top > next + 1e-12 && (next - top).abs() > 1e-12;
        if !top.is_finite() || !separated {
            return false;
        }
        greedy_tie_scan(q, self.current, members.iter().map(|&j| (j, top)), best);
        true
    }

    /// r2's bit for item `j` on the full scan; `None` on a shortlisted
    /// env.
    #[cfg(test)]
    pub(crate) fn prereq_met(&self, j: usize) -> Option<bool> {
        match &self.scan {
            Scan::Full(fs) => Some(bit(&fs.prereq_met, j)),
            Scan::Shortlist(_) => None,
        }
    }

    /// Whether [`TppEnv::level_ties`] answers for `allowed` (writing
    /// `best`) rather than leaving it to the scan.
    #[cfg(test)]
    pub(crate) fn picks_by_level(
        &self,
        q: &QTable,
        allowed: &[usize],
        best: &mut Vec<usize>,
    ) -> bool {
        match &self.scan {
            Scan::Full(fs) => self.level_ties(fs, q, allowed, best),
            Scan::Shortlist(_) => false,
        }
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
        self.fill_unvisited();
        if let Scan::Full(fs) = &mut self.scan {
            fs.restart();
            fs.prereq_met.copy_from_slice(&fs.prereq_free);
        }
        self.seated_block.fill(usize::MAX);
        self.sim.reset();
        self.items.clear();
        // `seat` admits the antecedents of the block it advances from.
        self.at_block = self.model.block_of(0);
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
        self.scan(buf, &self.gate_ctx());
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        debug_assert!(
            bit(&self.unvisited, action),
            "action {action} already visited"
        );
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

    /// Eq. 2 for appending `action`, doing only the candidate's share
    /// of the work: r1 is a popcount against the missing ideal topics,
    /// r2 a bit of the full scan's `prereq_met` (on a shortlisted env, a
    /// walk over the seated blocks), and the value is the per-step
    /// similarity term plus the per-item type term.
    fn peek_reward(&self, action: usize) -> f64 {
        let theta = self.covers(action)
            && match &self.scan {
                Scan::Full(fs) => bit(&fs.prereq_met, action),
                Scan::Shortlist(_) => self.prereq_holds(action),
            };
        if !theta || self.theme_gap_applies() && self.shares_theme(action) {
            return 0.0; // θ = r1 · r2 = 0
        }
        self.value(action)
    }

    /// On the full scan, the top reward level's ties
    /// ([`TppEnv::level_ties`]) whenever they provably equal the scan's;
    /// otherwise the scan over every candidate.
    fn greedy_ties(&self, q: &QTable, allowed: &[usize], best: &mut Vec<usize>) {
        let picked = match &self.scan {
            Scan::Full(fs) => self.level_ties(fs, q, allowed, best),
            Scan::Shortlist(_) => false,
        };
        if !picked {
            scan_greedy_ties(self, q, allowed, best);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tpp_model::toy;
    use tpp_model::TripConstraints;

    /// The Table II toy course instance.
    pub(crate) fn course_instance() -> PlanningInstance {
        PlanningInstance {
            catalog: toy::table2_catalog(),
            hard: toy::table2_hard(),
            soft: toy::table2_soft(),
            trip: None,
            default_start: Some(ItemId(0)),
        }
    }

    pub(crate) fn course_params() -> PlannerParams {
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

    /// The Paris toy trip instance.
    pub(crate) fn trip_instance() -> PlanningInstance {
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
    }

    #[test]
    fn shortlists_borrow_the_catalog_grid() {
        let inst = trip_instance();
        let mut params = PlannerParams::trip_defaults();
        params.shortlist = ShortlistMode::On;
        let grid = |env: &TppEnv<'_>| match &env.scan {
            Scan::Shortlist(sl) => sl.grid as *const _,
            Scan::Full(_) => panic!("shortlist on"),
        };
        let (a, b) = (TppEnv::new(&inst, &params), TppEnv::new(&inst, &params));
        assert!(std::ptr::eq(grid(&a), grid(&b)));
        assert!(std::ptr::eq(
            grid(&a),
            inst.catalog.geometry().unwrap().grid().unwrap()
        ));
    }

    #[test]
    fn only_full_scans_carry_the_bitset_gate_state() {
        // City scale stays flat: a shortlisted city-10k env gates ~the
        // radius hits per step, so it keeps no credit order, no topic
        // masks, no clash mask, no r2 mask and no dependents index that
        // `seat` would maintain in O(n), and it picks its greedy action
        // by the scan.
        let city = tpp_datagen::city_10k(tpp_datagen::defaults::CITY_SEED);
        let params = PlannerParams::trip_defaults();
        assert_eq!(params.shortlist, ShortlistMode::Auto);
        let mut env = TppEnv::new(&city.instance, &params);
        assert!(
            matches!(env.scan, Scan::Shortlist(_)),
            "city-10k shortlists"
        );
        env.reset(0);
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        assert!(!acts.is_empty());
        let q = QTable::for_catalog(city.instance.catalog.len());
        let mut best = Vec::new();
        assert_eq!(env.prereq_met(acts[0]), None);
        assert!(!env.picks_by_level(&q, &acts, &mut best));
        // A full-scan trip env orders every item by credits, builds the
        // clash mask its theme rules read and indexes every antecedent's
        // dependents.
        let inst = trip_instance();
        let n = inst.catalog.len();
        let env = TppEnv::new(&inst, &params);
        let Scan::Full(fs) = &env.scan else {
            panic!("the Paris toy takes the full scan")
        };
        assert_eq!(fs.by_credits.len(), n);
        assert_eq!(fs.clash.len(), n.div_ceil(64));
        let refs: usize = inst
            .catalog
            .items()
            .iter()
            .map(|i| i.prereq.referenced_items().len())
            .sum();
        assert!(refs > 0);
        assert_eq!(fs.dependents.len(), refs);
        // A course catalog has no theme rule: no topic or clash masks.
        let course = course_instance();
        let env = TppEnv::new(&course, &course_params());
        let Scan::Full(fs) = &env.scan else {
            panic!("course catalogs take the full scan")
        };
        assert!(fs.topic_items.is_empty() && fs.clash.is_empty());
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
