//! The naive reference engine, a test-only oracle for [`TppEnv`].
//!
//! [`NaiveEnv`] is the TPP CMDP written the direct way: the gate reads
//! each rule straight off the catalog's items, every leg is one
//! [`haversine_km`], and every reward is the unmodified
//! [`RewardModel::reward`] (full Eq. 6/7 prefix rescans through
//! [`crate::InterleavingKernel`], the antecedent gate through
//! [`tpp_model::PrereqExpr::satisfied_with_gap`]) over its own visited
//! set, positions, kind prefix and coverage. It shares no episode state
//! and none of the hoisted per-item or per-step terms with [`TppEnv`],
//! so the [`equivalence`] suite can pin the production engine to the
//! paper's semantics bit for bit.
//!
//! [`TppEnv`]: crate::TppEnv

use crate::env::{GateCounts, GateReject, CREDIT_EPS};
use crate::params::{PlannerParams, ShortlistMode};
use crate::planner::{learn_on, walk_greedy};
use crate::reward::RewardModel;
use std::cell::Cell;
use tpp_geo::{haversine_km, GeoPoint, GridIndex};
use tpp_model::{ItemId, ItemKind, Plan, PlanningInstance, TopicVector};
use tpp_rl::{Budget, Environment, QTable, StepOutcome, DENSE_AUTO_MAX};

mod equivalence;

/// The naive engine's own grid shortlist: a radius query around the
/// current item, gated nearest-first up to `top_k` passes.
struct Shortlist {
    grid: GridIndex<usize>,
    points: Vec<GeoPoint>,
    radius_km: f64,
    top_k: usize,
}

/// The naive TPP environment over one planning instance.
pub(crate) struct NaiveEnv<'a> {
    instance: &'a PlanningInstance,
    model: RewardModel,
    horizon: usize,
    gates: Cell<GateCounts>,
    shortlist: Option<Shortlist>,
    visited: Vec<bool>,
    positions: Vec<Option<usize>>,
    seq_kinds: Vec<ItemKind>,
    coverage: TopicVector,
    items: Vec<ItemId>,
    current: usize,
    elapsed_hours: f64,
    travelled_km: f64,
}

impl<'a> NaiveEnv<'a> {
    /// Builds the naive environment for `instance` under `params`,
    /// shortlisting exactly where [`crate::TppEnv::new`] does.
    pub(crate) fn new(instance: &'a PlanningInstance, params: &PlannerParams) -> Self {
        let n = instance.catalog.len();
        let wanted = match params.shortlist {
            ShortlistMode::Off => false,
            ShortlistMode::On => true,
            ShortlistMode::Auto => instance.is_trip() && n > DENSE_AUTO_MAX,
        };
        let points: Option<Vec<GeoPoint>> = instance
            .catalog
            .items()
            .iter()
            .map(|i| i.poi.map(|p| GeoPoint::new(p.lat, p.lon)))
            .collect();
        let shortlist = points
            .filter(|_| wanted && instance.is_trip())
            .and_then(|points| {
                Some(Shortlist {
                    grid: GridIndex::from_points(points.iter().copied().zip(0..))?,
                    points,
                    radius_km: params.shortlist_radius_km,
                    top_k: params.shortlist_top_k.max(1),
                })
            });
        NaiveEnv {
            instance,
            model: RewardModel::new(
                instance.soft.ideal_topics.clone(),
                instance.soft.templates.clone(),
                instance.hard.gap,
                params,
                instance.is_trip(),
            ),
            horizon: instance.horizon(),
            gates: Cell::new(GateCounts::default()),
            shortlist,
            visited: vec![false; n],
            positions: vec![None; n],
            seq_kinds: Vec::new(),
            coverage: instance.catalog.vocabulary().zero_vector(),
            items: Vec::new(),
            current: 0,
            elapsed_hours: 0.0,
            travelled_km: 0.0,
        }
    }

    /// The item sequence accumulated this episode.
    pub(crate) fn plan(&self) -> Plan {
        Plan::from_items(self.items.clone())
    }

    /// Marks `id` visited without seating it, as [`crate::TppEnv::exclude`].
    pub(crate) fn exclude(&mut self, id: ItemId) {
        if id.index() < self.visited.len() && id.index() != self.current {
            self.visited[id.index()] = true;
        }
    }

    /// Returns the accumulated gate tallies and resets them to zero.
    pub(crate) fn take_gate_counts(&self) -> GateCounts {
        self.gates.take()
    }

    fn leg_km(&self, from: usize, to: usize) -> f64 {
        let items = self.instance.catalog.items();
        let a = items[from].poi.expect("trip items carry POI attrs");
        let b = items[to].poi.expect("trip items carry POI attrs");
        haversine_km(a.lat, a.lon, b.lat, b.lon)
    }

    fn credits_exhausted(&self) -> bool {
        !self.instance.is_trip() && self.elapsed_hours >= self.instance.hard.credits - CREDIT_EPS
    }

    /// The hard constraints, in order: the `#cr` budget, then the trip
    /// theme gap, then the trip distance threshold.
    fn gate(&self, j: usize) -> Option<GateReject> {
        let item = &self.instance.catalog.items()[j];
        if self.elapsed_hours + item.credits > self.instance.hard.credits + CREDIT_EPS {
            return Some(GateReject::Credits);
        }
        let Some(trip) = &self.instance.trip else {
            return None;
        };
        if self.items.is_empty() {
            return None;
        }
        let cur = &self.instance.catalog.items()[self.current].topics;
        if trip.no_consecutive_same_theme && cur.intersection_count(&item.topics) > 0 {
            return Some(GateReject::ThemeGap);
        }
        if let Some(max_km) = trip.max_distance_km {
            if self.travelled_km + self.leg_km(self.current, j) > max_km + 1e-9 {
                return Some(GateReject::Distance);
            }
        }
        None
    }

    fn seat(&mut self, j: usize) {
        let item = &self.instance.catalog.items()[j];
        self.visited[j] = true;
        self.positions[j] = Some(self.items.len());
        self.seq_kinds.push(item.kind);
        self.coverage.union_with(&item.topics);
        self.items.push(item.id);
        self.elapsed_hours += item.credits;
        self.current = j;
    }
}

impl Environment for NaiveEnv<'_> {
    fn n_states(&self) -> usize {
        self.instance.catalog.len()
    }

    fn reset(&mut self, start: usize) {
        assert!(start < self.n_states(), "start {start} out of range");
        self.visited.fill(false);
        self.positions.fill(None);
        self.seq_kinds.clear();
        self.coverage.clear();
        self.items.clear();
        self.elapsed_hours = 0.0;
        self.travelled_km = 0.0;
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
        let mut g = self.gates.get();
        let unvisited: Vec<usize> = match &self.shortlist {
            Some(sl) => sl
                .grid
                .within_radius(&sl.points[self.current], sl.radius_km)
                .into_iter()
                .map(|(_, &j)| j)
                .filter(|&j| !self.visited[j])
                .collect(),
            None => (0..self.n_states()).filter(|&j| !self.visited[j]).collect(),
        };
        let cap = self.shortlist.as_ref().map_or(usize::MAX, |sl| sl.top_k);
        for j in unvisited {
            g.checked += 1;
            match self.gate(j) {
                None => {
                    buf.push(j);
                    if buf.len() >= cap {
                        break;
                    }
                }
                Some(reason) => g.bump(reason),
            }
        }
        buf.sort_unstable();
        self.gates.set(g);
    }

    fn step(&mut self, action: usize) -> StepOutcome {
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

    fn peek_reward(&self, action: usize) -> f64 {
        let item = &self.instance.catalog.items()[action];
        let pos_of = |id: ItemId| self.positions[id.index()];
        let prev = (!self.items.is_empty() && self.instance.is_trip())
            .then(|| &self.instance.catalog.items()[self.current].topics);
        self.model
            .reward(item, &self.seq_kinds, &self.coverage, &pos_of, prev)
    }
}

/// [`crate::RlPlanner::learn`]'s SARSA loop with the naive engine in it:
/// the learned Q-table.
pub(crate) fn learn_naive(
    instance: &PlanningInstance,
    params: &PlannerParams,
    seed: u64,
) -> QTable {
    let mut env = NaiveEnv::new(instance, params);
    let budget = Budget::unlimited();
    learn_on(&mut env, instance, params, seed, None, 0, &budget, |_| {
        Ok(())
    })
    .expect("checkpointing disabled; the sink cannot fail")
    .0
}

/// [`crate::RlPlanner::recommend_with_q`]'s greedy walk on the naive
/// engine.
pub(crate) fn recommend_naive(
    q: &QTable,
    instance: &PlanningInstance,
    params: &PlannerParams,
    start: ItemId,
) -> Plan {
    let mut env = NaiveEnv::new(instance, params);
    env.reset(start.index());
    walk_greedy(&mut env, q);
    env.plan()
}
