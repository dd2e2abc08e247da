//! Golden equivalence suite: the incremental hot-path engine (distance
//! matrix, `SimTracker` prefix counters, per-item tables, per-step
//! reward terms) must be **bit-identical** to the naive engine (full
//! Eq. 6/7 prefix rescans, per-probe haversine) on every benchmark
//! dataset.
//!
//! Three layers of pinning:
//!
//! 1. A lockstep environment walk: at every step the two engines must
//!    agree on the valid-action set and on `peek_reward` for **every**
//!    candidate (compared via `f64::to_bits`, not a tolerance).
//! 2. Full `learn()` + `recommend()`: same seed → identical Q tables,
//!    identical recommended plans, identical scores.
//! 3. Seeded random walks under parameter variants that stress each
//!    hoisted term of the fast path (the r1 threshold, the per-step
//!    similarity terms, the seated blocks, the per-item type terms):
//!    same valid sets, same gate tallies, same peeked rewards.
//!
//! If these ever diverge, the incremental engine has drifted from the
//! paper's reward semantics — the naive path is the specification.

use tpp_core::{
    score_plan, PlannerParams, QReprMode, RlPlanner, ShortlistMode, SimAggregate, StartPolicy,
    TppEnv, TypeWeights,
};
use tpp_datagen::defaults::{CITY_SEED, NYC_SEED, PARIS_SEED, UNIV1_SEED, UNIV2_SEED};
use tpp_model::PlanningInstance;
use tpp_rl::{Environment, TrainRng};

/// The four benchmark datasets, with training budgets trimmed so the
/// suite stays in CI-smoke territory (equivalence holds per step, so
/// episode count only affects coverage, not the property).
fn datasets() -> Vec<(&'static str, PlanningInstance, PlannerParams)> {
    let mut univ1 = PlannerParams::univ1_defaults();
    univ1.episodes = 40;
    let mut univ2 = PlannerParams::univ2_defaults();
    univ2.episodes = 20;
    let mut trip = PlannerParams::trip_defaults();
    trip.episodes = 15;
    vec![
        ("ds-ct", tpp_datagen::univ1_ds_ct(UNIV1_SEED), univ1),
        ("univ2", tpp_datagen::univ2_ds(UNIV2_SEED), univ2),
        ("nyc", tpp_datagen::nyc(NYC_SEED).instance, trip.clone()),
        ("paris", tpp_datagen::paris(PARIS_SEED).instance, trip),
    ]
}

fn start_of(instance: &PlanningInstance) -> usize {
    instance.default_start.map(|id| id.0 as usize).unwrap_or(0)
}

/// Walks both engines in lockstep along the reward-greedy trajectory,
/// asserting bit-identical gates and rewards at every step.
#[test]
fn lockstep_walk_is_bit_identical_on_all_datasets() {
    for (name, instance, params) in datasets() {
        let naive_params = params.clone().with_naive_hot_path(true);
        let mut fast = TppEnv::new(&instance, &params);
        let mut naive = TppEnv::new(&instance, &naive_params);
        let start = start_of(&instance);
        fast.reset(start);
        naive.reset(start);
        let (mut fa, mut na) = (Vec::new(), Vec::new());
        let mut steps = 0usize;
        loop {
            fast.valid_actions(&mut fa);
            naive.valid_actions(&mut na);
            assert_eq!(fa, na, "{name}: valid sets diverge at step {steps}");
            if fa.is_empty() {
                break;
            }
            // Every candidate's peeked reward must match bit-for-bit,
            // and the greedy argmax drives the walk.
            let mut best = (fa[0], f64::NEG_INFINITY);
            for &cand in &fa {
                let rf = fast.peek_reward(cand);
                let rn = naive.peek_reward(cand);
                assert_eq!(
                    rf.to_bits(),
                    rn.to_bits(),
                    "{name}: peek_reward({cand}) diverges at step {steps}: {rf} vs {rn}"
                );
                if rf > best.1 {
                    best = (cand, rf);
                }
            }
            let of = fast.step(best.0);
            let on = naive.step(best.0);
            assert_eq!(
                of.reward.to_bits(),
                on.reward.to_bits(),
                "{name}: step reward diverges at step {steps}"
            );
            assert_eq!(of.done, on.done, "{name}: termination diverges");
            steps += 1;
            if of.done {
                break;
            }
        }
        assert!(steps > 0, "{name}: walk never advanced");
        assert_eq!(
            fast.plan().items(),
            naive.plan().items(),
            "{name}: plans diverge"
        );
    }
}

/// The dense-vs-sparse battery: the four benchmark datasets plus a
/// seeded 1k-POI city catalog. The city instance is the one the sparse
/// representation exists for; at 1 000 items it still fits a dense
/// table, which is exactly what makes the bit-identity provable.
fn repr_datasets() -> Vec<(&'static str, PlanningInstance, PlannerParams)> {
    let mut out = datasets();
    let city = tpp_datagen::city_1k(CITY_SEED);
    // The generator promises a known-feasible gold plan; pin that here
    // so a scoring regression can't hide behind representation noise.
    assert!(
        score_plan(&city.instance, &city.gold) > 0.0,
        "city-1k gold plan must score positive"
    );
    let mut trip = PlannerParams::trip_defaults();
    trip.episodes = 8;
    out.push(("city-1k", city.instance, trip));
    out
}

/// Walks a dense-Q-configured environment and a sparse-Q-configured one
/// in lockstep. The representation knob must be invisible to the
/// environment: valid sets and peeked rewards bit-identical at every
/// step. Shortlisting is pinned off on both sides — it is a documented
/// approximation, not an equivalence.
#[test]
fn lockstep_walk_is_repr_independent() {
    for (name, instance, params) in repr_datasets() {
        let dense_params = params
            .clone()
            .with_q_repr(QReprMode::Dense)
            .with_shortlist(ShortlistMode::Off);
        let sparse_params = params
            .with_q_repr(QReprMode::Sparse)
            .with_shortlist(ShortlistMode::Off);
        let mut dense = TppEnv::new(&instance, &dense_params);
        let mut sparse = TppEnv::new(&instance, &sparse_params);
        let start = start_of(&instance);
        dense.reset(start);
        sparse.reset(start);
        let (mut da, mut sa) = (Vec::new(), Vec::new());
        let mut steps = 0usize;
        loop {
            dense.valid_actions(&mut da);
            sparse.valid_actions(&mut sa);
            assert_eq!(da, sa, "{name}: valid sets diverge at step {steps}");
            if da.is_empty() {
                break;
            }
            let mut best = (da[0], f64::NEG_INFINITY);
            for &cand in &da {
                let rd = dense.peek_reward(cand);
                let rs = sparse.peek_reward(cand);
                assert_eq!(
                    rd.to_bits(),
                    rs.to_bits(),
                    "{name}: peek_reward({cand}) diverges at step {steps}"
                );
                if rd > best.1 {
                    best = (cand, rd);
                }
            }
            let od = dense.step(best.0);
            let os = sparse.step(best.0);
            assert_eq!(
                od.reward.to_bits(),
                os.reward.to_bits(),
                "{name}: step reward diverges at step {steps}"
            );
            assert_eq!(od.done, os.done, "{name}: termination diverges");
            steps += 1;
            if od.done {
                break;
            }
        }
        assert!(steps > 0, "{name}: walk never advanced");
        assert_eq!(
            dense.plan().items(),
            sparse.plan().items(),
            "{name}: plans diverge"
        );
    }
}

/// Full training runs under `QReprMode::Dense` vs `QReprMode::Sparse`:
/// every Q lookup, the recommended plan, and its score must be
/// bit-identical — the sparse table is a storage change, not a policy
/// change.
#[test]
fn training_is_bit_identical_dense_vs_sparse() {
    for (name, instance, params) in repr_datasets() {
        let start = instance.default_start.unwrap_or(tpp_model::ItemId(0));
        let base = params.with_start(start).with_shortlist(ShortlistMode::Off);
        let dense_params = base.clone().with_q_repr(QReprMode::Dense);
        let sparse_params = base.with_q_repr(QReprMode::Sparse);
        for seed in [0u64, 7] {
            let (dense_policy, _) = RlPlanner::learn(&instance, &dense_params, seed);
            let (sparse_policy, _) = RlPlanner::learn(&instance, &sparse_params, seed);
            assert!(!dense_policy.q.is_sparse(), "{name}: Dense mode not dense");
            assert!(
                sparse_policy.q.is_sparse(),
                "{name}: Sparse mode not sparse"
            );
            // Every materialized sparse entry matches the dense cell
            // bit-for-bit...
            for (s, a, v) in sparse_policy.q.iter_set() {
                assert_eq!(
                    v.to_bits(),
                    dense_policy.q.get(s, a).to_bits(),
                    "{name} seed {seed}: Q({s},{a}) diverges"
                );
            }
            // ...and every dense non-zero cell is materialized, so the
            // two tables agree on *all* n² lookups, not just the
            // sparse support.
            for (s, a, v) in dense_policy.q.iter_set() {
                if v != 0.0 {
                    assert_eq!(
                        v.to_bits(),
                        sparse_policy.q.get(s, a).to_bits(),
                        "{name} seed {seed}: dense Q({s},{a}) missing from sparse"
                    );
                }
            }
            let dense_plan = RlPlanner::recommend(&dense_policy, &instance, &dense_params, start);
            let sparse_plan =
                RlPlanner::recommend(&sparse_policy, &instance, &sparse_params, start);
            assert_eq!(
                dense_plan.items(),
                sparse_plan.items(),
                "{name} seed {seed}: recommended plans diverge"
            );
            assert_eq!(
                score_plan(&instance, &dense_plan).to_bits(),
                score_plan(&instance, &sparse_plan).to_bits(),
                "{name} seed {seed}: scores diverge"
            );
        }
    }
}

/// Full training runs: the learned Q table, recommended plan, and score
/// must be identical for the naive and incremental engines under the
/// same seed.
#[test]
fn training_is_bit_identical_on_all_datasets() {
    for (name, instance, params) in datasets() {
        let start = instance.default_start.unwrap_or(tpp_model::ItemId(0));
        let params = params.with_start(start);
        let naive_params = params.clone().with_naive_hot_path(true);
        assert_eq!(params.start, StartPolicy::Fixed(start));
        for seed in [0u64, 7] {
            let (fast_policy, _) = RlPlanner::learn(&instance, &params, seed);
            let (naive_policy, _) = RlPlanner::learn(&instance, &naive_params, seed);
            let fast_q = fast_policy.q.values();
            let naive_q = naive_policy.q.values();
            assert_eq!(fast_q.len(), naive_q.len());
            let diverged = fast_q
                .iter()
                .zip(naive_q)
                .position(|(a, b)| a.to_bits() != b.to_bits());
            assert_eq!(
                diverged, None,
                "{name} seed {seed}: Q tables diverge at flat index {diverged:?}"
            );
            let fast_plan = RlPlanner::recommend(&fast_policy, &instance, &params, start);
            let naive_plan = RlPlanner::recommend(&naive_policy, &instance, &naive_params, start);
            assert_eq!(
                fast_plan.items(),
                naive_plan.items(),
                "{name} seed {seed}: recommended plans diverge"
            );
            let fast_score = score_plan(&instance, &fast_plan);
            let naive_score = score_plan(&instance, &naive_plan);
            assert_eq!(
                fast_score.to_bits(),
                naive_score.to_bits(),
                "{name} seed {seed}: scores diverge"
            );
        }
    }
}

/// Walks the fast and naive engines in lockstep from the default start
/// and two seeded random starts, taking a seeded random valid action at
/// every step, so the walk reaches states the reward-greedy path never
/// does. At every step the valid sets, the gate tallies and every
/// candidate's peeked reward must agree to the bit.
fn random_walk_lockstep(
    label: &str,
    instance: &PlanningInstance,
    params: &PlannerParams,
    seed: u64,
) {
    let naive_params = params.clone().with_naive_hot_path(true);
    let mut fast = TppEnv::new(instance, params);
    let mut naive = TppEnv::new(instance, &naive_params);
    let mut rng = TrainRng::seed_from_u64(seed);
    let n = instance.catalog.len();
    let starts = [start_of(instance), rng.index(n), rng.index(n)];
    let (mut fa, mut na) = (Vec::new(), Vec::new());
    for start in starts {
        fast.reset(start);
        naive.reset(start);
        for step in 0.. {
            fast.valid_actions(&mut fa);
            naive.valid_actions(&mut na);
            assert_eq!(
                fa, na,
                "{label} start {start}: valid sets diverge at step {step}"
            );
            assert_eq!(
                fast.take_gate_counts(),
                naive.take_gate_counts(),
                "{label} start {start}: gate tallies diverge at step {step}"
            );
            if fa.is_empty() {
                break;
            }
            for &cand in &fa {
                let (rf, rn) = (fast.peek_reward(cand), naive.peek_reward(cand));
                assert_eq!(
                    rf.to_bits(),
                    rn.to_bits(),
                    "{label} start {start}: peek_reward({cand}) diverges at step {step}: {rf} vs {rn}"
                );
            }
            let a = fa[rng.index(fa.len())];
            let (of, on) = (fast.step(a), naive.step(a));
            assert_eq!(
                of.reward.to_bits(),
                on.reward.to_bits(),
                "{label}: step reward"
            );
            assert_eq!(of.done, on.done, "{label}: termination diverges");
            if of.done {
                break;
            }
        }
        assert_eq!(
            fast.plan().items(),
            naive.plan().items(),
            "{label}: plans diverge"
        );
    }
}

/// Parameter variants for [`random_walk_lockstep`], one per hoisted
/// term: ε at every r1 boundary `k/|T_ideal|` and at whole counts
/// (`min_gain`), the Minimum aggregate (the per-step similarity terms),
/// gap 1–4 (the seated and current blocks), and category weights (the
/// per-item type terms), plus all of them at once.
fn variants(
    instance: &PlanningInstance,
    params: &PlannerParams,
) -> Vec<(String, PlanningInstance, PlannerParams)> {
    let with = |f: &dyn Fn(&mut PlannerParams)| {
        let mut p = params.clone();
        f(&mut p);
        p
    };
    let mut out = vec![("base".to_owned(), instance.clone(), params.clone())];
    let ideal = instance.soft.ideal_topics.count_ones().max(1);
    for k in 0..=ideal {
        let epsilon = f64::from(k) / f64::from(ideal);
        out.push((
            format!("epsilon {k}/{ideal}"),
            instance.clone(),
            with(&|p| p.epsilon = epsilon),
        ));
    }
    for epsilon in [1.0, 2.0, 3.0] {
        out.push((
            format!("epsilon {epsilon}"),
            instance.clone(),
            with(&|p| p.epsilon = epsilon),
        ));
    }
    out.push((
        "min aggregate".to_owned(),
        instance.clone(),
        with(&|p| p.sim = SimAggregate::Minimum),
    ));
    for gap in 1..=4 {
        let mut inst = instance.clone();
        inst.hard.gap = gap;
        out.push((format!("gap {gap}"), inst, params.clone()));
    }
    let categories = TypeWeights::Categories(vec![0.5, 0.2, 0.3]);
    out.push((
        "category weights".to_owned(),
        instance.clone(),
        with(&|p| p.weights = categories.clone()),
    ));
    let mut inst = instance.clone();
    inst.hard.gap = 2;
    out.push((
        "all at once".to_owned(),
        inst,
        with(&|p| {
            p.epsilon = 1.0 / f64::from(ideal);
            p.sim = SimAggregate::Minimum;
            p.weights = categories.clone();
        }),
    ));
    out
}

/// The four benchmark datasets and a synthetic catalog, under every
/// variant.
#[test]
fn random_walks_are_bit_identical_under_hoisted_term_variants() {
    let mut sets = datasets();
    let synthetic = tpp_datagen::synthetic_course_instance(
        &tpp_datagen::SyntheticConfig::sized(60),
        UNIV1_SEED,
    );
    sets.push(("synthetic", synthetic, PlannerParams::univ1_defaults()));
    for (name, instance, params) in sets {
        for (i, (variant, inst, p)) in variants(&instance, &params).into_iter().enumerate() {
            random_walk_lockstep(&format!("{name} / {variant}"), &inst, &p, i as u64);
        }
    }
}

/// The grid shortlist gates candidates through the same gate as the full
/// scan; walk it on Paris and on a 1k-POI city catalog.
#[test]
fn random_walks_are_bit_identical_on_the_shortlist_path() {
    let paris = tpp_datagen::paris(PARIS_SEED).instance;
    let city = tpp_datagen::city_1k(CITY_SEED).instance;
    let params = PlannerParams::trip_defaults().with_shortlist(ShortlistMode::On);
    for (name, instance) in [("paris", paris), ("city-1k", city)] {
        for seed in 0..3 {
            random_walk_lockstep(&format!("{name} shortlist"), &instance, &params, seed);
        }
    }
}
