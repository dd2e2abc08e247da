//! Golden equivalence suite: the production engine, [`TppEnv`] (distance
//! matrix, `SimTracker` prefix counters, per-item tables, per-step
//! reward terms), must be **bit-identical** to the naive oracle,
//! [`NaiveEnv`] (full Eq. 6/7 prefix rescans, per-probe haversine), on
//! every benchmark dataset.
//!
//! Three layers of pinning:
//!
//! 1. A lockstep environment walk: at every step the two engines must
//!    agree on the valid-action set and on `peek_reward` for **every**
//!    candidate (compared via `f64::to_bits`, not a tolerance).
//! 2. Full `learn()` + `recommend()`, with the same SARSA loop and
//!    greedy walk driving either engine: same seed → identical Q tables,
//!    identical recommended plans, identical scores.
//! 3. Seeded random walks under parameter variants that stress each
//!    hoisted term of the fast path (the r1 threshold, the per-step
//!    similarity terms, the seated blocks, the per-item type terms):
//!    same valid sets, same gate tallies, same peeked rewards.
//!
//! If these ever diverge, the incremental engine has drifted from the
//! paper's reward semantics — the naive path is the specification.

use super::{learn_naive, recommend_naive, NaiveEnv};
use crate::{
    score_plan, PlannerParams, QReprMode, RlPlanner, ShortlistMode, SimAggregate, StartPolicy,
    TppEnv, TypeWeights,
};
use tpp_datagen::defaults::{CITY_SEED, NYC_SEED, PARIS_SEED, UNIV1_SEED, UNIV2_SEED};
use tpp_model::{ItemId, PlanningInstance};
use tpp_rl::{Environment, QTable, TrainRng};

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
        let mut fast = TppEnv::new(&instance, &params);
        let mut naive = NaiveEnv::new(&instance, &params);
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
        assert_eq!(params.start, StartPolicy::Fixed(start));
        for seed in [0u64, 7] {
            let (fast_policy, _) = RlPlanner::learn(&instance, &params, seed);
            let naive_table = learn_naive(&instance, &params, seed);
            let fast_q = fast_policy.q.values();
            let naive_q = naive_table.values();
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
            let naive_plan = recommend_naive(&naive_table, &instance, &params, start);
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
    random_walk_lockstep_excluding(label, instance, params, seed, &[]);
}

/// [`random_walk_lockstep`] with `banned` excluded from every episode
/// right after the reset, as the feedback loop does.
fn random_walk_lockstep_excluding(
    label: &str,
    instance: &PlanningInstance,
    params: &PlannerParams,
    seed: u64,
    banned: &[ItemId],
) {
    let mut fast = TppEnv::new(instance, params);
    let mut naive = NaiveEnv::new(instance, params);
    let mut rng = TrainRng::seed_from_u64(seed);
    let n = instance.catalog.len();
    let starts = [start_of(instance), rng.index(n), rng.index(n)];
    let (mut fa, mut na) = (Vec::new(), Vec::new());
    for start in starts {
        fast.reset(start);
        naive.reset(start);
        for &id in banned {
            fast.exclude(id);
            naive.exclude(id);
        }
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
/// scan; walk it on Paris, on a 1k-POI city catalog, and on a 1 100-POI
/// one past [`tpp_geo::DistanceMatrix::DEFAULT_CAP`], whose shortlist
/// takes direct haversine legs.
#[test]
fn random_walks_are_bit_identical_on_the_shortlist_path() {
    let paris = tpp_datagen::paris(PARIS_SEED).instance;
    let city = tpp_datagen::city_1k(CITY_SEED).instance;
    let over_cap = tpp_datagen::city(1_100, CITY_SEED).instance;
    let params = PlannerParams::trip_defaults().with_shortlist(ShortlistMode::On);
    for (name, instance) in [("paris", paris), ("city-1k", city), ("city-1100", over_cap)] {
        for seed in 0..3 {
            random_walk_lockstep(&format!("{name} shortlist"), &instance, &params, seed);
        }
    }
}

/// The full scan past [`tpp_geo::DistanceMatrix::DEFAULT_CAP`]: a
/// 1 100-POI city catalog reads its legs from the env's lazily rebuilt
/// rows, the naive engine from one haversine per leg.
#[test]
fn random_walks_are_bit_identical_on_lazy_rows() {
    let city = tpp_datagen::city(1_100, CITY_SEED).instance;
    assert!(city.catalog.len() > tpp_geo::DistanceMatrix::DEFAULT_CAP);
    let params = PlannerParams::trip_defaults().with_shortlist(ShortlistMode::Off);
    for seed in 0..3 {
        random_walk_lockstep("city-1100 full scan", &city, &params, seed);
    }
}

/// The feedback loop's path: a few items excluded after every reset.
#[test]
fn random_walks_are_bit_identical_after_exclusions() {
    let mut univ1 = PlannerParams::univ1_defaults();
    univ1.episodes = 40;
    let sets = [
        ("ds-ct", tpp_datagen::univ1_ds_ct(UNIV1_SEED), univ1),
        (
            "paris",
            tpp_datagen::paris(PARIS_SEED).instance,
            PlannerParams::trip_defaults(),
        ),
    ];
    for (name, instance, params) in sets {
        let n = instance.catalog.len();
        let banned: Vec<ItemId> = [1, n / 3, n / 2, n - 1]
            .into_iter()
            .map(|i| ItemId(i as u32))
            .collect();
        for seed in 0..3 {
            random_walk_lockstep_excluding(
                &format!("{name} excluding {banned:?}"),
                &instance,
                &params,
                seed,
                &banned,
            );
        }
    }
}

/// The course and trip toys of `tpp_model::toy`, walked in lockstep
/// along the first valid action: same valid sets, bit-identical rewards
/// at every step.
#[test]
fn toy_instances_walk_in_lockstep() {
    use crate::env::tests::{course_instance, course_params, trip_instance};
    for inst in [course_instance(), trip_instance()] {
        let params = if inst.is_trip() {
            PlannerParams::trip_defaults()
        } else {
            course_params()
        };
        let mut fast = TppEnv::new(&inst, &params);
        let mut naive = NaiveEnv::new(&inst, &params);
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

/// A course catalog of `n` items with tied, fractional credits and a few
/// 12-credit capstones under `#cr = 12`: the credit cursor retires
/// items across several bitset words, ties and float sums included.
fn mixed_credit_course(n: usize) -> PlanningInstance {
    use tpp_model::{CatalogBuilder, HardConstraints, ItemKind, SoftConstraints, TemplateSet};
    let names: Vec<String> = (0..12).map(|t| format!("t{t}")).collect();
    let credits = [3.0, 4.0, 2.0, 3.0, 1.1, 2.2, 3.3, 4.0, 0.5, 3.0];
    let mut b = CatalogBuilder::new("mixed-credits-large").topics(names.iter().cloned());
    for i in 0..n {
        let kind = if i % 2 == 0 {
            ItemKind::Primary
        } else {
            ItemKind::Secondary
        };
        let cr = if i % 29 == 7 {
            12.0
        } else {
            credits[i % credits.len()]
        };
        let topics = [names[i % 12].as_str(), names[(i * 5 + 3) % 12].as_str()];
        b = b.course(format!("C{i}"), format!("Course {i}"), kind, cr, &topics);
    }
    let hard = HardConstraints {
        credits: 12.0,
        n_primary: 3,
        n_secondary: 3,
        gap: 1,
    };
    let soft = SoftConstraints::new(
        tpp_model::TopicVector::ones(12),
        TemplateSet::from_strs(&["PSPSPS", "PPPSSS"]).unwrap(),
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

/// Catalogs sized on the bitset word boundaries (63, 64, 65 and 128
/// items) and a 130-item mixed-credit catalog: the unvisited and
/// credit-retired words and the credit cursor gate exactly as the
/// oracle does, tallies included.
#[test]
fn random_walks_are_bit_identical_across_word_boundaries() {
    for n in [63, 64, 65, 128] {
        let config = tpp_datagen::SyntheticConfig::sized(n);
        let instance = tpp_datagen::synthetic_course_instance(&config, UNIV1_SEED);
        let params = PlannerParams::univ1_defaults();
        for seed in 0..3 {
            random_walk_lockstep(&format!("synthetic-{n}"), &instance, &params, seed);
        }
    }
    let mixed = mixed_credit_course(130);
    let mut params = PlannerParams::univ1_defaults();
    params.epsilon = 0.0;
    for seed in 0..6 {
        random_walk_lockstep("mixed credits", &mixed, &params, seed);
    }
}

/// An excluded item that the `#cr` budget has already retired is
/// neither checked nor rejected: it leaves the candidates once.
#[test]
fn excluding_a_credit_retired_item_is_bit_identical() {
    let instance = mixed_credit_course(130);
    let items = instance.catalog.items();
    let capstone = items.iter().position(|i| i.credits == 12.0).unwrap();
    let cheapest = items
        .iter()
        .map(|i| i.credits)
        .fold(f64::INFINITY, f64::min);
    // Retired by credits from every start but itself.
    assert!(cheapest + 12.0 > instance.hard.credits + crate::env::CREDIT_EPS);
    let mut params = PlannerParams::univ1_defaults();
    params.epsilon = 0.0;
    let banned = [ItemId(capstone as u32), ItemId(1), ItemId(64)];
    for seed in 0..6 {
        random_walk_lockstep_excluding(
            "mixed credits excluding a capstone",
            &instance,
            &params,
            seed,
            &banned,
        );
    }
}

/// `Catalog::new` and deserialized catalogs admit negative credits
/// (only `CatalogBuilder` rejects them), so a seat can lower `elapsed`
/// and make retired items admissible again: the credit cursor starts
/// over.
#[test]
fn negative_credits_are_bit_identical() {
    let mut instance = mixed_credit_course(130);
    let items = instance
        .catalog
        .items()
        .iter()
        .cloned()
        .map(|mut item| {
            if item.id.index() % 4 == 1 {
                item.credits = -2.5;
            }
            item
        })
        .collect();
    let vocabulary = instance.catalog.vocabulary().clone();
    instance.catalog = tpp_model::Catalog::new("negative-credits", vocabulary, items).unwrap();
    let mut params = PlannerParams::univ1_defaults();
    params.epsilon = 0.0;
    for seed in 0..6 {
        random_walk_lockstep("negative credits", &instance, &params, seed);
    }
}

/// A hand-built trip catalog of 70 themes whose POIs' themes straddle
/// bit 64, where the topic vectors cross into their second word.
fn straddling_theme_trip() -> PlanningInstance {
    use tpp_model::{
        CatalogBuilder, HardConstraints, ItemKind, SoftConstraints, TemplateSet, TopicVector,
        TripConstraints,
    };
    let themes: Vec<String> = (0..70).map(|t| format!("theme{t}")).collect();
    let mut b = CatalogBuilder::new("straddle").topics(themes.iter().cloned());
    for i in 0..24 {
        let kind = if i % 3 == 0 {
            ItemKind::Primary
        } else {
            ItemKind::Secondary
        };
        // Themes 61..=67 sit on both sides of bit 64.
        let near = themes[61 + i % 7].as_str();
        let far = themes[61 + (i * 3 + 2) % 7].as_str();
        let low = themes[i % 4].as_str();
        let picked: Vec<&str> = match i % 3 {
            0 => vec![near],
            1 => vec![near, far],
            _ => vec![low, far],
        };
        b = b.poi(
            format!("P{i}"),
            format!("POI {i}"),
            kind,
            [0.5, 1.0, 1.5][i % 3],
            &picked,
            48.85 + 0.004 * (i % 5) as f64,
            2.33 + 0.005 * (i / 5) as f64,
            1.0 + (i % 5) as f64,
        );
    }
    let hard = HardConstraints {
        credits: 6.0,
        n_primary: 2,
        n_secondary: 4,
        gap: 1,
    };
    let soft = SoftConstraints::new(
        TopicVector::ones(70),
        TemplateSet::from_strs(&["PSPSSS", "PSSSPS"]).unwrap(),
        &hard,
    )
    .unwrap();
    PlanningInstance {
        catalog: b.build().unwrap(),
        hard,
        soft,
        trip: Some(TripConstraints {
            max_distance_km: Some(2.0),
            no_consecutive_same_theme: true,
        }),
        default_start: Some(ItemId(0)),
    }
}

/// The clash mask across two topic words, with the theme rule and r2's
/// theme gap (on for every trip instance) both reading it: from every
/// start the gate and every peeked reward agree with the oracle, then
/// random walks do.
#[test]
fn theme_clashes_across_topic_words_are_bit_identical() {
    let instance = straddling_theme_trip();
    assert_eq!(instance.catalog.vocabulary().len(), 70);
    let params = PlannerParams::trip_defaults();
    let mut fast = TppEnv::new(&instance, &params);
    let mut naive = NaiveEnv::new(&instance, &params);
    let (mut fa, mut na) = (Vec::new(), Vec::new());
    let mut theme_gap = 0;
    for start in 0..instance.catalog.len() {
        fast.reset(start);
        naive.reset(start);
        fast.valid_actions(&mut fa);
        naive.valid_actions(&mut na);
        assert_eq!(fa, na, "start {start}: valid sets diverge");
        let g = fast.take_gate_counts();
        assert_eq!(g, naive.take_gate_counts(), "start {start}: tallies");
        theme_gap += g.theme_gap;
        for j in (0..instance.catalog.len()).filter(|&j| j != start) {
            assert_eq!(
                fast.peek_reward(j).to_bits(),
                naive.peek_reward(j).to_bits(),
                "start {start}: peek_reward({j})"
            );
        }
    }
    assert!(theme_gap > 0, "the theme gate never fired");
    for seed in 0..6 {
        random_walk_lockstep("straddling themes", &instance, &params, seed);
    }
}

/// The Q-tables the greedy pick is pinned under: all zeros; a random
/// palette of values spaced by exactly `1e-12` and just over it, where
/// the scan's tolerance chain is not transitive; that palette with NaN
/// entries; and, when `params` are valid, one learned on `instance`.
fn pick_tables(instance: &PlanningInstance, params: &PlannerParams, seed: u64) -> Vec<QTable> {
    let n = instance.catalog.len();
    let just_over = f64::from_bits(1e-12f64.to_bits() + 1);
    let palette = [
        0.0,
        1e-12,
        just_over,
        2e-12,
        3e-12,
        -1e-12,
        0.5,
        0.5 + 1e-12,
    ];
    let mut rng = TrainRng::seed_from_u64(seed ^ 0x9e37);
    let mut planted = QTable::zeros(n, n);
    let mut with_nan = QTable::zeros(n, n);
    for s in 0..n {
        for a in 0..n {
            let v = palette[rng.index(palette.len())];
            planted.set(s, a, v);
            with_nan.set(s, a, if rng.index(7) == 0 { f64::NAN } else { v });
        }
    }
    let mut tables = vec![QTable::zeros(n, n), planted, with_nan];
    if params.validate().is_ok() {
        let mut learn_params = params.clone();
        learn_params.episodes = learn_params.episodes.min(30);
        tables.push(RlPlanner::learn(instance, &learn_params, seed).0.q);
    }
    tables
}

/// Walks `instance` with seeded random actions, as
/// [`random_walk_lockstep_excluding`] does, and at every step asserts
/// that [`TppEnv`]'s `greedy_ties` equals `tpp_rl`'s scan over
/// `peek_reward` under every table of [`pick_tables`], and that r2's
/// bitset agrees with [`tpp_model::PrereqExpr::satisfied_with_gap`] for
/// every unseated item. Returns how many picks were checked and how many
/// of them the reward levels answered.
fn greedy_pick_lockstep(
    label: &str,
    instance: &PlanningInstance,
    params: &PlannerParams,
    seed: u64,
    banned: &[ItemId],
) -> (usize, usize) {
    let tables = pick_tables(instance, params, seed);
    let mut env = TppEnv::new(instance, params);
    let mut rng = TrainRng::seed_from_u64(seed);
    let n = instance.catalog.len();
    let starts = [start_of(instance), rng.index(n), rng.index(n)];
    let (mut acts, mut fast, mut scan) = (Vec::new(), Vec::new(), Vec::new());
    let (mut picks, mut by_level) = (0, 0);
    for start in starts {
        env.reset(start);
        for &id in banned {
            env.exclude(id);
        }
        for step in 0.. {
            let plan = env.plan();
            let pos_of = |id: ItemId| plan.items().iter().position(|&p| p == id);
            for (j, item) in instance.catalog.items().iter().enumerate() {
                if pos_of(item.id).is_none() {
                    let holds =
                        item.prereq
                            .satisfied_with_gap(&pos_of, plan.len(), instance.hard.gap);
                    assert_eq!(
                        env.prereq_met(j),
                        Some(holds),
                        "{label} start {start}: r2 of {j} at step {step}"
                    );
                }
            }
            env.valid_actions(&mut acts);
            if acts.is_empty() {
                break;
            }
            for (t, q) in tables.iter().enumerate() {
                env.greedy_ties(q, &acts, &mut fast);
                tpp_rl::scan_greedy_ties(&env, q, &acts, &mut scan);
                assert_eq!(
                    fast, scan,
                    "{label} start {start}: ties under table {t} diverge at step {step}"
                );
                picks += 1;
                by_level += usize::from(env.picks_by_level(q, &acts, &mut fast));
            }
            if env.step(acts[rng.index(acts.len())]).done {
                break;
            }
        }
    }
    (picks, by_level)
}

/// The greedy pick over the four benchmark datasets and a synthetic
/// catalog under every [`variants`] entry, over the bitset word
/// boundaries and the mixed-credit catalog, and after exclusions.
#[test]
fn greedy_ties_by_level_equal_the_scan() {
    let mut runs: Vec<(String, PlanningInstance, PlannerParams, Vec<ItemId>)> = Vec::new();
    let mut sets = datasets();
    let synthetic = tpp_datagen::synthetic_course_instance(
        &tpp_datagen::SyntheticConfig::sized(60),
        UNIV1_SEED,
    );
    sets.push(("synthetic", synthetic, PlannerParams::univ1_defaults()));
    for (name, instance, params) in &sets {
        for (variant, inst, p) in variants(instance, params) {
            runs.push((format!("{name} / {variant}"), inst, p, Vec::new()));
        }
        let n = instance.catalog.len();
        let banned = [1, n / 3, n / 2, n - 1].map(|i| ItemId(i as u32)).to_vec();
        runs.push((
            format!("{name} excluding"),
            instance.clone(),
            params.clone(),
            banned,
        ));
    }
    for n in [63, 64, 65, 128] {
        let config = tpp_datagen::SyntheticConfig::sized(n);
        let instance = tpp_datagen::synthetic_course_instance(&config, UNIV1_SEED);
        runs.push((
            format!("synthetic-{n}"),
            instance,
            PlannerParams::univ1_defaults(),
            Vec::new(),
        ));
    }
    let mixed = mixed_credit_course(130);
    let capstone = mixed
        .catalog
        .items()
        .iter()
        .position(|i| i.credits == 12.0)
        .unwrap();
    let mut params = PlannerParams::univ1_defaults();
    params.epsilon = 0.0;
    runs.push((
        "mixed credits".into(),
        mixed.clone(),
        params.clone(),
        Vec::new(),
    ));
    let banned = vec![ItemId(capstone as u32), ItemId(1), ItemId(64)];
    runs.push(("mixed credits excluding".into(), mixed, params, banned));
    let (mut picks, mut by_level) = (0, 0);
    for (i, (label, instance, params, banned)) in runs.iter().enumerate() {
        let (p, l) = greedy_pick_lockstep(label, instance, params, i as u64, banned);
        picks += p;
        by_level += l;
    }
    // The levels answer nearly every pick; the scan takes the rest.
    assert!(
        by_level * 100 > picks * 99,
        "{by_level} of {picks} picks by level"
    );
}

/// A course catalog whose type terms are set by category weights, with
/// `δ` as given: items 0..6 cycle through the categories, and items
/// 6..8 require item 0, so early steps carry a zero level.
fn leveled_course(weights: &[f64], delta: f64) -> (PlanningInstance, PlannerParams) {
    use tpp_model::{CatalogBuilder, Category, HardConstraints, ItemKind, SoftConstraints};
    let names: Vec<String> = (0..8).map(|t| format!("t{t}")).collect();
    let mut b = CatalogBuilder::new("leveled").topics(names.iter().cloned());
    for (i, name) in names.iter().enumerate() {
        let kind = if i % 2 == 0 {
            ItemKind::Primary
        } else {
            ItemKind::Secondary
        };
        b = b
            .course(
                format!("C{i}"),
                format!("Course {i}"),
                kind,
                3.0,
                &[name.as_str()],
            )
            .category(Category((i % weights.len()) as u8));
    }
    let catalog = b
        .requires_all("C6", &["C0"])
        .requires_all("C7", &["C0"])
        .build()
        .unwrap();
    let hard = HardConstraints {
        credits: 18.0,
        n_primary: 3,
        n_secondary: 3,
        gap: 1,
    };
    let soft = SoftConstraints::new(
        tpp_model::TopicVector::ones(8),
        tpp_model::TemplateSet::from_strs(&["PSPSPS", "PPPSSS"]).unwrap(),
        &hard,
    )
    .unwrap();
    let instance = PlanningInstance {
        catalog,
        hard,
        soft,
        trip: None,
        default_start: Some(ItemId(1)),
    };
    let mut params = PlannerParams::univ1_defaults();
    params.weights = TypeWeights::Categories(weights.to_vec());
    params.delta = delta;
    params.beta = 1.0;
    (instance, params)
}

/// Each case where the reward levels could order candidates unlike the
/// scan: from start 1 (so item 0 and the items needing it are
/// candidates) the pick falls back to the scan on two levels within
/// `1e-12` and on a non-finite type term; a top level at `0.0` and
/// `−0.0` merges with the zero level. Every pick equals the scan, then
/// random walks do.
#[test]
fn near_levels_and_non_finite_terms_fall_back_to_the_scan() {
    // 0.2 + 1e-12 sits just over 1e-12 above 0.2, yet equals the
    // scan's own `b + 1e-12`: the scan neither ranks it above 0.2 nor
    // ties the two.
    let cases: [(&str, Vec<f64>, f64, bool); 5] = [
        ("levels within 1e-12", vec![0.5, 0.5 + 1e-13], 0.0, false),
        ("levels exactly 1e-12 apart", vec![1e-12, 2e-12], 0.0, false),
        ("levels at b + 1e-12", vec![0.2, 0.2 + 1e-12], 0.0, false),
        (
            "top level at ±0 merges with zero",
            vec![0.0, -0.0],
            -0.0,
            true,
        ),
        (
            "an infinite type term",
            vec![0.5, f64::INFINITY],
            0.0,
            false,
        ),
    ];
    for (i, (label, weights, delta, by_level)) in cases.into_iter().enumerate() {
        let (instance, params) = leveled_course(&weights, delta);
        let mut env = TppEnv::new(&instance, &params);
        env.reset(1);
        let mut acts = Vec::new();
        env.valid_actions(&mut acts);
        assert!(acts.contains(&0) && acts.contains(&6), "{label}: {acts:?}");
        assert_eq!(env.peek_reward(6), 0.0, "{label}: item 6 needs item 0");
        for q in pick_tables(&instance, &params, i as u64) {
            let (mut fast, mut scan) = (Vec::new(), Vec::new());
            assert_eq!(
                env.picks_by_level(&q, &acts, &mut fast),
                by_level,
                "{label}"
            );
            env.greedy_ties(&q, &acts, &mut fast);
            tpp_rl::scan_greedy_ties(&env, &q, &acts, &mut scan);
            assert_eq!(fast, scan, "{label}");
        }
        for seed in 0..4 {
            greedy_pick_lockstep(label, &instance, &params, seed, &[]);
        }
    }
}

/// Negative credits restart the credit cursor mid-episode; r2's bitset
/// must survive that restart. ds-ct's prerequisites with every fourth
/// course at −2.5 credits, walked against the oracle and through the
/// greedy pick.
#[test]
fn negative_credits_keep_r2_across_a_cursor_restart() {
    let mut instance = tpp_datagen::univ1_ds_ct(UNIV1_SEED);
    let items = instance
        .catalog
        .items()
        .iter()
        .cloned()
        .map(|mut item| {
            if item.id.index() % 4 == 1 {
                item.credits = -2.5;
            }
            item
        })
        .collect();
    let vocabulary = instance.catalog.vocabulary().clone();
    instance.catalog = tpp_model::Catalog::new("negative-ds-ct", vocabulary, items).unwrap();
    assert!(instance.catalog.items().iter().any(|i| !i.prereq.is_none()));
    let params = PlannerParams::univ1_defaults();
    for seed in 0..6 {
        random_walk_lockstep("negative ds-ct", &instance, &params, seed);
        greedy_pick_lockstep("negative ds-ct", &instance, &params, seed, &[]);
    }
}
