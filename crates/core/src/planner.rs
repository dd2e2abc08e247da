//! RL-Planner: Algorithm 1 — learn a policy with SARSA, recommend plans
//! by greedy Q-table traversal.

use crate::env::TppEnv;
use crate::params::{PlannerParams, QReprMode, StartPolicy};
use std::time::Instant;
use tpp_model::{ItemId, Plan, PlanningInstance};
use tpp_obs::{obs_event, Level, Span};
use tpp_rl::{Budget, Environment, QTable, TrainCheckpoint, TrainRng, TrainStats, VisitTable};

/// A learned policy: the Q-table plus the universe it indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedPolicy {
    /// The `|I| × |I|` action-value table.
    pub q: QTable,
    /// Name of the catalog the table indexes (sanity check on reuse).
    pub catalog_name: String,
}

/// The RL-Planner facade.
#[derive(Debug, Clone, Copy, Default)]
pub struct RlPlanner;

/// Algorithm 1's behaviour policy: with probability `explore` a uniform
/// random valid action; otherwise `argmax R(s, ·)` over the valid set
/// (lines 4 and 9 of the pseudo-code select by *immediate reward*, which
/// is what keeps training trajectories feasible — the Eq. 2 gate zeroes
/// every constraint-violating action). [`Environment::greedy_ties`]
/// finds the reward ties broken by higher Q; the rest break uniformly
/// at random. `best` is the caller's scratch buffer for the tie set,
/// reused across steps.
fn select_action<E: Environment>(
    env: &E,
    q: &QTable,
    visits: &VisitTable,
    allowed: &[usize],
    explore: f64,
    rng: &mut TrainRng,
    best: &mut Vec<usize>,
) -> usize {
    debug_assert!(!allowed.is_empty());
    if rng.next_f64() < explore {
        return allowed[rng.index(allowed.len())];
    }
    let s = env.state();
    env.greedy_ties(q, allowed, best);
    // Full (reward, Q) ties break toward the least-visited pair: the
    // systematic version of the paper's "one will be picked at random",
    // ensuring "extensive training" actually covers every tie member.
    let min_visits = best
        .iter()
        .map(|&a| visits.get(s, a))
        .min()
        .expect("non-empty");
    best.retain(|&a| visits.get(s, a) == min_visits);
    best[rng.index(best.len())]
}

/// Algorithm 1's training loop (lines 1–14) on `env`, an environment
/// over `instance`: reward-greedy behaviour with scheduled ε
/// exploration and on-policy SARSA(λ) updates (Eq. 9), under `budget`,
/// with the checkpoint/resume contract of
/// [`RlPlanner::learn_checkpointed`]. Returns the Q-table, the returns
/// and the open `train.session` span. Production runs it on
/// [`TppEnv`]; the tests also run it on the naive oracle engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn learn_on<E, C>(
    env: &mut E,
    instance: &PlanningInstance,
    params: &PlannerParams,
    seed: u64,
    resume: Option<&TrainCheckpoint>,
    checkpoint_every: usize,
    budget: &Budget,
    mut on_checkpoint: C,
) -> Result<(QTable, TrainStats, Span), String>
where
    E: Environment,
    C: FnMut(&TrainCheckpoint) -> Result<(), String>,
{
    let n = instance.catalog.len();
    let (mut q, mut rng, start_episode, mut visits, mut stats) = match resume {
        Some(ckpt) => {
            if ckpt.q.n_states() != n || ckpt.q.n_actions() != n {
                return Err(format!(
                    "checkpoint Q-table is {}x{} but catalog {:?} has {n} items",
                    ckpt.q.n_states(),
                    ckpt.q.n_actions(),
                    instance.catalog.name(),
                ));
            }
            if ckpt.episode as usize > params.episodes {
                return Err(format!(
                    "checkpoint has {} completed episodes but the target is {}",
                    ckpt.episode, params.episodes,
                ));
            }
            if !ckpt.visits.is_empty()
                && (ckpt.visits.n_states() != n || ckpt.visits.n_actions() != n)
            {
                return Err(format!(
                    "checkpoint visit table is {}x{}, expected {n}x{n}",
                    ckpt.visits.n_states(),
                    ckpt.visits.n_actions(),
                ));
            }
            let visits = if ckpt.visits.is_empty() {
                // Mirror the checkpoint Q-table's representation so
                // a resumed sparse run stays allocation-free.
                if ckpt.q.is_sparse() {
                    VisitTable::sparse(n, n)
                } else {
                    VisitTable::dense(n, n)
                }
            } else {
                ckpt.visits.clone()
            };
            (
                ckpt.q.clone(),
                TrainRng::from_state(ckpt.rng_state),
                ckpt.episode as usize,
                visits,
                ckpt.stats(),
            )
        }
        None => {
            // The representation knob: Auto keeps seed-sized
            // catalogs dense (bit-identical to the pre-sparse
            // engine) and goes sparse at city scale; an explicit
            // Dense request on an oversized catalog is a typed
            // error, not an `n²` allocation.
            let (q, visits) = match params.q_repr {
                QReprMode::Auto => (QTable::for_catalog(n), VisitTable::for_catalog(n)),
                QReprMode::Sparse => (QTable::sparse(n, n), VisitTable::sparse(n, n)),
                QReprMode::Dense => {
                    let q = QTable::try_zeros(n, n).map_err(|e| e.to_string())?;
                    (q, VisitTable::dense(n, n))
                }
            };
            (
                q,
                TrainRng::seed_from_u64(seed),
                0,
                visits,
                TrainStats::with_capacity(params.episodes),
            )
        }
    };
    let mut span = tpp_obs::span(Level::Info, "train.session")
        .with("catalog", instance.catalog.name())
        .with("episodes", params.episodes)
        .with("seed", seed)
        .with("resumed_at", start_episode);
    let primaries: Vec<usize> = instance
        .catalog
        .items()
        .iter()
        .filter(|i| i.is_primary())
        .map(|i| i.id.index())
        .collect();
    let mut actions = Vec::with_capacity(n);
    let mut ties = Vec::with_capacity(n);
    // Valid-action-set sizes are tallied locally (sizes are bounded
    // by |I|) and flushed to the shared histogram once per session:
    // ten seeds train in parallel, and per-step updates of shared
    // atomics cost measurable cache-line contention.
    let mut va_sizes = vec![0u64; n + 1];
    // Emits a snapshot after `episode` finished, when due. Cloning
    // the training state is the price of handing the sink an
    // immutable snapshot while the loop keeps mutating its own.
    let mut maybe_checkpoint = |episode: usize,
                                q: &QTable,
                                rng: &TrainRng,
                                visits: &VisitTable,
                                stats: &TrainStats|
     -> Result<(), String> {
        let done = episode + 1;
        if checkpoint_every == 0 || done % checkpoint_every != 0 {
            return Ok(());
        }
        on_checkpoint(&TrainCheckpoint {
            q: q.clone(),
            episode: done as u64,
            sched_pos: done as u64,
            rng_state: rng.state(),
            visits: visits.clone(),
            returns: stats.returns().to_vec(),
        })
    };
    for episode in start_episode..params.episodes {
        if let Some(stop) = budget.check_episode() {
            obs_event!(
                Level::Warn,
                "train.budget_expired",
                episode = episode,
                target = params.episodes,
                reason = stop.as_str(),
            );
            span.record("budget_stop", stop.as_str());
            break;
        }
        let ep_started = tpp_obs::enabled(Level::Debug).then(Instant::now);
        let explore = params.exploration.at(episode);
        let start = match params.start {
            StartPolicy::Fixed(id) => id.index(),
            StartPolicy::Random => rng.index(n),
            StartPolicy::RandomPrimary => {
                if primaries.is_empty() {
                    rng.index(n)
                } else {
                    primaries[rng.index(primaries.len())]
                }
            }
        };
        env.reset(start);
        let mut ep_return = 0.0;
        let mut s = env.state();
        env.valid_actions(&mut actions);
        va_sizes[actions.len()] += 1;
        if actions.is_empty() {
            stats.push(0.0);
            obs_event!(
                Level::Debug,
                "train.episode",
                episode = episode,
                epsilon = explore,
                ep_return = 0.0,
                steps = 0usize,
            );
            maybe_checkpoint(episode, &q, &rng, &visits, &stats)?;
            continue;
        }
        let mut a = select_action(env, &q, &visits, &actions, explore, &mut rng, &mut ties);
        // Eligibility traces (SARSA(λ)): a TPP episode never repeats
        // a state-action pair, so the trace is simply the visited
        // pairs with geometrically decaying weights. Traces are what
        // lets the reward a core course earns late in an episode
        // reach the early decision that scheduled its antecedent.
        let mut trace: Vec<(usize, usize, f64)> = Vec::with_capacity(instance.horizon());
        let mut max_td: f64 = 0.0;
        loop {
            budget.note_step();
            let out = env.step(a);
            ep_return += out.reward;
            visits.bump(s, a);
            trace.push((s, a, 1.0));
            let (done, td_error) = if out.done {
                (true, out.reward - q.get(s, a))
            } else {
                env.valid_actions(&mut actions);
                va_sizes[actions.len()] += 1;
                if actions.is_empty() {
                    (true, out.reward - q.get(s, a))
                } else {
                    let a_next =
                        select_action(env, &q, &visits, &actions, explore, &mut rng, &mut ties);
                    let delta =
                        out.reward + params.gamma * q.get(out.next_state, a_next) - q.get(s, a);
                    s = out.next_state;
                    a = a_next;
                    (false, delta)
                }
            };
            max_td = max_td.max(td_error.abs());
            for (ts, ta, e) in &mut trace {
                let v = q.get(*ts, *ta);
                q.set(*ts, *ta, v + params.alpha * td_error * *e);
                *e *= params.gamma * params.lambda;
            }
            if done {
                break;
            }
        }
        stats.push(ep_return);
        if let Some(t0) = ep_started {
            obs_event!(
                Level::Debug,
                "train.episode",
                episode = episode,
                epsilon = explore,
                ep_return = ep_return,
                steps = trace.len(),
                max_td_error = max_td,
                max_q_delta = params.alpha * max_td,
                duration_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
            );
        }
        maybe_checkpoint(episode, &q, &rng, &visits, &stats)?;
    }
    let va_hist = tpp_obs::metrics().histogram("env.valid_actions");
    for (size, &count) in va_sizes.iter().enumerate() {
        va_hist.record_n(size as u64, count);
    }
    let summary = stats.summary();
    span.record("mean_return", summary.mean);
    span.record("p50_return", summary.p50);
    span.record("p95_return", summary.p95);
    Ok((q, stats, span))
}

/// Algorithm 1's recommendation walk (lines 15–24) from `env`'s current
/// state: the reward-greedy policy with exploration off, until no valid
/// action remains or the episode ends.
pub(crate) fn walk_greedy<E: Environment>(env: &mut E, q: &QTable) {
    let mut actions = Vec::with_capacity(env.n_states());
    loop {
        let s = env.state();
        env.valid_actions(&mut actions);
        if actions.is_empty() {
            break;
        }
        // SARSA is on-policy: the Q-table evaluates the reward-greedy
        // behaviour policy of Algorithm 1's training loop, so the
        // recommendation executes that same policy with exploration
        // off — immediate reward first (the Eq. 2 gate zeroes every
        // constraint-violating action, which is what makes Theorem 1
        // hold operationally), learned Q value as the tie-breaker.
        // Reward ties are exactly where learning shows: EDA resolves
        // them blindly, RL-Planner with the long-horizon signal
        // (keep prerequisite chains schedulable; don't strand the
        // itinerary away from high-value continuations). Lower index
        // breaks exact (reward, Q) ties for determinism.
        // total_cmp keeps the argmax panic-free when a corrupt or
        // adversarial checkpoint smuggles a NaN into Q: the pick
        // degrades deterministically instead of killing the worker.
        let (_, _, best) = actions
            .iter()
            .map(|&a| (env.peek_reward(a), q.get(s, a), a))
            .max_by(|x, y| {
                x.0.total_cmp(&y.0)
                    .then_with(|| x.1.total_cmp(&y.1))
                    .then(y.2.cmp(&x.2))
            })
            .expect("actions is non-empty");
        if env.step(best).done {
            break;
        }
    }
}

impl RlPlanner {
    /// Learns a policy on `instance` under `params` (Algorithm 1, lines
    /// 1–14): reward-greedy behaviour with scheduled ε exploration,
    /// on-policy SARSA updates (Eq. 9). Deterministic in `seed`.
    pub fn learn(
        instance: &PlanningInstance,
        params: &PlannerParams,
        seed: u64,
    ) -> (LearnedPolicy, TrainStats) {
        Self::learn_checkpointed(instance, params, seed, None, 0, |_| Ok(()))
            .expect("checkpointing disabled; the sink cannot fail")
    }

    /// [`learn`](Self::learn) with crash-safe checkpointing: every
    /// `checkpoint_every` completed episodes (0 disables) the full
    /// training state — Q-table, visit counts, RNG words, returns — is
    /// handed to `on_checkpoint` for persistence, and `resume` restores
    /// such a snapshot so the continued run is **bit-identical** to one
    /// that never stopped. A sink error aborts training (the caller
    /// asked for durability it is no longer getting).
    ///
    /// Errors on a `resume` snapshot whose shape does not match
    /// `instance`/`params` (wrong catalog size, more episodes than the
    /// target) rather than silently training on mismatched state.
    pub fn learn_checkpointed<C>(
        instance: &PlanningInstance,
        params: &PlannerParams,
        seed: u64,
        resume: Option<&TrainCheckpoint>,
        checkpoint_every: usize,
        on_checkpoint: C,
    ) -> Result<(LearnedPolicy, TrainStats), String>
    where
        C: FnMut(&TrainCheckpoint) -> Result<(), String>,
    {
        Self::learn_budgeted(
            instance,
            params,
            seed,
            resume,
            checkpoint_every,
            &Budget::unlimited(),
            on_checkpoint,
        )
    }

    /// [`learn_checkpointed`](Self::learn_checkpointed) under a
    /// cooperative [`Budget`]: the budget is evaluated at every episode
    /// boundary (with per-step work charged toward any step limit), and
    /// an exhausted budget stops training **cleanly between episodes** —
    /// the returned policy and stats reflect exactly the episodes that
    /// completed, so `stats.episodes() < params.episodes` is the
    /// early-stop signal. Episode/step limits stop deterministically;
    /// the wall-clock deadline is the serving layer's stall guard.
    #[allow(clippy::too_many_arguments)]
    pub fn learn_budgeted<C>(
        instance: &PlanningInstance,
        params: &PlannerParams,
        seed: u64,
        resume: Option<&TrainCheckpoint>,
        checkpoint_every: usize,
        budget: &Budget,
        on_checkpoint: C,
    ) -> Result<(LearnedPolicy, TrainStats), String>
    where
        C: FnMut(&TrainCheckpoint) -> Result<(), String>,
    {
        params.validate().expect("invalid planner parameters");
        let mut env = TppEnv::new(instance, params);
        let (q, stats, mut span) = learn_on(
            &mut env,
            instance,
            params,
            seed,
            resume,
            checkpoint_every,
            budget,
            on_checkpoint,
        )?;
        let gates = env.take_gate_counts();
        let m = tpp_obs::metrics();
        m.counter("gate.checked").add(gates.checked);
        m.counter("gate.reject.credits").add(gates.credits);
        m.counter("gate.reject.theme_gap").add(gates.theme_gap);
        m.counter("gate.reject.distance").add(gates.distance);
        span.record("gate_checked", gates.checked);
        span.record("gate_rejected", gates.rejected());
        Ok((
            LearnedPolicy {
                q,
                catalog_name: instance.catalog.name().to_owned(),
            },
            stats,
        ))
    }

    /// Recommends a plan from `start` (Algorithm 1, lines 15–24) by
    /// running the training loop's reward-greedy policy with exploration
    /// off. The environment enforces action validity (unvisited items;
    /// trip budgets), and each step takes the valid item with the
    /// highest immediate reward; reward ties break by higher Q, then by
    /// lower index for determinism, until `H` items are placed.
    pub fn recommend(
        policy: &LearnedPolicy,
        instance: &PlanningInstance,
        params: &PlannerParams,
        start: ItemId,
    ) -> Plan {
        assert_eq!(
            policy.catalog_name,
            instance.catalog.name(),
            "policy was learned on a different catalog; transfer it first"
        );
        Self::recommend_with_q(&policy.q, instance, params, start)
    }

    /// Recommends with a bare Q-table (used after transfer, where the
    /// table was learned elsewhere and transported into this universe).
    pub fn recommend_with_q(
        q: &QTable,
        instance: &PlanningInstance,
        params: &PlannerParams,
        start: ItemId,
    ) -> Plan {
        Self::recommend_with_exclusions(q, instance, params, start, &[])
    }

    /// Recommends while excluding `banned` items entirely — the feedback
    /// loop's "not useful" items (§VI's future-work extension).
    pub fn recommend_with_exclusions(
        q: &QTable,
        instance: &PlanningInstance,
        params: &PlannerParams,
        start: ItemId,
        banned: &[ItemId],
    ) -> Plan {
        let mut span = tpp_obs::span(Level::Debug, "plan.recommend")
            .with("catalog", instance.catalog.name())
            .with("start", start.index())
            .with("banned", banned.len());
        let mut env = TppEnv::new(instance, params);
        env.reset(start.index());
        for &b in banned {
            env.exclude(b);
        }
        walk_greedy(&mut env, q);
        let plan = env.plan();
        span.record("plan_len", plan.len());
        plan
    }

    /// Learn-then-recommend convenience: returns the plan from the
    /// instance's default start (or item 0).
    pub fn plan(instance: &PlanningInstance, params: &PlannerParams, seed: u64) -> Plan {
        let (policy, _) = Self::learn(instance, params, seed);
        let start = instance.default_start.unwrap_or(ItemId(0));
        Self::recommend(&policy, instance, params, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimAggregate;
    use tpp_model::toy;
    use tpp_model::validate_plan;

    fn toy_instance() -> PlanningInstance {
        PlanningInstance {
            catalog: toy::table2_catalog(),
            hard: toy::table2_hard(),
            soft: toy::table2_soft(),
            trip: None,
            default_start: Some(ItemId(0)),
        }
    }

    fn toy_params() -> PlannerParams {
        let mut p = PlannerParams::univ1_defaults();
        p.epsilon = 0.0; // the toy ideal vector is sparse; don't gate
        p.episodes = 300;
        p
    }

    #[test]
    fn learns_and_recommends_full_length_plan() {
        let inst = toy_instance();
        let params = toy_params();
        let (policy, stats) = RlPlanner::learn(&inst, &params, 7);
        assert_eq!(stats.episodes(), 300);
        assert_eq!(policy.q.n_states(), 6);
        let plan = RlPlanner::recommend(&policy, &inst, &params, ItemId(0));
        assert_eq!(plan.len(), 6);
        // All distinct.
        let mut seen = std::collections::HashSet::new();
        for &id in plan.items() {
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn learned_plan_satisfies_hard_constraints() {
        // With enough episodes the toy instance is solved exactly: the
        // recommended plan passes every hard constraint.
        let inst = toy_instance();
        let mut params = toy_params();
        params.episodes = 800;
        let (policy, _) = RlPlanner::learn(&inst, &params, 11);
        let plan = RlPlanner::recommend(&policy, &inst, &params, ItemId(0));
        let violations = validate_plan(&plan, &inst.catalog, &inst.hard);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn deterministic_in_seed() {
        let inst = toy_instance();
        let params = toy_params();
        let (p1, _) = RlPlanner::learn(&inst, &params, 5);
        let (p2, _) = RlPlanner::learn(&inst, &params, 5);
        assert_eq!(p1.q, p2.q);
    }

    #[test]
    fn min_similarity_variant_runs() {
        let inst = toy_instance();
        let params = toy_params().with_sim(SimAggregate::Minimum);
        let plan = RlPlanner::plan(&inst, &params, 3);
        assert_eq!(plan.len(), 6);
    }

    #[test]
    fn fixed_start_policy_used_in_training() {
        let inst = toy_instance();
        let params = toy_params().with_start(ItemId(2));
        let (policy, _) = RlPlanner::learn(&inst, &params, 9);
        let plan = RlPlanner::recommend(&policy, &inst, &params, ItemId(2));
        assert_eq!(plan.items()[0], ItemId(2));
    }

    #[test]
    fn checkpoints_fire_on_schedule_and_carry_progress() {
        let inst = toy_instance();
        let mut params = toy_params();
        params.episodes = 100;
        let mut seen: Vec<u64> = Vec::new();
        let (_, stats) = RlPlanner::learn_checkpointed(&inst, &params, 3, None, 25, |ckpt| {
            assert_eq!(ckpt.returns.len() as u64, ckpt.episode);
            assert_eq!((ckpt.visits.n_states(), ckpt.visits.n_actions()), (6, 6));
            seen.push(ckpt.episode);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![25, 50, 75, 100]);
        assert_eq!(stats.episodes(), 100);
    }

    #[test]
    fn interrupted_plus_resumed_is_bit_identical() {
        let inst = toy_instance();
        let params = toy_params();
        let (full, full_stats) = RlPlanner::learn(&inst, &params, 17);

        // Capture the state mid-run, then "crash": train a fresh run
        // that resumes from the snapshot.
        let mut snapshot = None;
        RlPlanner::learn_checkpointed(&inst, &params, 17, None, 150, |ckpt| {
            if snapshot.is_none() {
                snapshot = Some(ckpt.clone());
            }
            Ok(())
        })
        .unwrap();
        let snapshot = snapshot.expect("one checkpoint at episode 150");
        assert_eq!(snapshot.episode, 150);
        let (resumed, resumed_stats) =
            RlPlanner::learn_checkpointed(&inst, &params, 17, Some(&snapshot), 0, |_| Ok(()))
                .unwrap();

        assert_eq!(full.q.values(), resumed.q.values());
        assert_eq!(full_stats.returns(), resumed_stats.returns());
    }

    #[test]
    fn budget_stops_mid_training_deterministically() {
        let inst = toy_instance();
        let mut params = toy_params();
        params.episodes = 200;
        // An episode budget of 40 stops the loop after exactly 40
        // completed episodes, every time.
        for _ in 0..3 {
            let budget = Budget::unlimited().with_episode_limit(40);
            let (_, stats) =
                RlPlanner::learn_budgeted(&inst, &params, 5, None, 0, &budget, |_| Ok(())).unwrap();
            assert_eq!(stats.episodes(), 40);
            assert!(budget.expired());
        }
        // The 40 budgeted episodes are bit-identical to the first 40 of
        // an unbudgeted run (the budget only truncates, never perturbs).
        let budget = Budget::unlimited().with_episode_limit(40);
        let (_, budgeted) =
            RlPlanner::learn_budgeted(&inst, &params, 5, None, 0, &budget, |_| Ok(())).unwrap();
        let (_, full) = RlPlanner::learn(&inst, &params, 5);
        assert_eq!(budgeted.returns(), &full.returns()[..40]);
    }

    #[test]
    fn elapsed_deadline_trains_zero_episodes() {
        let inst = toy_instance();
        let params = toy_params();
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let (policy, stats) =
            RlPlanner::learn_budgeted(&inst, &params, 5, None, 0, &budget, |_| Ok(())).unwrap();
        assert_eq!(stats.episodes(), 0);
        assert!(budget.expired());
        // The zeroed policy still recommends a terminal (if naive) plan.
        let plan = RlPlanner::recommend(&policy, &inst, &params, ItemId(0));
        assert!(!plan.is_empty());
    }

    #[test]
    fn step_budget_counts_training_steps() {
        let inst = toy_instance();
        let mut params = toy_params();
        params.episodes = 50;
        // Each toy episode is 5 steps (horizon 6, start pre-seated). The
        // stop check runs at episode boundaries: at 20 steps a 23-step
        // limit still admits the 5th episode, and the loop stops before
        // the 6th with 25 steps charged.
        let budget = Budget::unlimited().with_step_limit(23);
        let (_, stats) =
            RlPlanner::learn_budgeted(&inst, &params, 5, None, 0, &budget, |_| Ok(())).unwrap();
        assert_eq!(stats.episodes(), 5);
        assert_eq!(budget.steps(), 25);
    }

    #[test]
    fn checkpoint_sink_error_aborts_training() {
        let inst = toy_instance();
        let params = toy_params();
        let err = RlPlanner::learn_checkpointed(&inst, &params, 1, None, 10, |_| {
            Err("disk full".to_owned())
        })
        .unwrap_err();
        assert!(err.contains("disk full"));
    }

    #[test]
    fn resume_rejects_mismatched_shapes() {
        let inst = toy_instance();
        let mut params = toy_params();
        let mut ckpt = tpp_rl::TrainCheckpoint {
            q: tpp_rl::QTable::square(4), // catalog has 6 items
            episode: 10,
            sched_pos: 10,
            rng_state: [1, 2, 3, 4],
            visits: tpp_rl::VisitTable::empty(),
            returns: vec![0.0; 10],
        };
        let err = RlPlanner::learn_checkpointed(&inst, &params, 1, Some(&ckpt), 0, |_| Ok(()))
            .unwrap_err();
        assert!(err.contains("6 items"), "{err}");

        ckpt.q = tpp_rl::QTable::square(6);
        params.episodes = 5; // fewer than the checkpoint's 10
        let err = RlPlanner::learn_checkpointed(&inst, &params, 1, Some(&ckpt), 0, |_| Ok(()))
            .unwrap_err();
        assert!(err.contains("target is 5"), "{err}");
    }

    /// The recommend walk as it was written before each candidate's
    /// reward was computed once: `peek_reward` inside the comparator.
    fn recommend_pairwise(q: &QTable, instance: &PlanningInstance, params: &PlannerParams) -> Plan {
        let start = instance.default_start.unwrap_or(ItemId(0));
        let mut env = TppEnv::new(instance, params);
        env.reset(start.index());
        let mut actions = Vec::new();
        loop {
            let s = env.state();
            env.valid_actions(&mut actions);
            let Some(best) = actions.iter().copied().max_by(|&a, &b| {
                env.peek_reward(a)
                    .total_cmp(&env.peek_reward(b))
                    .then_with(|| q.get(s, a).total_cmp(&q.get(s, b)))
                    .then(b.cmp(&a))
            }) else {
                break;
            };
            if env.step(best).done {
                break;
            }
        }
        env.plan()
    }

    #[test]
    fn recommend_matches_the_pairwise_argmax() {
        use tpp_datagen::defaults::{PARIS_SEED, UNIV1_SEED};
        let mut course = PlannerParams::univ1_defaults();
        course.episodes = 60;
        let mut trip = PlannerParams::trip_defaults();
        trip.episodes = 60;
        let sets = [
            (toy_instance(), toy_params()),
            (tpp_datagen::univ1_ds_ct(UNIV1_SEED), course),
            (tpp_datagen::paris(PARIS_SEED).instance, trip),
        ];
        for (instance, params) in &sets {
            let n = instance.catalog.len();
            // An all-zero table makes every Q comparison a tie, so the
            // reward order and the lower-index rule decide alone.
            let mut tables = vec![QTable::square(n)];
            for seed in [1, 2, 3] {
                tables.push(RlPlanner::learn(instance, params, seed).0.q);
            }
            for q in &tables {
                let start = instance.default_start.unwrap_or(ItemId(0));
                assert_eq!(
                    RlPlanner::recommend_with_q(q, instance, params, start),
                    recommend_pairwise(q, instance, params),
                    "{}",
                    instance.catalog.name()
                );
            }
        }
    }

    #[test]
    fn city_10k_q_table_stays_sparse_and_small() {
        // A dense 10k × 10k table is ~800 MB and is allocated when the
        // table is built, so a short run catches a leak into the sparse
        // path.
        let city = tpp_datagen::city_10k(tpp_datagen::defaults::CITY_SEED);
        let mut params = PlannerParams::trip_defaults();
        params.episodes = 20;
        let (policy, stats) = RlPlanner::learn(&city.instance, &params, 0);
        assert_eq!(stats.episodes(), 20);
        assert!(policy.q.is_sparse());
        assert!(
            policy.q.approx_bytes() < 64_000_000,
            "resident Q-table is {} bytes",
            policy.q.approx_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "different catalog")]
    fn recommend_rejects_foreign_policy() {
        let inst = toy_instance();
        let params = toy_params();
        let (mut policy, _) = RlPlanner::learn(&inst, &params, 1);
        policy.catalog_name = "something/else".into();
        let _ = RlPlanner::recommend(&policy, &inst, &params, ItemId(0));
    }
}
