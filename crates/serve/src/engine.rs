//! The request engine: dispatch, panic isolation, fallback tiers.
//!
//! [`ServeEngine::handle_batch`] is the daemon's whole contract in one
//! function, and its only request path: it takes a batch of raw input
//! lines — one request, or a same-key backlog a worker drained — and
//! **always** delivers exactly one response line per member, whatever
//! happens in between. [`ServeEngine::handle_line`] is a batch of one.
//! Parse failures become `bad_request` responses; panics anywhere in
//! the planning stack are caught, counted, reported through `tpp-obs`,
//! and answered by a degraded tier; an expired deadline returns the
//! best plan the budget bought, tagged — never an error.
//!
//! A batch resolves its policy once. The first planning member to
//! reach its primary tier fills the batch's resolution slot under the
//! batch budget (the most generous member deadline), and every later
//! member rolls out from the same `Arc`. Each member's own deadline
//! runs from intake, so a member whose deadline passed while it waited
//! is tagged `deadline_expired`/`degraded` like any other late answer.
//!
//! Fallback chain for planning requests (first tier that yields a plan
//! serves the response; `tier` names it, `degraded` is `true` whenever
//! the primary tier did not):
//!
//! 1. **policy** — newest valid checkpoint generation, loaded with
//!    exponential backoff on transient store errors (`recommend`).
//!    For `plan` the primary tier is **train**: budgeted SARSA.
//! 2. **eda** — the myopic greedy baseline; no learned state to
//!    corrupt, no training to time out.
//! 3. **partial** — [`tpp_baselines::degraded_partial_plan`]: no RNG,
//!    no reward peeking, lowest-index walk. The floor.

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::cache::{CacheConfig, CachedPolicy, Lookup, PolicyCache, PolicyKey, PolicySource};
use crate::chaos::{ChaosFault, ChaosPlan, WorkerKill};
use crate::datasets::resolve_dataset;
use crate::protocol::{extract_raw_id, parse_request, JsonObj, Op, Request};
use crate::quarantine::{Quarantine, QuarantineConfig};
use crate::retry::{with_backoff_budgeted, BackoffPolicy};
use crate::transport::TransportState;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tpp_core::{
    constraint_signature, plan_violations, score_with_violations, Budget, PlannerParams, RlPlanner,
};
use tpp_model::{ItemId, Plan, PlanningInstance};
use tpp_obs::{obs_event, Level};
use tpp_rl::QTable;
use tpp_store::StoreError;

/// Engine configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// Checkpoint directory the `policy` tier loads from.
    pub checkpoint_dir: Option<PathBuf>,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Hard cap on per-request training episodes (`plan` op).
    pub max_episodes: u64,
    /// Retry policy for transient checkpoint-load failures.
    pub backoff: BackoffPolicy,
    /// Policy cache bounds (and whether the cache is on at all).
    pub cache: CacheConfig,
    /// Fault-injection schedule (empty in production).
    pub chaos: ChaosPlan,
    /// Directory for flight-recorder post-mortem dumps. `Some` installs
    /// a [`tpp_obs::FlightRecorder`] as a **global** sink (raising the
    /// global level to at least `Debug`) and dumps its ring here on
    /// panic recovery, shed, deadline overrun and slow requests.
    pub flight_dir: Option<PathBuf>,
    /// Ring capacity (events) of the flight recorder.
    pub flight_capacity: usize,
    /// Requests slower than this (wall-clock) trigger a flight dump.
    pub slow_request_ms: Option<u64>,
    /// Circuit breaker over the checkpoint-store load path.
    pub breaker: BreakerConfig,
    /// Poison-pill quarantine over repeatedly-panicking request keys.
    pub quarantine: QuarantineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            checkpoint_dir: None,
            default_deadline_ms: None,
            max_episodes: 2_000,
            backoff: BackoffPolicy::serving_default(),
            cache: CacheConfig::default(),
            chaos: ChaosPlan::none(),
            flight_dir: None,
            flight_capacity: 256,
            slow_request_ms: None,
            breaker: BreakerConfig::default(),
            quarantine: QuarantineConfig::default(),
        }
    }
}

/// Monotonic counters exposed by `stats` and the exit summary.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Requests received (including malformed ones).
    pub requests: AtomicU64,
    /// Terminal responses produced.
    pub answered: AtomicU64,
    /// Panics caught and isolated.
    pub panics: AtomicU64,
    /// Responses served by a non-primary tier or after budget expiry.
    pub degraded: AtomicU64,
    /// Lines that failed to parse as requests.
    pub bad_requests: AtomicU64,
    /// Requests shed by the bounded queue (counted by the server).
    pub overloaded: AtomicU64,
    /// Responses served per tier.
    pub tier_policy: AtomicU64,
    /// Responses served by budgeted fresh training.
    pub tier_train: AtomicU64,
    /// Responses served by the EDA baseline tier.
    pub tier_eda: AtomicU64,
    /// Responses served by the last-resort partial planner.
    pub tier_partial: AtomicU64,
}

/// A resolved dataset plus its precomputed constraint signature (the
/// signature is pure in the instance, so computing it once at resolve
/// time keeps it off the per-request path).
struct DatasetEntry {
    instance: PlanningInstance,
    params: PlannerParams,
    signature: u64,
}

/// The long-lived request engine (shared across worker threads).
pub struct ServeEngine {
    config: ServeConfig,
    /// Datasets are immutable once generated; cache them warm.
    datasets: Mutex<HashMap<String, Arc<DatasetEntry>>>,
    /// The policy cache + single-flight table.
    pub cache: PolicyCache,
    /// Counters for `stats` responses and the exit summary.
    pub counters: EngineCounters,
    /// Transport readiness, drain flag and connection accounting —
    /// updated by whichever transport fronts this engine, reported by
    /// the `health` / `stats` ops.
    pub transport: TransportState,
    /// Circuit breaker shared by every checkpoint load.
    pub breaker: CircuitBreaker,
    /// Poison-pill quarantine keyed on the cache's policy identity.
    pub quarantine: Quarantine,
    started: Instant,
    ordinal: AtomicU64,
    /// Ring buffer of recent events, dumped on incidents (see
    /// [`ServeConfig::flight_dir`]).
    flight: Option<Arc<tpp_obs::FlightRecorder>>,
    flight_seq: AtomicU64,
}

/// What one fallback tier produced.
struct TierResult {
    plan: Plan,
    tier: &'static str,
    retries: u32,
    episodes: Option<u64>,
    /// Served from (or coalesced onto) a cached policy.
    cached: bool,
    /// Checkpoint generation the policy came from (`policy` tier only).
    generation: Option<u64>,
}

/// One member of a batch (see [`ServeEngine::handle_batch`]): the raw
/// request line plus the trace context minted at ingestion.
pub struct BatchItem<'a> {
    /// The raw request line.
    pub line: &'a str,
    /// Trace context minted at ingestion.
    pub trace: tpp_obs::TraceCtx,
}

/// A planning request as settled at intake: its dataset, start item and
/// planner parameters, and its own deadline clock.
struct Target {
    name: String,
    ds: Arc<DatasetEntry>,
    start: ItemId,
    /// The dataset's parameters at `start` (for `plan`, with the
    /// request's capped episode count).
    params: PlannerParams,
    /// The member's own deadline, running from intake.
    budget: Budget,
}

impl Target {
    /// The request's quarantine identity: the same (dataset, constraint
    /// signature, source) triple the policy cache keys on — except
    /// `recommend` keys are generation-agnostic (token 0), because a
    /// request shape that kills workers does so regardless of which
    /// checkpoint generation is newest.
    fn quarantine_key(&self, req: &Request) -> PolicyKey {
        let source = match req.op {
            Op::Plan => PolicySource::Trained {
                seed: req.seed,
                episodes: self.params.episodes as u64,
                start: self.start.0 as usize,
            },
            _ => PolicySource::Checkpoint { token: 0 },
        };
        PolicyKey {
            dataset: self.name.clone(),
            signature: self.ds.signature,
            source,
        }
    }
}

/// One batch member after intake.
struct Member {
    parsed: Result<Request, String>,
    /// Planning ops only: the settled target, or why it did not settle.
    target: Option<Result<Target, String>>,
    faults: Vec<ChaosFault>,
    ordinal: u64,
    started: Instant,
}

impl Member {
    /// The settled target of a planning request.
    fn target(&self) -> Option<&Target> {
        self.target.as_ref()?.as_ref().ok()
    }
}

/// A policy resolution: one cache lookup, one checkpoint deserialize,
/// one training run if cold — whatever the primary tier needs before
/// its rollout.
struct SharedResolution {
    policy: Arc<CachedPolicy>,
    tier: &'static str,
    retries: u32,
    /// Served from (or coalesced onto) a cached policy.
    cached: bool,
}

/// What the members of one batch share.
struct BatchShare {
    size: usize,
    /// The most generous member deadline, counted from intake: the
    /// resolution serves everyone, so it may use the longest runway any
    /// member paid for.
    budget: Budget,
    /// Filled by the first planning member that reaches its primary
    /// tier. A failed or panicked resolution is stored too, so no
    /// member runs it again.
    slot: OnceCell<Result<SharedResolution, String>>,
}

impl ServeEngine {
    /// Creates an engine with the given configuration. When
    /// [`ServeConfig::flight_dir`] is set this installs the flight
    /// recorder as a process-wide sink (the caller owns sink teardown
    /// via [`tpp_obs::clear_sinks`] at session end).
    pub fn new(config: ServeConfig) -> Self {
        let cache = PolicyCache::new(config.cache.clone());
        let flight = config.flight_dir.as_ref().map(|dir| {
            let _ = std::fs::create_dir_all(dir);
            let recorder = Arc::new(tpp_obs::FlightRecorder::new(
                config.flight_capacity.max(1),
                Level::Debug,
            ));
            tpp_obs::add_sink(recorder.clone() as Arc<dyn tpp_obs::Sink>);
            recorder
        });
        let breaker = CircuitBreaker::new(config.breaker.clone());
        let quarantine = Quarantine::new(config.quarantine.clone());
        // Publish the self-healing gauges at construction so the
        // Prometheus exposition carries the series before any incident
        // moves them.
        let m = tpp_obs::metrics();
        m.gauge("serve.breaker.state").set(0.0);
        m.gauge("serve.quarantine.size").set(0.0);
        m.gauge("serve.workers_alive").set(0.0);
        ServeEngine {
            config,
            datasets: Mutex::new(HashMap::new()),
            cache,
            counters: EngineCounters::default(),
            transport: TransportState::default(),
            breaker,
            quarantine,
            started: Instant::now(),
            ordinal: AtomicU64::new(0),
            flight,
            flight_seq: AtomicU64::new(0),
        }
    }

    /// Writes the flight-recorder ring to a post-mortem JSONL file in
    /// the configured directory. `reason` ∈ {panic, shed, deadline,
    /// slow, worker, wedged, pool}; the filename carries a sequence
    /// number, the reason and the current trace id so incidents map
    /// back to requests. `pub(crate)` so the worker-pool supervisor
    /// can dump on worker deaths.
    pub(crate) fn dump_flight(&self, reason: &str) {
        let (Some(recorder), Some(dir)) = (&self.flight, &self.config.flight_dir) else {
            return;
        };
        let seq = self.flight_seq.fetch_add(1, Ordering::Relaxed);
        let trace = tpp_obs::trace::current()
            .map(|c| tpp_obs::trace::hex(c.trace_id))
            .unwrap_or_else(|| "untraced".to_owned());
        let path = dir.join(format!("flight-{seq:05}-{reason}-{trace}.jsonl"));
        match recorder.dump_to_file(&path) {
            Ok(()) => {
                tpp_obs::metrics()
                    .counter(&format!("serve.flight.{reason}"))
                    .inc();
                obs_event!(
                    Level::Warn,
                    "serve.flight_dumped",
                    reason = reason,
                    path = path.display().to_string(),
                );
            }
            Err(e) => {
                obs_event!(
                    Level::Warn,
                    "serve.flight_dump_failed",
                    reason = reason,
                    error = e.to_string(),
                );
            }
        }
    }

    /// Handles one raw input line; always returns one response line.
    /// It is a batch of one through [`handle_batch`](Self::handle_batch),
    /// under the caller's trace context: the server's workers install
    /// the one minted at ingestion, and direct callers (tests, one-shot
    /// tools) get a fresh root here.
    pub fn handle_line(&self, line: &str) -> String {
        let trace = tpp_obs::trace::current().unwrap_or_else(tpp_obs::TraceCtx::root);
        let mut response = String::new();
        self.handle_batch(&[BatchItem { line, trace }], &mut |_, r| response = r);
        response
    }

    /// Handles a batch of requests and delivers exactly one response
    /// per member. `deliver` is called with `(member index, response)`
    /// as each response is produced, so early members reach their
    /// connections while later ones serialize. Nothing here panics out:
    /// each member runs under its own `catch_unwind`, down to the floor
    /// tier. The one exception is a chaos worker-kill, which escapes on
    /// purpose so the supervisor sees a death.
    ///
    /// The members of a batch of two or more must share a batch key
    /// (the worker pool drains them that way), because they share one
    /// policy resolution. Each member keeps its own ordinal (chaos
    /// faults stay keyed to arrival order), trace context, deadline,
    /// rollout, panic isolation and latency metrics.
    pub fn handle_batch(&self, members: &[BatchItem<'_>], deliver: &mut dyn FnMut(usize, String)) {
        // Intake in arrival order, before any work, so chaos schedules
        // and the request counter see the same sequence a sequential
        // worker would have produced, and every member's deadline clock
        // starts before the batch does any work.
        let intake: Vec<Member> = members.iter().map(|m| self.intake(m)).collect();
        let n = members.len() as u64;
        if n > 1 {
            let t = &self.transport;
            t.batches_formed.fetch_add(1, Ordering::Relaxed);
            t.batch_members.fetch_add(n, Ordering::Relaxed);
            t.amortized_loads.fetch_add(n - 1, Ordering::Relaxed);
            let m = tpp_obs::metrics();
            m.counter("serve.batch.formed").inc();
            m.counter("serve.batch.amortized_loads").add(n - 1);
            m.histogram("serve.batch.size").record(n);
            obs_event!(Level::Info, "serve.batch", size = n);
        }
        let share = BatchShare {
            size: members.len(),
            budget: batch_budget(&intake),
            slot: OnceCell::new(),
        };

        for (i, (item, member)) in members.iter().zip(&intake).enumerate() {
            let _trace = tpp_obs::trace::enter(item.trace);
            let (op_name, response) = match &member.parsed {
                Err(msg) => {
                    self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                    tpp_obs::metrics().counter("serve.bad_request").inc();
                    // Even unparsable requests stay correlatable when the
                    // raw line carried a recoverable string id.
                    let resp = JsonObj::new()
                        .bool("ok", false)
                        .nullable_str("id", extract_raw_id(item.line).as_deref())
                        .str("error", &format!("bad_request: {msg}"))
                        .finish();
                    ("bad_request", resp)
                }
                Ok(req) => {
                    let op_name = req.op.as_str();
                    let mut span = tpp_obs::span(Level::Debug, "serve.request")
                        .with("op", op_name)
                        .with("ordinal", member.ordinal);
                    if n > 1 {
                        span.record("batched", true);
                    }
                    let resp =
                        catch_unwind(AssertUnwindSafe(|| self.dispatch(req, member, &share)))
                            .unwrap_or_else(|payload| {
                                // This request shape just panicked or killed a
                                // worker: one quarantine strike either way.
                                if let Some(target) = member.target() {
                                    self.quarantine.strike(&target.quarantine_key(req));
                                }
                                if payload.is::<WorkerKill>() {
                                    // The one panic allowed past per-request
                                    // isolation: a chaos worker-kill resumes
                                    // its unwind so the death reaches the
                                    // supervisor — the worker's rescue guard
                                    // answers this member and every later one.
                                    tpp_obs::metrics().counter("serve.chaos_kill").inc();
                                    obs_event!(Level::Error, "serve.chaos_kill", op = op_name);
                                    std::panic::resume_unwind(payload);
                                }
                                self.answer_after_panic(req, member, &share, &payload)
                            });
                    (op_name, resp)
                }
            };
            let elapsed = member.started.elapsed();
            tpp_obs::metrics()
                .histogram("serve.latency_ms")
                .record(elapsed.as_millis() as u64);
            tpp_obs::metrics()
                .histogram(&format!("serve.op.{op_name}_us"))
                .record_duration(elapsed);
            if self
                .config
                .slow_request_ms
                .is_some_and(|ms| elapsed.as_millis() as u64 > ms)
            {
                obs_event!(
                    Level::Warn,
                    "serve.slow_request",
                    op = op_name,
                    elapsed_ms = elapsed.as_millis() as u64,
                );
                self.dump_flight("slow");
            }
            self.counters.answered.fetch_add(1, Ordering::Relaxed);
            deliver(i, response);
        }
    }

    /// Takes one member in, under its own trace: ordinal, request
    /// counters, parse, chaos faults and, for a planning op, its target.
    fn intake(&self, item: &BatchItem<'_>) -> Member {
        let ordinal = self.ordinal.fetch_add(1, Ordering::Relaxed) + 1;
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        tpp_obs::metrics().counter("serve.requests").inc();
        let _trace = tpp_obs::trace::enter(item.trace);
        let started = Instant::now();
        let parsed = parse_request(item.line);
        let target = match &parsed {
            Ok(req) if matches!(req.op, Op::Plan | Op::Recommend) => Some(
                catch_unwind(AssertUnwindSafe(|| self.target(req))).unwrap_or_else(|payload| {
                    self.note_panic(&payload);
                    Err(format!("internal: {}", panic_message(&payload)))
                }),
            ),
            _ => None,
        };
        Member {
            parsed,
            target,
            faults: self.config.chaos.take(ordinal),
            ordinal,
            started,
        }
    }

    /// Resolves a planning request's dataset and start, then starts its
    /// deadline clock. The clock starts before any chaos stall, so a
    /// stalled handler visibly eats its own deadline — exactly what a
    /// production stall would do.
    fn target(&self, req: &Request) -> Result<Target, String> {
        let name = req
            .dataset
            .as_deref()
            .ok_or_else(|| "missing \"dataset\"".to_owned())?;
        let ds = self.dataset(name)?;
        let start = self.resolve_start(&ds.instance, req.start.as_deref())?;
        let mut params = ds.params.clone().with_start(start);
        if req.op == Op::Plan {
            params.episodes = req
                .episodes
                .unwrap_or(params.episodes as u64)
                .min(self.config.max_episodes) as usize;
        }
        let budget = match req.deadline_ms.or(self.config.default_deadline_ms) {
            Some(ms) => Budget::unlimited().with_deadline(Duration::from_millis(ms)),
            None => Budget::unlimited(),
        };
        Ok(Target {
            name: name.to_owned(),
            ds,
            start,
            params,
            budget,
        })
    }

    /// Builds the `overloaded` shed response for a raw line (called by
    /// the server when the bounded queue is full; counts as answered).
    pub fn overloaded_response(&self, line: &str) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        self.counters.answered.fetch_add(1, Ordering::Relaxed);
        tpp_obs::metrics().counter("serve.requests").inc();
        tpp_obs::metrics().counter("serve.overloaded").inc();
        obs_event!(Level::Warn, "serve.shed", reason = "queue_full");
        self.dump_flight("shed");
        // Shed requests must stay correlatable: echo the id whenever
        // the raw line is a JSON object carrying one — even if the
        // request would not have parsed — and emit an explicit
        // `"id": null` otherwise so clients can rely on the key.
        let id = extract_raw_id(line);
        JsonObj::new()
            .bool("ok", false)
            .nullable_str("id", id.as_deref())
            .str("error", "overloaded")
            .finish()
    }

    /// Builds the terminal `bad_request` response for a line the
    /// framing layer rejected before it could become a request —
    /// over-cap length or invalid UTF-8. The raw bytes are gone (or
    /// unparsable by construction), so the id is an explicit `null`.
    /// The session stays alive; only this line is answered and dropped.
    pub fn framing_error_response(&self, why: &str) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        self.counters.answered.fetch_add(1, Ordering::Relaxed);
        tpp_obs::metrics().counter("serve.requests").inc();
        tpp_obs::metrics().counter("serve.bad_request").inc();
        obs_event!(Level::Warn, "serve.framing_rejected", reason = why);
        JsonObj::new()
            .bool("ok", false)
            .nullable_str("id", None)
            .str("error", &format!("bad_request: {why}"))
            .finish()
    }

    fn dispatch(&self, req: &Request, member: &Member, share: &BatchShare) -> String {
        let faults = &member.faults;
        if faults.contains(&ChaosFault::KillWorker) {
            // Raised as a typed marker so `handle_batch` can recognize
            // it and deliberately let it escape (killing the worker).
            std::panic::panic_any(WorkerKill);
        }
        if faults.contains(&ChaosFault::Panic) {
            panic!("chaos: injected panic while handling request");
        }
        if faults.contains(&ChaosFault::CorruptCheckpoint) {
            self.corrupt_newest_checkpoint();
        }
        // Stalls burn the request's own budget, so they are applied
        // inside answer_planning.
        self.answer(req, member, faults, share, None)
    }

    /// Answers a request whose panic-type chaos faults already fired:
    /// control ops directly, planning ops down the fallback chain.
    /// `panicked` names why the primary tier is skipped after a
    /// dispatch panic.
    fn answer(
        &self,
        req: &Request,
        member: &Member,
        faults: &[ChaosFault],
        share: &BatchShare,
        panicked: Option<String>,
    ) -> String {
        match &member.target {
            Some(Ok(target)) => self.answer_planning(req, target, faults, share, panicked),
            Some(Err(msg)) => self.error_response(req, msg),
            None => match req.op {
                Op::Health => self.health_response(req),
                Op::Stats => self.stats_response(req),
                Op::Metrics => self.metrics_response(req),
                Op::Shutdown => self.shutdown_response(req),
                Op::Plan | Op::Recommend => unreachable!("intake gives planning ops a target"),
            },
        }
    }

    /// `shutdown` op: flips the drain flag (idempotently) and
    /// acknowledges. The transport notices the flag at its next poll
    /// tick: the listener stops accepting, readers stop reading, and
    /// everything already in flight is answered before exit.
    fn shutdown_response(&self, req: &Request) -> String {
        let initiated = self.transport.begin_drain();
        obs_event!(
            Level::Info,
            "serve.shutdown_requested",
            initiated = initiated
        );
        JsonObj::new()
            .bool("ok", true)
            .opt_str("id", req.id.as_deref())
            .str("op", "shutdown")
            .bool("draining", true)
            .bool("initiated", initiated)
            .finish()
    }

    /// The planning path: the member's chaos stalls, then the primary
    /// tier (skipped after a dispatch panic or while the key is
    /// quarantined), then the degradation chain.
    fn answer_planning(
        &self,
        req: &Request,
        target: &Target,
        faults: &[ChaosFault],
        share: &BatchShare,
        panicked: Option<String>,
    ) -> String {
        let Target {
            name, ds, budget, ..
        } = target;
        let instance = &ds.instance;
        for f in faults {
            match f {
                ChaosFault::Stall(d) => {
                    obs_event!(
                        Level::Warn,
                        "serve.chaos_stall",
                        millis = d.as_millis() as u64
                    );
                    std::thread::sleep(*d);
                }
                // A wedge is a stall long enough to trip the
                // supervisor's progress budget: the worker sleeps here
                // while the supervisor retires and replaces it. The
                // request still answers when the sleep ends.
                ChaosFault::Wedge(d) => {
                    obs_event!(
                        Level::Warn,
                        "serve.chaos_wedge",
                        millis = d.as_millis() as u64
                    );
                    std::thread::sleep(*d);
                }
                _ => {}
            }
        }

        let after_panic = panicked.is_some();
        let mut fell_back_because: Vec<String> = panicked.into_iter().collect();
        let primary: &'static str = match req.op {
            Op::Plan => "train",
            _ => "policy",
        };
        // Poison-pill gate: a key that has repeatedly panicked the
        // engine skips the primary tier entirely for its cooldown —
        // the EDA/partial chain answers immediately instead of feeding
        // the poison to another worker.
        let quarantined_for = if after_panic {
            None
        } else {
            self.quarantine.active(&target.quarantine_key(req))
        };
        if let Some(remaining) = quarantined_for {
            fell_back_because.push(format!(
                "quarantined: key panicked repeatedly; cooling down for {}ms",
                remaining.as_millis()
            ));
            obs_event!(
                Level::Warn,
                "serve.quarantine_hit",
                dataset = name.as_str(),
                remaining_ms = remaining.as_millis() as u64,
            );
        }
        let result = if fell_back_because.is_empty() {
            self.primary_tier(req, target, faults, share, &mut fell_back_because)
        } else {
            None
        }
        .or_else(|| self.try_eda_tier(req, target, &mut fell_back_because))
        .or_else(|| self.try_partial_tier(target, &mut fell_back_because));

        let Some(result) = result else {
            // Even the floor panicked — answer with an error, stay alive.
            return self
                .error_response(req, &format!("internal: {}", fell_back_because.join("; ")));
        };

        // The member's own deadline shaped no compute here (the primary
        // tier runs under the batch budget; a cache hit or a fallback
        // tier runs under none), so consult it before it shapes the
        // response: a member whose deadline passed while it waited is
        // tagged like any other late answer.
        budget.poll();
        let degraded = result.tier != primary || budget.expired();
        if degraded {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
            tpp_obs::metrics().counter("serve.degraded").inc();
        }
        self.tier_counter(result.tier)
            .fetch_add(1, Ordering::Relaxed);
        tpp_obs::metrics()
            .counter(&format!("serve.tier.{}", result.tier))
            .inc();
        obs_event!(
            Level::Info,
            "serve.answered",
            op = req.op.as_str(),
            dataset = name.as_str(),
            tier = result.tier,
            degraded = degraded,
            cached = result.cached,
        );

        let response = phase_timed("serialize", || {
            let violations = plan_violations(instance, &result.plan);
            let obj = JsonObj::new().bool("ok", true);
            // A panic answer promises the `id` key, `null` if need be.
            let obj = if after_panic {
                obj.nullable_str("id", req.id.as_deref())
            } else {
                obj.opt_str("id", req.id.as_deref())
            };
            let mut obj = obj
                .str("op", req.op.as_str())
                .str("dataset", name)
                .str("tier", result.tier)
                .bool("degraded", degraded)
                .bool("cached", result.cached)
                .bool("deadline_expired", budget.expired())
                .u64("retries", result.retries as u64);
            if quarantined_for.is_some() {
                obj = obj.bool("quarantined", true);
            }
            if share.size > 1 {
                obj = obj
                    .bool("batched", true)
                    .u64("batch_size", share.size as u64);
            }
            if let Some(episodes) = result.episodes {
                obj = obj.u64("episodes", episodes);
            }
            if let Some(generation) = result.generation {
                obj = obj.u64("generation", generation);
            }
            obj = obj
                .str_arr(
                    "plan",
                    result
                        .plan
                        .items()
                        .iter()
                        .map(|&id| instance.catalog.item(id).code.as_str()),
                )
                .f64(
                    "score",
                    score_with_violations(instance, &result.plan, &violations),
                )
                .u64("violations", violations.len() as u64);
            if !fell_back_because.is_empty() {
                obj = obj.str_arr("fallbacks", fell_back_because.iter().map(String::as_str));
            }
            obj.finish()
        });
        if budget.expired() {
            self.dump_flight("deadline");
        }
        response
    }

    /// Tier 1: the batch's policy resolution, run here by the first
    /// member to arrive and reused by every later one, then this
    /// member's own rollout. Both are panic-isolated. `None` → fall
    /// down the chain.
    fn primary_tier(
        &self,
        req: &Request,
        target: &Target,
        faults: &[ChaosFault],
        share: &BatchShare,
        reasons: &mut Vec<String>,
    ) -> Option<TierResult> {
        let mut led = false;
        let resolution = share.slot.get_or_init(|| {
            led = true;
            let budget = &share.budget;
            let flaky_load = faults.contains(&ChaosFault::FlakyLoad);
            catch_unwind(AssertUnwindSafe(|| match req.op {
                Op::Plan => self.resolve_trained(req, target, budget),
                _ => self.resolve_checkpoint(target, budget, flaky_load),
            }))
            .unwrap_or_else(|payload| {
                // The resolution panicked on this key: one quarantine
                // strike (K of these and the key is served degraded
                // without touching the planning stack at all).
                self.quarantine.strike(&target.quarantine_key(req));
                self.note_panic(&payload);
                Err(format!("panicked ({})", panic_message(&payload)))
            })
        });
        let resolved = match resolution {
            Ok(resolved) => resolved,
            Err(e) => {
                obs_event!(
                    Level::Warn,
                    "serve.tier_failed",
                    tier = "primary",
                    error = e
                );
                reasons.push(format!("primary: {e}"));
                return None;
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let plan = recommend_timed(
                &resolved.policy.q,
                &target.ds.instance,
                &target.params,
                target.start,
            );
            Ok(TierResult {
                plan,
                tier: resolved.tier,
                retries: resolved.retries,
                episodes: resolved.policy.episodes,
                // The member that ran the resolution reports its true
                // cache outcome; every later one shares its `Arc`.
                cached: resolved.cached || !led,
                generation: resolved.policy.generation,
            })
        }));
        if outcome.is_err() {
            self.quarantine.strike(&target.quarantine_key(req));
        }
        self.settle_tier("primary", outcome, reasons)
    }

    /// Resolves the trained policy for a `plan` request behind the
    /// cache: a burst of identical requests (same dataset, seed,
    /// episodes, start) costs one training run — the leader trains,
    /// followers coalesce, later requests hit the cached `Arc`.
    fn resolve_trained(
        &self,
        req: &Request,
        target: &Target,
        budget: &Budget,
    ) -> Result<SharedResolution, String> {
        // Budgeted SARSA for this request alone, not yet cached.
        let train = || -> Result<SharedResolution, String> {
            let (q, episodes) = phase_timed("train", || {
                Self::train_policy(&target.ds.instance, &target.params, req.seed, budget)
            })?;
            Ok(SharedResolution {
                policy: Arc::new(CachedPolicy {
                    q,
                    episodes: Some(episodes),
                    generation: None,
                }),
                tier: "train",
                retries: 0,
                cached: false,
            })
        };
        if !self.cache.is_enabled() {
            return train();
        }

        let key = PolicyKey {
            dataset: target.name.clone(),
            signature: target.ds.signature,
            source: PolicySource::Trained {
                seed: req.seed,
                episodes: target.params.episodes as u64,
                start: target.start.0 as usize,
            },
        };
        let mut span = tpp_obs::span(Level::Debug, "serve.cache").with("op", "plan");
        match phase_timed("cache_lookup", || {
            self.cache.lookup(key, follower_wait(budget))
        }) {
            Lookup::Hit(policy) | Lookup::Coalesced(policy) => {
                span.record("outcome", "shared");
                Ok(SharedResolution {
                    policy,
                    tier: "train",
                    retries: 0,
                    cached: true,
                })
            }
            Lookup::Lead(guard) => {
                span.record("outcome", "lead");
                // The guard's Drop fails the flight if training panics,
                // so followers wake and fall back instead of wedging.
                let resolved = match train() {
                    Ok(resolved) => resolved,
                    Err(e) => {
                        guard.fail(&e);
                        return Err(e);
                    }
                };
                if budget.expired() {
                    // A partial policy answers this request (and any
                    // coalesced followers, who share its deadline fate)
                    // but is not representative — keep it out of the
                    // cache so the next cold request trains fully.
                    guard.fulfill_uncached(Arc::clone(&resolved.policy));
                } else {
                    guard.fulfill(Arc::clone(&resolved.policy));
                }
                Ok(resolved)
            }
            Lookup::LeaderFailed(reason) => {
                span.record("outcome", "leader_failed");
                obs_event!(Level::Warn, "serve.cache.leader_failed", reason = &reason);
                // Compute solo and uncached — the leader's failure may
                // have been its own deadline, not a property of the key.
                train()
            }
        }
    }

    /// Resolves the checkpoint policy for a `recommend` request behind
    /// the cache. The key carries the newest generation's stamp token,
    /// so rotation *and* in-place rewrites change the key — a
    /// corrupt-then-fallback load is cached under the new token, never
    /// served as a stale hit of the old one.
    fn resolve_checkpoint(
        &self,
        target: &Target,
        budget: &Budget,
        flaky_load: bool,
    ) -> Result<SharedResolution, String> {
        let instance = &target.ds.instance;
        let dir = self
            .config
            .checkpoint_dir
            .as_ref()
            .ok_or_else(|| "no checkpoint directory configured".to_owned())?;
        let set = tpp_store::CheckpointSet::new(&tpp_store::RealFs, dir, 1);
        // One budget-capped load for this request alone, not yet cached.
        let load = || {
            phase_timed("checkpoint_load", || -> Result<SharedResolution, String> {
                // Circuit breaker: while open, skip the store entirely
                // and degrade now — the whole deadline goes to tiers
                // that can answer, instead of rediscovering per-request
                // that the store is down.
                if let Admission::FastFail { retry_in } = self.breaker.admit() {
                    return Err(format!(
                        "breaker open: checkpoint store cooling down for {}ms",
                        retry_in.as_millis()
                    ));
                }
                let (loaded, retries) =
                    with_backoff_budgeted(&self.config.backoff, Some(budget), || {
                        if flaky_load {
                            return Err(StoreError::Io(std::io::Error::new(
                                std::io::ErrorKind::Interrupted,
                                "chaos: flaky checkpoint load",
                            )));
                        }
                        set.load_latest()
                    });
                // Transient final errors feed the breaker; successes and
                // permanent errors both mean the store answered, which
                // closes it.
                match &loaded {
                    Err(e) if e.is_retryable() => self.breaker.record_failure(),
                    _ => self.breaker.record_success(),
                }
                let (generation, ckpt) = loaded
                    .map_err(|e| format!("checkpoint load failed: {e}"))?
                    .ok_or_else(|| format!("no checkpoints in {}", dir.display()))?;
                if ckpt.q.n_states() != instance.catalog.len() {
                    return Err(format!(
                        "checkpoint has {} states, dataset has {} items",
                        ckpt.q.n_states(),
                        instance.catalog.len()
                    ));
                }
                obs_event!(
                    Level::Debug,
                    "serve.policy_loaded",
                    generation = generation,
                    episode = ckpt.episode,
                );
                Ok(SharedResolution {
                    policy: Arc::new(CachedPolicy {
                        q: ckpt.q,
                        episodes: None,
                        generation: Some(generation),
                    }),
                    tier: "policy",
                    retries,
                    cached: false,
                })
            })
        };
        if !self.cache.is_enabled() {
            return load();
        }

        // Cheap probe (read_dir + stat, no payload I/O): the stamp
        // token keys the cache entry, and any token change reaps the
        // previous generation's entries.
        let stamp = set
            .observe_newest()
            .map_err(|e| format!("checkpoint observe failed: {e}"))?
            .ok_or_else(|| format!("no checkpoints in {}", dir.display()))?;
        let token = stamp.token();
        self.cache.invalidate_checkpoints(&target.name, token);
        let key = PolicyKey {
            dataset: target.name.clone(),
            signature: target.ds.signature,
            source: PolicySource::Checkpoint { token },
        };
        let mut span = tpp_obs::span(Level::Debug, "serve.cache").with("op", "recommend");
        match phase_timed("cache_lookup", || {
            self.cache.lookup(key, follower_wait(budget))
        }) {
            Lookup::Hit(policy) | Lookup::Coalesced(policy) => {
                span.record("outcome", "shared");
                Ok(SharedResolution {
                    policy,
                    tier: "policy",
                    retries: 0,
                    cached: true,
                })
            }
            Lookup::Lead(guard) => {
                span.record("outcome", "lead");
                let resolved = match load() {
                    Ok(resolved) => resolved,
                    Err(e) => {
                        guard.fail(&e);
                        return Err(e);
                    }
                };
                guard.fulfill(Arc::clone(&resolved.policy));
                Ok(resolved)
            }
            Lookup::LeaderFailed(reason) => {
                span.record("outcome", "leader_failed");
                obs_event!(Level::Warn, "serve.cache.leader_failed", reason = &reason);
                load()
            }
        }
    }

    /// Runs budgeted SARSA and returns the raw Q-table plus episodes
    /// actually completed.
    fn train_policy(
        instance: &PlanningInstance,
        params: &PlannerParams,
        seed: u64,
        budget: &Budget,
    ) -> Result<(QTable, u64), String> {
        let (policy, stats) =
            RlPlanner::learn_budgeted(instance, params, seed, None, 0, budget, |_| Ok(()))
                .map_err(|e| format!("training failed: {e}"))?;
        Ok((policy.q, stats.episodes() as u64))
    }

    /// Tier 2: the myopic EDA baseline.
    fn try_eda_tier(
        &self,
        req: &Request,
        target: &Target,
        reasons: &mut Vec<String>,
    ) -> Option<TierResult> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let plan = tpp_baselines::eda_plan(
                &target.ds.instance,
                &target.params,
                target.start,
                req.seed,
            );
            Ok(TierResult {
                plan,
                tier: "eda",
                retries: 0,
                episodes: None,
                cached: false,
                generation: None,
            })
        }));
        self.settle_tier("eda", outcome, reasons)
    }

    /// Tier 3 (the floor): deterministic partial plan.
    fn try_partial_tier(&self, target: &Target, reasons: &mut Vec<String>) -> Option<TierResult> {
        let instance = &target.ds.instance;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let plan = tpp_baselines::degraded_partial_plan(
                instance,
                &target.params,
                target.start,
                instance.catalog.len(),
            );
            Ok(TierResult {
                plan,
                tier: "partial",
                retries: 0,
                episodes: None,
                cached: false,
                generation: None,
            })
        }));
        self.settle_tier("partial", outcome, reasons)
    }

    /// Unwraps one tier's `catch_unwind` outcome, recording why it did
    /// not serve (panic or error) so the response can list it.
    fn settle_tier(
        &self,
        tier: &str,
        outcome: Result<Result<TierResult, String>, Box<dyn std::any::Any + Send>>,
        reasons: &mut Vec<String>,
    ) -> Option<TierResult> {
        match outcome {
            Ok(Ok(result)) => Some(result),
            Ok(Err(msg)) => {
                obs_event!(Level::Warn, "serve.tier_failed", tier = tier, error = &msg);
                reasons.push(format!("{tier}: {msg}"));
                None
            }
            Err(payload) => {
                self.note_panic(&payload);
                reasons.push(format!("{tier}: panicked ({})", panic_message(&payload)));
                None
            }
        }
    }

    /// Counts and reports one isolated panic, then dumps the flight
    /// recorder — the ring holds the events leading up to the panic,
    /// which is exactly the post-mortem a crash log cannot give.
    fn note_panic(&self, payload: &Box<dyn std::any::Any + Send>) {
        self.counters.panics.fetch_add(1, Ordering::Relaxed);
        tpp_obs::metrics().counter("serve.panic").inc();
        obs_event!(
            Level::Error,
            "serve.panic_isolated",
            message = panic_message(payload),
        );
        self.dump_flight("panic");
    }

    /// Fallback after the whole dispatch panicked (e.g. an injected
    /// chaos panic before tier selection): a control op is retried
    /// fault-free (chaos fires once), a planning op runs the
    /// degradation chain without the primary tier. This path must not
    /// be able to panic out.
    fn answer_after_panic(
        &self,
        req: &Request,
        member: &Member,
        share: &BatchShare,
        payload: &Box<dyn std::any::Any + Send>,
    ) -> String {
        self.note_panic(payload);
        let panicked = format!("primary: panicked ({})", panic_message(payload));
        catch_unwind(AssertUnwindSafe(|| {
            self.answer(req, member, &[], share, Some(panicked))
        }))
        .unwrap_or_else(|_| {
            JsonObj::new()
                .bool("ok", false)
                .nullable_str("id", req.id.as_deref())
                .str("error", "internal: panic recovery failed")
                .finish()
        })
    }

    /// The terminal response a worker's rescue guard (or the pool's
    /// post-mortem drain) writes for a job whose handler died. Plain
    /// code only — this runs during an unwind.
    pub(crate) fn worker_crash_response(&self, line: &str) -> String {
        self.counters.answered.fetch_add(1, Ordering::Relaxed);
        JsonObj::new()
            .bool("ok", false)
            .nullable_str("id", extract_raw_id(line).as_deref())
            .str(
                "error",
                "internal: worker crashed while handling this request",
            )
            .bool("rescued", true)
            .finish()
    }

    fn tier_counter(&self, tier: &str) -> &AtomicU64 {
        match tier {
            "policy" => &self.counters.tier_policy,
            "train" => &self.counters.tier_train,
            "eda" => &self.counters.tier_eda,
            _ => &self.counters.tier_partial,
        }
    }

    /// `health` carries readiness semantics for load-balancer probes:
    /// `accepting` is `false` while draining or while the admission
    /// gate is saturated (connection limit reached or queue full), so
    /// a balancer can stop routing here *before* its next request is
    /// shed.
    fn health_response(&self, req: &Request) -> String {
        let t = &self.transport;
        JsonObj::new()
            .bool("ok", true)
            .opt_str("id", req.id.as_deref())
            .str("op", "health")
            .bool("accepting", t.accepting())
            .bool("draining", t.draining())
            .u64(
                "connections",
                t.connections.load(Ordering::Relaxed).max(0) as u64,
            )
            .u64(
                "queue_depth",
                t.queue_depth.load(Ordering::Relaxed).max(0) as u64,
            )
            .u64(
                "workers_alive",
                t.workers_alive.load(Ordering::SeqCst).max(0) as u64,
            )
            .str("breaker", self.breaker.state_name())
            .u64("quarantine_size", self.quarantine.len() as u64)
            .u64("uptime_ms", self.started.elapsed().as_millis() as u64)
            .u64("requests", self.counters.requests.load(Ordering::Relaxed))
            .u64(
                "panics_isolated",
                self.counters.panics.load(Ordering::Relaxed),
            )
            .finish()
    }

    fn stats_response(&self, req: &Request) -> String {
        let c = &self.counters;
        let cc = &self.cache.counters;
        let (cache_entries, cache_bytes) = self.cache.usage();
        let m = tpp_obs::metrics();
        JsonObj::new()
            .bool("ok", true)
            .opt_str("id", req.id.as_deref())
            .str("op", "stats")
            .u64("requests", c.requests.load(Ordering::Relaxed))
            .u64("answered", c.answered.load(Ordering::Relaxed))
            .u64("bad_requests", c.bad_requests.load(Ordering::Relaxed))
            .u64("overloaded", c.overloaded.load(Ordering::Relaxed))
            .u64("panics_isolated", c.panics.load(Ordering::Relaxed))
            .u64("degraded", c.degraded.load(Ordering::Relaxed))
            .u64("tier_policy", c.tier_policy.load(Ordering::Relaxed))
            .u64("tier_train", c.tier_train.load(Ordering::Relaxed))
            .u64("tier_eda", c.tier_eda.load(Ordering::Relaxed))
            .u64("tier_partial", c.tier_partial.load(Ordering::Relaxed))
            .bool("cache_enabled", self.cache.is_enabled())
            .u64("cache_hits", cc.hits.load(Ordering::Relaxed))
            .u64("cache_misses", cc.misses.load(Ordering::Relaxed))
            .u64("cache_coalesced", cc.coalesced.load(Ordering::Relaxed))
            .u64("cache_evictions", cc.evictions.load(Ordering::Relaxed))
            .u64(
                "cache_invalidations",
                cc.invalidations.load(Ordering::Relaxed),
            )
            .u64("cache_entries", cache_entries as u64)
            .u64("cache_bytes", cache_bytes as u64)
            .bool("accepting", self.transport.accepting())
            .bool("draining", self.transport.draining())
            .u64(
                "connections",
                self.transport.connections.load(Ordering::Relaxed).max(0) as u64,
            )
            .u64(
                "conns_accepted",
                self.transport.conns_accepted.load(Ordering::Relaxed),
            )
            .u64(
                "conns_shed",
                self.transport.conns_shed.load(Ordering::Relaxed),
            )
            .u64(
                "conn_timeouts",
                self.transport.conn_timeouts.load(Ordering::Relaxed),
            )
            .u64(
                "overlong_lines",
                self.transport.overlong_lines.load(Ordering::Relaxed),
            )
            .u64(
                "undeliverable_responses",
                self.transport
                    .undeliverable_responses
                    .load(Ordering::Relaxed),
            )
            .u64(
                "workers_configured",
                self.transport.workers_configured.load(Ordering::Relaxed),
            )
            .u64(
                "workers_alive",
                self.transport.workers_alive.load(Ordering::SeqCst).max(0) as u64,
            )
            .u64(
                "worker_restarts",
                self.transport.worker_restarts.load(Ordering::Relaxed),
            )
            .u64(
                "worker_deaths",
                self.transport.worker_deaths.load(Ordering::Relaxed),
            )
            .u64(
                "worker_wedged",
                self.transport.worker_wedged.load(Ordering::Relaxed),
            )
            .u64(
                "worker_rescued",
                self.transport.worker_rescued.load(Ordering::Relaxed),
            )
            .u64("lock_recovered", m.counter("serve.lock_recovered").get())
            .u64(
                "batches_formed",
                self.transport.batches_formed.load(Ordering::Relaxed),
            )
            .u64(
                "batch_members",
                self.transport.batch_members.load(Ordering::Relaxed),
            )
            .u64(
                "amortized_loads",
                self.transport.amortized_loads.load(Ordering::Relaxed),
            )
            .str("breaker_state", self.breaker.state_name())
            .u64("breaker_opens", self.breaker.opens())
            .u64("breaker_closes", self.breaker.closes())
            .u64("breaker_fast_fails", self.breaker.fast_fails())
            .u64("breaker_probes", self.breaker.probes())
            .u64("quarantine_size", self.quarantine.len() as u64)
            .u64("quarantine_added", self.quarantine.added())
            .u64("quarantine_served", self.quarantine.served())
            .u64(
                "queue_depth",
                m.gauge("serve.queue_depth").get().max(0.0) as u64,
            )
            .raw(
                "queue_wait_us",
                &histogram_summary_json(&m.histogram("serve.queue_wait_us").summary()),
            )
            .raw("latency_us", &per_op_latency_json())
            .finish()
    }

    /// `metrics` op: the full registry, both as Prometheus-style text
    /// (for scrapers and humans) and as the JSON snapshot with raw
    /// histogram buckets (for `Metrics::from_snapshot` round-trips).
    fn metrics_response(&self, req: &Request) -> String {
        let m = tpp_obs::metrics();
        JsonObj::new()
            .bool("ok", true)
            .opt_str("id", req.id.as_deref())
            .str("op", "metrics")
            .str("prometheus", &m.render_prometheus())
            .raw("registry", &m.render_json())
            .finish()
    }

    fn error_response(&self, req: &Request, msg: &str) -> String {
        JsonObj::new()
            .bool("ok", false)
            .opt_str("id", req.id.as_deref())
            .str("op", req.op.as_str())
            .str("error", msg)
            .finish()
    }

    /// Dataset lookup with a warm cache (generation is deterministic,
    /// so cached and fresh instances are identical). A poisoned lock is
    /// recovered, not propagated: the map's entries are immutable
    /// `Arc`s, so an unwinding holder cannot leave them torn, and
    /// propagating would fail every later request for every dataset.
    fn dataset(&self, name: &str) -> Result<Arc<DatasetEntry>, String> {
        let lock_datasets = || {
            self.datasets.lock().unwrap_or_else(|poisoned| {
                crate::transport::count_lock_recovered("datasets");
                poisoned.into_inner()
            })
        };
        if let Some(ds) = lock_datasets().get(name) {
            return Ok(Arc::clone(ds));
        }
        let (instance, params) = resolve_dataset(name)?;
        let signature = constraint_signature(&instance);
        let ds = Arc::new(DatasetEntry {
            instance,
            params,
            signature,
        });
        lock_datasets().insert(name.to_owned(), Arc::clone(&ds));
        Ok(ds)
    }

    fn resolve_start(
        &self,
        instance: &PlanningInstance,
        code: Option<&str>,
    ) -> Result<ItemId, String> {
        match code {
            Some(code) => instance
                .catalog
                .by_code(code)
                .map(|i| i.id)
                .ok_or_else(|| format!("unknown item code {code:?}")),
            None => instance
                .default_start
                .ok_or_else(|| "dataset has no default start; pass \"start\"".to_owned()),
        }
    }

    /// Chaos: flip the payload bytes of the newest checkpoint
    /// generation so its checksum fails on the next load.
    fn corrupt_newest_checkpoint(&self) {
        let Some(dir) = &self.config.checkpoint_dir else {
            return;
        };
        let set = tpp_store::CheckpointSet::new(&tpp_store::RealFs, dir, 1);
        let Ok(gens) = set.generations() else { return };
        let Some(&newest) = gens.last() else { return };
        let path = set.generation_path(newest);
        if let Ok(mut bytes) = std::fs::read(&path) {
            // Keep the magic intact; flip everything after it so the
            // loader sees a checksum mismatch, not a foreign file.
            for b in bytes.iter_mut().skip(8) {
                *b ^= 0xFF;
            }
            let _ = std::fs::write(&path, &bytes);
            obs_event!(
                Level::Warn,
                "serve.chaos_corrupt",
                path = path.display().to_string(),
                generation = newest,
            );
        }
    }
}

/// The batch budget: the latest member deadline (none if any planning
/// member has none), counted from intake.
fn batch_budget(intake: &[Member]) -> Budget {
    let mut latest = Some(Duration::ZERO);
    for target in intake.iter().filter_map(Member::target) {
        latest = latest
            .zip(target.budget.remaining_time())
            .map(|(a, b)| a.max(b));
    }
    match latest {
        Some(d) => Budget::unlimited().with_deadline(d),
        None => Budget::unlimited(),
    }
}

/// How long a follower blocks on an in-flight leader before giving up
/// and computing solo: the request's own remaining deadline when it has
/// one (waiting longer than that is pointless — the answer would arrive
/// expired), else a generous default that still cannot wedge forever.
fn follower_wait(budget: &Budget) -> Duration {
    budget.remaining_time().unwrap_or(Duration::from_secs(30))
}

/// Times `f` into the fixed-purpose `serve.phase.<name>_us` histogram.
/// Phase names: `queue_wait` lives in its own histogram (measured by
/// the server), the rest are `cache_lookup`, `checkpoint_load`,
/// `train`, `plan`, `serialize`.
fn phase_timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    tpp_obs::metrics()
        .histogram(&format!("serve.phase.{name}_us"))
        .record_duration(started.elapsed());
    out
}

/// Greedy rollout from a Q-table, timed as the `plan` phase.
fn recommend_timed(
    q: &QTable,
    instance: &PlanningInstance,
    params: &PlannerParams,
    start: ItemId,
) -> Plan {
    phase_timed("plan", || {
        RlPlanner::recommend_with_q(q, instance, params, start)
    })
}

/// Renders a histogram summary as a flat JSON object (embedded via
/// [`JsonObj::raw`] in `stats` responses).
fn histogram_summary_json(s: &tpp_obs::HistogramSummary) -> String {
    JsonObj::new()
        .u64("count", s.count)
        .f64("mean", s.mean)
        .u64("p50", s.p50)
        .u64("p95", s.p95)
        .u64("p99", s.p99)
        .u64("p999", s.p999)
        .u64("max", s.max)
        .finish()
}

/// Per-op latency summaries from the `serve.op.<op>_us` histograms,
/// including only ops that have actually served at least one request.
fn per_op_latency_json() -> String {
    let m = tpp_obs::metrics();
    let mut obj = JsonObj::new();
    for op in [
        "plan",
        "recommend",
        "health",
        "stats",
        "metrics",
        "shutdown",
        "bad_request",
    ] {
        let s = m.histogram(&format!("serve.op.{op}_us")).summary();
        if s.count > 0 {
            obj = obj.raw(op, &histogram_summary_json(&s));
        }
    }
    obj.finish()
}

/// Human-readable text of a panic payload.
fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_obs::json::{parse, Json};

    fn engine() -> ServeEngine {
        ServeEngine::new(ServeConfig::default())
    }

    fn get<'a>(v: &'a Json, k: &str) -> &'a Json {
        v.get(k).unwrap_or_else(|| panic!("missing field {k:?}"))
    }

    #[test]
    fn health_and_stats_answer() {
        let e = engine();
        let h = parse(&e.handle_line(r#"{"op":"health","id":"h1"}"#)).unwrap();
        assert_eq!(get(&h, "ok"), &Json::Bool(true));
        assert_eq!(get(&h, "id").as_str(), Some("h1"));
        let s = parse(&e.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(get(&s, "requests").as_f64(), Some(2.0));
    }

    #[test]
    fn malformed_lines_get_bad_request() {
        let e = engine();
        let r = parse(&e.handle_line("this is not json")).unwrap();
        assert_eq!(get(&r, "ok"), &Json::Bool(false));
        assert!(get(&r, "error")
            .as_str()
            .unwrap()
            .starts_with("bad_request"));
        assert_eq!(e.counters.bad_requests.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unknown_dataset_is_a_terminal_error_response() {
        let e = engine();
        let r = parse(&e.handle_line(r#"{"op":"plan","dataset":"atlantis"}"#)).unwrap();
        assert_eq!(get(&r, "ok"), &Json::Bool(false));
        assert!(get(&r, "error").as_str().unwrap().contains("atlantis"));
    }

    #[test]
    fn plan_trains_and_answers_with_train_tier() {
        let e = engine();
        let line = r#"{"op":"plan","dataset":"ds-ct","episodes":40,"seed":1,"id":"p1"}"#;
        let r = parse(&e.handle_line(line)).unwrap();
        assert_eq!(get(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert_eq!(get(&r, "tier").as_str(), Some("train"));
        assert_eq!(get(&r, "degraded"), &Json::Bool(false));
        assert_eq!(get(&r, "episodes").as_f64(), Some(40.0));
        assert!(matches!(get(&r, "plan"), Json::Arr(items) if !items.is_empty()));
        // A lone request is a batch of one, but neither its response
        // nor the batch counters say so: only batches of two or more
        // count (`transport.batch_size_mean` divides by them).
        let hit = parse(&e.handle_line(line)).unwrap();
        for r in [&r, &hit] {
            assert!(r.get("batched").is_none(), "{r:?}");
            assert!(r.get("batch_size").is_none(), "{r:?}");
        }
        assert_eq!(get(&hit, "cached"), &Json::Bool(true));
        let t = &e.transport;
        assert_eq!(t.batches_formed.load(Ordering::Relaxed), 0);
        assert_eq!(t.batch_members.load(Ordering::Relaxed), 0);
        assert_eq!(t.amortized_loads.load(Ordering::Relaxed), 0);
    }

    /// Golden equivalence: a batch of identical plan requests must be
    /// answered bit-identically (plan, score, tier, cached, episodes)
    /// to the same requests served one at a time — batching may only
    /// amortize work, never change answers.
    #[test]
    fn batched_responses_are_bit_identical_to_sequential() {
        let line = r#"{"op":"plan","dataset":"ds-ct","episodes":40,"seed":3}"#;
        let seq_engine = engine();
        let sequential: Vec<Json> = (0..3)
            .map(|_| parse(&seq_engine.handle_line(line)).unwrap())
            .collect();

        let batch_engine = engine();
        let items: Vec<BatchItem> = (0..3)
            .map(|_| BatchItem {
                line,
                trace: tpp_obs::TraceCtx::root(),
            })
            .collect();
        let mut batched: Vec<Option<Json>> = vec![None, None, None];
        batch_engine.handle_batch(&items, &mut |i, resp| {
            batched[i] = Some(parse(&resp).unwrap());
        });

        for (i, (seq, bat)) in sequential.iter().zip(&batched).enumerate() {
            let bat = bat
                .as_ref()
                .unwrap_or_else(|| panic!("member {i} answered"));
            assert_eq!(get(bat, "batched"), &Json::Bool(true));
            assert_eq!(get(bat, "batch_size").as_f64(), Some(3.0));
            for field in ["ok", "tier", "degraded", "cached", "episodes", "violations"] {
                assert_eq!(get(seq, field), get(bat, field), "member {i} field {field}");
            }
            assert_eq!(
                get(seq, "plan"),
                get(bat, "plan"),
                "member {i} plan must be bit-identical"
            );
            let s = get(seq, "score").as_f64().unwrap();
            let b = get(bat, "score").as_f64().unwrap();
            assert_eq!(
                s.to_bits(),
                b.to_bits(),
                "member {i} score must be bit-identical"
            );
        }
        assert_eq!(
            batch_engine
                .transport
                .batches_formed
                .load(Ordering::Relaxed),
            1
        );
        assert_eq!(
            batch_engine
                .transport
                .amortized_loads
                .load(Ordering::Relaxed),
            2,
            "three members share one resolution"
        );
    }

    /// Answers `lines` as one batch; every member must be answered
    /// exactly once.
    fn run_batch(e: &ServeEngine, lines: &[&str]) -> Vec<Json> {
        let items: Vec<BatchItem> = lines
            .iter()
            .map(|&line| BatchItem {
                line,
                trace: tpp_obs::TraceCtx::root(),
            })
            .collect();
        let mut answers: Vec<Option<Json>> = vec![None; lines.len()];
        e.handle_batch(&items, &mut |i, resp| {
            assert!(answers[i].is_none(), "member {i} answered twice");
            answers[i] = Some(parse(&resp).unwrap());
        });
        answers
            .into_iter()
            .enumerate()
            .map(|(i, a)| a.unwrap_or_else(|| panic!("member {i} unanswered")))
            .collect()
    }

    /// A member's deadline runs from intake, not from the end of the
    /// shared training it waited on: the second member's 1 ms deadline
    /// passes while the first member's unbounded run trains, so its
    /// answer must say so.
    #[test]
    fn batch_member_deadline_runs_from_intake() {
        let e = engine();
        let answers = run_batch(
            &e,
            &[
                r#"{"op":"plan","dataset":"univ2","episodes":2000,"seed":5,"id":"a"}"#,
                r#"{"op":"plan","dataset":"univ2","episodes":2000,"seed":5,"deadline_ms":1,"id":"b"}"#,
            ],
        );
        let (a, b) = (&answers[0], &answers[1]);
        assert_eq!(get(a, "deadline_expired"), &Json::Bool(false), "{a:?}");
        assert_eq!(get(a, "degraded"), &Json::Bool(false), "{a:?}");
        assert_eq!(get(a, "episodes").as_f64(), Some(2000.0));
        assert_eq!(get(b, "ok"), &Json::Bool(true), "{b:?}");
        assert_eq!(get(b, "deadline_expired"), &Json::Bool(true), "{b:?}");
        assert_eq!(get(b, "degraded"), &Json::Bool(true), "{b:?}");
        assert_eq!(
            get(a, "plan"),
            get(b, "plan"),
            "b still gets the shared plan"
        );
    }

    /// The resolution is led by the first member that reaches its
    /// primary tier: when member 0 panics before it gets there, member
    /// 1 (after its own stall) resolves and member 2 reuses the result.
    #[test]
    fn a_panicked_member_hands_the_resolution_to_the_next() {
        let line = r#"{"op":"plan","dataset":"ds-ct","episodes":40,"seed":9}"#;
        let sequential = parse(&engine().handle_line(line)).unwrap();
        let e = ServeEngine::new(ServeConfig {
            chaos: "panic@1,stall@2:20".parse().unwrap(),
            ..ServeConfig::default()
        });
        let answers = run_batch(&e, &[line, line, line]);
        let first = &answers[0];
        assert_eq!(get(first, "ok"), &Json::Bool(true), "{first:?}");
        assert_eq!(get(first, "degraded"), &Json::Bool(true), "{first:?}");
        assert!(
            matches!(get(first, "fallbacks"), Json::Arr(f) if f.iter().any(
                |x| x.as_str().is_some_and(|s| s.contains("panicked")))),
            "{first:?}"
        );
        assert_eq!(get(&answers[1], "tier").as_str(), Some("train"));
        assert_eq!(get(&answers[1], "cached"), &Json::Bool(false));
        let last = &answers[2];
        assert_eq!(get(last, "degraded"), &Json::Bool(false), "{last:?}");
        assert_eq!(get(last, "cached"), &Json::Bool(true), "{last:?}");
        assert_eq!(get(last, "plan"), get(&sequential, "plan"));
        assert_eq!(
            get(last, "score").as_f64().unwrap().to_bits(),
            get(&sequential, "score").as_f64().unwrap().to_bits()
        );
        assert_eq!(e.counters.panics.load(Ordering::Relaxed), 1);
        assert_eq!(e.transport.batches_formed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn recommend_without_checkpoints_degrades_to_eda() {
        let e = engine();
        let r = parse(&e.handle_line(r#"{"op":"recommend","dataset":"ds-ct"}"#)).unwrap();
        assert_eq!(get(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert_eq!(get(&r, "tier").as_str(), Some("eda"));
        assert_eq!(get(&r, "degraded"), &Json::Bool(true));
        assert_eq!(e.counters.tier_eda.load(Ordering::Relaxed), 1);
        assert_eq!(e.counters.degraded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn expired_deadline_still_returns_a_plan() {
        let e = engine();
        let r = parse(
            &e.handle_line(r#"{"op":"plan","dataset":"ds-ct","deadline_ms":0,"episodes":500}"#),
        )
        .unwrap();
        assert_eq!(get(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert_eq!(get(&r, "deadline_expired"), &Json::Bool(true));
        assert_eq!(get(&r, "degraded"), &Json::Bool(true));
        assert_eq!(get(&r, "episodes").as_f64(), Some(0.0));
        assert!(matches!(get(&r, "plan"), Json::Arr(items) if !items.is_empty()));
    }

    #[test]
    fn injected_panic_is_isolated_and_answered_degraded() {
        let config = ServeConfig {
            chaos: "panic@1".parse().unwrap(),
            ..ServeConfig::default()
        };
        let e = ServeEngine::new(config);
        let r = parse(&e.handle_line(r#"{"op":"recommend","dataset":"ds-ct","id":"x"}"#)).unwrap();
        assert_eq!(get(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert_eq!(get(&r, "id").as_str(), Some("x"));
        assert_eq!(get(&r, "degraded"), &Json::Bool(true));
        assert_eq!(e.counters.panics.load(Ordering::Relaxed), 1);
        // The next request sees a clean world.
        let r2 = parse(&e.handle_line(r#"{"op":"health"}"#)).unwrap();
        assert_eq!(get(&r2, "ok"), &Json::Bool(true));
    }

    /// The daemon builds each dataset's geometry once: a cold plan, its
    /// cache hit and a second cold plan all borrow one matrix, and the
    /// answers match a planner run on a separately resolved instance.
    #[test]
    fn trip_dataset_keeps_one_matrix_across_requests() {
        let e = engine();
        let (inst, params) = resolve_dataset("nyc").unwrap();
        let start = inst.default_start.unwrap();
        let expected = |seed: u64| {
            let mut params = params.clone().with_start(start);
            params.episodes = 60;
            let (policy, _) = RlPlanner::learn_budgeted(
                &inst,
                &params,
                seed,
                None,
                0,
                &Budget::unlimited(),
                |_| Ok(()),
            )
            .unwrap();
            let plan = RlPlanner::recommend_with_q(&policy.q, &inst, &params, start);
            let codes: Vec<String> = plan
                .items()
                .iter()
                .map(|&id| inst.catalog.item(id).code.clone())
                .collect();
            (codes, tpp_core::score_plan(&inst, &plan))
        };
        let mut matrix = None;
        for (line, seed, cached) in [
            (
                r#"{"op":"plan","dataset":"nyc","episodes":60,"seed":11}"#,
                11,
                false,
            ),
            (
                r#"{"op":"plan","dataset":"nyc","episodes":60,"seed":11}"#,
                11,
                true,
            ),
            (
                r#"{"op":"plan","dataset":"nyc","episodes":60,"seed":12}"#,
                12,
                false,
            ),
        ] {
            let r = parse(&e.handle_line(line)).unwrap();
            assert_eq!(get(&r, "tier").as_str(), Some("train"), "{r:?}");
            assert_eq!(get(&r, "cached"), &Json::Bool(cached), "{r:?}");
            let ds = e.dataset("nyc").unwrap();
            let m: *const _ = ds.instance.catalog.geometry().unwrap().matrix().unwrap();
            assert_eq!(*matrix.get_or_insert(m), m, "one matrix per dataset");
            let (codes, score) = expected(seed);
            let Json::Arr(plan) = get(&r, "plan") else {
                panic!("plan is an array: {r:?}");
            };
            let plan: Vec<&str> = plan.iter().map(|c| c.as_str().unwrap()).collect();
            assert_eq!(plan, codes, "seed {seed}");
            assert_eq!(
                get(&r, "score").as_f64().unwrap().to_bits(),
                score.to_bits()
            );
        }
        let own = inst.catalog.geometry().unwrap().matrix().unwrap();
        assert!(!std::ptr::eq(matrix.unwrap(), own));
    }

    #[test]
    fn trip_datasets_serve_too() {
        let e = engine();
        let r = parse(&e.handle_line(r#"{"op":"plan","dataset":"nyc","episodes":30}"#)).unwrap();
        assert_eq!(get(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert_eq!(get(&r, "violations").as_f64(), Some(0.0));
    }

    #[test]
    fn metrics_op_exposes_prometheus_text_and_registry_snapshot() {
        let e = engine();
        // Serve something first so the registry has serve.* series.
        e.handle_line(r#"{"op":"plan","dataset":"ds-ct","episodes":10}"#);
        let r = parse(&e.handle_line(r#"{"op":"metrics","id":"m1"}"#)).unwrap();
        assert_eq!(get(&r, "ok"), &Json::Bool(true));
        assert_eq!(get(&r, "id").as_str(), Some("m1"));
        let prom = get(&r, "prometheus").as_str().unwrap();
        assert!(prom.contains("serve_requests"), "{prom}");
        assert!(prom.contains("serve_phase_plan_us_bucket"), "{prom}");
        // The embedded registry snapshot is machine-readable and
        // reconstructible.
        let registry = get(&r, "registry");
        assert!(registry.get("histograms").is_some());
        let rendered = {
            let mut s = String::new();
            // Round-trip through from_snapshot to prove the embedded
            // snapshot is complete.
            let m = tpp_obs::Metrics::from_snapshot(registry).unwrap();
            s.push_str(&m.render_json());
            s
        };
        assert!(rendered.contains("serve.requests"));
    }

    #[test]
    fn stats_carries_queue_and_latency_summaries() {
        let e = engine();
        e.handle_line(r#"{"op":"health"}"#);
        let s = parse(&e.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert!(get(&s, "queue_depth").as_f64().is_some());
        assert!(get(&s, "queue_wait_us").get("count").is_some());
        // health ran at least once in this process, so its per-op
        // summary is present with all percentile fields.
        let health = get(&s, "latency_us").get("health").cloned().unwrap();
        for field in ["count", "p50", "p95", "p99", "p999", "max"] {
            assert!(health.get(field).is_some(), "missing {field}");
        }
    }

    #[test]
    fn panics_and_deadline_overruns_dump_the_flight_recorder() {
        let dir = std::env::temp_dir().join(format!("tpp-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            chaos: "panic@1".parse().unwrap(),
            flight_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let e = ServeEngine::new(config);
        e.handle_line(r#"{"op":"recommend","dataset":"ds-ct"}"#);
        e.handle_line(r#"{"op":"plan","dataset":"ds-ct","deadline_ms":0,"episodes":500}"#);
        tpp_obs::clear_sinks();
        let mut dumps: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        dumps.sort();
        assert!(
            dumps.iter().any(|f| f.contains("-panic-")),
            "no panic dump in {dumps:?}"
        );
        assert!(
            dumps.iter().any(|f| f.contains("-deadline-")),
            "no deadline dump in {dumps:?}"
        );
        // Every dumped line is valid JSONL.
        for f in &dumps {
            let text = std::fs::read_to_string(dir.join(f)).unwrap();
            for line in text.lines() {
                parse(line).unwrap_or_else(|e| panic!("bad line in {f}: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
