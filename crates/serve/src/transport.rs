//! Transport-level shared state: readiness, drain, connection
//! accounting, and the supervised bounded worker pool every transport
//! feeds.
//!
//! [`TransportState`] lives on the [`ServeEngine`](crate::ServeEngine)
//! so the `health` and `stats` ops can report transport truth (is the
//! daemon accepting? how many connections? how deep is the queue? how
//! many workers are actually alive?) without the engine holding a
//! reference to any particular listener. A daemon runs one transport —
//! the stdio session or one socket accept loop (TCP or Unix) — and
//! that transport's one pool and its sessions update this state; a
//! load balancer probing `health` sees `accepting: false` the moment a
//! drain begins, the admission gate saturates, or the worker pool dies
//! past recovery — *before* its next request would starve.
//!
//! [`WorkerPool`] is the bounded queue + worker threads behind every
//! transport (one per transport, shared by all of its sessions), plus
//! a supervisor thread that keeps the pool alive:
//! each worker stamps a heartbeat word when it picks up a job, and the
//! supervisor respawns workers that panicked out (a panic escaping the
//! per-request `catch_unwind`) and replaces workers wedged past a
//! progress budget — up to a restart budget, with backoff, dumping the
//! flight recorder on each death so the post-mortem survives the
//! thread. A dying worker's in-flight job is rescued by a drop guard
//! that writes a terminal response during the unwind, so even a
//! worker-killing fault never breaks the one-response-per-request
//! contract.

use crate::engine::{BatchItem, ServeEngine};
use crate::protocol::{parse_request, Op};
use std::collections::VecDeque;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tpp_obs::{obs_event, Level, TraceCtx};

/// A per-session reply sink, shared between the session reader and
/// the workers that answer. Jobs hold a clone, so a response can
/// still be delivered after the connection's reader has exited — the
/// socket only closes when the last clone drops.
pub type SharedWriter = Arc<Mutex<dyn Write + Send>>;

/// Per-session request/response accounting, for `serve.conn_closed`
/// events, the stdio exit summary and the closed-without-response
/// invariant.
#[derive(Debug, Default)]
pub struct ConnTrack {
    /// Complete request lines read on this connection.
    pub requests: AtomicU64,
    /// Terminal responses written for this connection.
    pub responses: AtomicU64,
}

/// One queued request: the raw line, the trace context minted at
/// ingestion, the enqueue timestamp, and where the response goes.
pub struct Job {
    /// The raw request line.
    pub line: String,
    /// Trace context minted at ingestion.
    pub trace: TraceCtx,
    /// Enqueue time, for queue-wait accounting.
    pub enqueued: Instant,
    /// The session's reply sink.
    pub out: SharedWriter,
    /// The session's request/response accounting.
    pub track: Arc<ConnTrack>,
}

/// The policy identity of a queued request line, at the protocol level:
/// two lines with equal keys resolve the same `PolicyKey` (dataset,
/// constraint signature, source), because the constraint signature is
/// pure in the resolved dataset — same dataset name, same signature.
/// Computed by [`batch_key`] without resolving the dataset, so the
/// dequeue path can match queued jobs with a parse instead of a load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BatchKey {
    op: Op,
    dataset: String,
    start: Option<String>,
    seed: u64,
    episodes: Option<u64>,
}

/// The batch key of a raw request line, or `None` for anything that
/// must not batch: non-planning ops, lines that do not parse, or
/// requests without a dataset. `plan` keys carry the training triple
/// (seed, episodes, start); `recommend` keys only the dataset + start —
/// every recommend against a dataset reads the same newest checkpoint
/// generation.
pub(crate) fn batch_key(line: &str) -> Option<BatchKey> {
    let req = parse_request(line).ok()?;
    let dataset = req.dataset?;
    match req.op {
        Op::Plan => Some(BatchKey {
            op: req.op,
            dataset,
            start: req.start,
            seed: req.seed,
            episodes: req.episodes,
        }),
        Op::Recommend => Some(BatchKey {
            op: req.op,
            dataset,
            start: req.start,
            seed: 0,
            episodes: None,
        }),
        _ => None,
    }
}

/// Turn-level batching policy: when a worker dequeues a job with a
/// batchable key, it also drains every queued job sharing that key —
/// up to `max` members per turn, lingering up to `linger` for more to
/// arrive — and answers the whole batch from one policy resolution.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum members per batch; `1` disables batching entirely.
    pub max: usize,
    /// How long the worker waits for more same-key jobs after draining
    /// the queue. Zero (the default) never adds latency: batches form
    /// only from backlog that already exists.
    pub linger: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max: 16,
            linger: Duration::ZERO,
        }
    }
}

/// Supervision policy for the worker pool.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Disabled supervision never respawns: a worker that panics out
    /// stays dead (the pool still flips `accepting` off when the last
    /// one dies, so the failure is loud, not silent).
    pub enabled: bool,
    /// Supervisor tick interval.
    pub poll_interval: Duration,
    /// A worker busy on one job longer than this is wedged: it is
    /// retired (it finishes or not on its own time) and replaced.
    /// `None` disables wedge detection.
    pub wedge_budget: Option<Duration>,
    /// Total respawns the supervisor may spend over the pool's life.
    pub max_restarts: u32,
    /// Delay between noting a death and respawning the slot.
    pub restart_backoff: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            enabled: true,
            poll_interval: Duration::from_millis(20),
            wedge_budget: Some(Duration::from_secs(30)),
            max_restarts: 16,
            restart_backoff: Duration::from_millis(50),
        }
    }
}

/// Live transport state, updated by listeners/readers/workers and
/// reported by the engine's `health` / `stats` ops.
#[derive(Debug, Default)]
pub struct TransportState {
    draining: AtomicBool,
    /// Open admitted connections (socket transports).
    pub connections: AtomicI64,
    /// Jobs sitting in the bounded queue right now.
    pub queue_depth: AtomicI64,
    /// Connection limit (0 = no socket transport attached).
    pub max_connections: AtomicU64,
    /// Bounded-queue capacity (0 = unknown).
    pub queue_capacity: AtomicU64,
    /// Connections accepted by the listener (admitted or shed).
    pub conns_accepted: AtomicU64,
    /// Connections shed at admission, before a session started.
    pub conns_shed: AtomicU64,
    /// Connections closed by the idle/read timeout (slow loris).
    pub conn_timeouts: AtomicU64,
    /// Lines discarded for exceeding the per-line byte cap.
    pub overlong_lines: AtomicU64,
    /// Terminal responses that could not be written because the peer
    /// was already gone (e.g. a shed client that reset mid-storm).
    /// Zero under well-behaved clients; the load harness asserts the
    /// client-observed invariant — no *complete* request left without a
    /// terminal response — from the outside, where it must be zero.
    pub undeliverable_responses: AtomicU64,
    /// Requests answered after a drain began (the in-flight tail).
    pub drained_in_flight: AtomicU64,
    /// Worker threads the pool was configured with (0 = no pool yet).
    pub workers_configured: AtomicU64,
    /// Worker threads currently running (wedged-but-retired workers
    /// still count until they actually finish).
    pub workers_alive: AtomicI64,
    /// Workers respawned by the supervisor (deaths and wedge
    /// replacements both spend the restart budget).
    pub worker_restarts: AtomicU64,
    /// Workers that died (a panic escaped the per-request isolation).
    pub worker_deaths: AtomicU64,
    /// Workers retired for being wedged past the progress budget.
    pub worker_wedged: AtomicU64,
    /// In-flight jobs rescued with a terminal response while their
    /// worker was dying.
    pub worker_rescued: AtomicU64,
    /// Multi-member batches formed at dequeue (size ≥ 2).
    pub batches_formed: AtomicU64,
    /// Total members across all formed batches.
    pub batch_members: AtomicU64,
    /// Policy resolutions skipped by batching: every batch member past
    /// the first shares the leader's single cache lookup / checkpoint
    /// deserialize / training run.
    pub amortized_loads: AtomicU64,
    /// The pool is supervised (deaths are transient, not terminal).
    supervised: AtomicBool,
    /// Set by the supervisor when every worker is gone and the restart
    /// budget is spent: the pool can never answer again.
    pool_dead: AtomicBool,
}

impl TransportState {
    /// Begins a graceful drain; returns `true` for the call that
    /// actually flipped the flag (later calls are idempotent no-ops).
    pub fn begin_drain(&self) -> bool {
        let first = !self.draining.swap(true, Ordering::SeqCst);
        if first {
            obs_event!(Level::Info, "serve.drain_begin");
            tpp_obs::metrics().counter("serve.drain").inc();
        }
        first
    }

    /// A drain has begun: stop reading new requests, answer in-flight.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The admission gate is saturated: at the connection limit, or the
    /// bounded queue is full. Limits of 0 mean "not enforced".
    pub fn saturated(&self) -> bool {
        let max_conns = self.max_connections.load(Ordering::Relaxed);
        if max_conns > 0 && self.connections.load(Ordering::Relaxed) >= max_conns as i64 {
            return true;
        }
        let cap = self.queue_capacity.load(Ordering::Relaxed);
        cap > 0 && self.queue_depth.load(Ordering::Relaxed) >= cap as i64
    }

    /// The pool can never answer another queued request: every worker
    /// is gone and no respawn is coming (restart budget spent, or
    /// supervision disabled). Queuing into a dead pool is the
    /// accept-and-starve failure mode — callers must shed instead.
    pub fn workers_dead(&self) -> bool {
        if self.pool_dead.load(Ordering::SeqCst) {
            return true;
        }
        self.workers_configured.load(Ordering::Relaxed) > 0
            && !self.supervised.load(Ordering::Relaxed)
            && self.workers_alive.load(Ordering::SeqCst) <= 0
    }

    /// Readiness for load-balancer probes: accepting new work (not
    /// draining, not saturated, workers able to answer).
    pub fn accepting(&self) -> bool {
        !self.draining() && !self.saturated() && !self.workers_dead()
    }

    fn queue_inc(&self) {
        let d = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        tpp_obs::metrics().gauge("serve.queue_depth").set(d as f64);
    }

    fn queue_dec(&self) {
        let d = self.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
        tpp_obs::metrics().gauge("serve.queue_depth").set(d as f64);
    }

    fn worker_started(&self) {
        let n = self.workers_alive.fetch_add(1, Ordering::SeqCst) + 1;
        tpp_obs::metrics()
            .gauge("serve.workers_alive")
            .set(n.max(0) as f64);
    }

    fn worker_exited(&self) {
        let n = self.workers_alive.fetch_sub(1, Ordering::SeqCst) - 1;
        tpp_obs::metrics()
            .gauge("serve.workers_alive")
            .set(n.max(0) as f64);
    }
}

/// Counts a recovered lock poisoning: the panic that poisoned the lock
/// is already being handled elsewhere; the plain data under these locks
/// (an output byte stream, a job queue, a cache map) is never left in a
/// torn state, so the right response is to keep serving, loudly.
/// `pub(crate)` so the cache and engine layers recover with the same
/// counter and discipline.
pub(crate) fn count_lock_recovered(which: &'static str) {
    tpp_obs::metrics().counter("serve.lock_recovered").inc();
    obs_event!(Level::Warn, "serve.lock_recovered", lock = which);
}

/// The answer a reader gives a line the pool did not take (queue full,
/// or every worker dead), and whether that answer sheds it. A
/// `shutdown` runs inline, so a saturated daemon stays drainable. A
/// probe (`health`, `stats`, `metrics`) runs inline when the pool is
/// dead, so it reports `accepting: false` instead of an opaque
/// `overloaded`. Anything else is shed as `overloaded`: a dead pool
/// never accepts and starves.
pub(crate) fn answer_unqueued(engine: &ServeEngine, line: &str) -> (String, bool) {
    let inline = parse_request(line).is_ok_and(|r| match r.op {
        Op::Shutdown => true,
        Op::Health | Op::Stats | Op::Metrics => engine.transport.workers_dead(),
        Op::Plan | Op::Recommend => false,
    });
    if inline {
        (engine.handle_line(line), false)
    } else {
        (engine.overloaded_response(line), true)
    }
}

/// Writes one response line under the session's output lock, counts
/// it on the session, and counts a write that did not reach the peer
/// as undeliverable (a dead client must not kill the daemon). Every
/// reply — worker, rescue, post-mortem or reader-side — goes here.
///
/// A poisoned lock is recovered, not propagated: the writer is a plain
/// byte sink (the worst a mid-`writeln!` panic leaves behind is a torn
/// line the client's framing already tolerates), and propagating would
/// cascade one worker's death into every worker that shares the sink.
pub(crate) fn deliver(engine: &ServeEngine, out: &SharedWriter, track: &ConnTrack, line: &str) {
    let delivered = {
        let mut out = out.lock().unwrap_or_else(|poisoned| {
            count_lock_recovered("output");
            poisoned.into_inner()
        });
        writeln!(out, "{line}").and_then(|()| out.flush()).is_ok()
    };
    track.responses.fetch_add(1, Ordering::Relaxed);
    if !delivered {
        engine
            .transport
            .undeliverable_responses
            .fetch_add(1, Ordering::Relaxed);
        tpp_obs::metrics().counter("serve.write_failed").inc();
        obs_event!(Level::Warn, "serve.response_undeliverable");
    }
}

#[derive(Default)]
struct JobQueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded job queue behind the worker pool. Replaces a plain
/// `sync_channel` so the dequeue path can *drain* — pull every queued
/// job matching a batch key in one critical section — which a channel
/// cannot express. Semantics otherwise match the channel it replaced:
/// `try_push` fails on full or closed, `pop` blocks until a job or
/// close-and-empty, and closing lets workers drain the backlog before
/// exiting.
pub(crate) struct JobQueue {
    inner: Mutex<JobQueueInner>,
    cond: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(JobQueueInner::default()),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// A poisoned queue lock is recovered: the `VecDeque` under it is
    /// never left torn by an unwinding holder, and giving up here would
    /// kill every worker in turn.
    fn lock(&self) -> std::sync::MutexGuard<'_, JobQueueInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            count_lock_recovered("queue");
            poisoned.into_inner()
        })
    }

    /// Enqueues a job, or hands it back when the queue is full or
    /// closed (the caller sheds).
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut inner = self.lock();
        if inner.closed || inner.jobs.len() >= self.capacity {
            return Err(job);
        }
        inner.jobs.push_back(job);
        drop(inner);
        // Wake everyone: a lingering batch drainer may be waiting on
        // the same condvar as idle workers.
        self.cond.notify_all();
        Ok(())
    }

    /// Blocks until a job is available (FIFO) or the queue is closed
    /// *and* empty — the backlog is always drained before `None`.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.cond.wait(inner).unwrap_or_else(|poisoned| {
                count_lock_recovered("queue");
                poisoned.into_inner()
            });
        }
    }

    /// Non-blocking pop, for the shutdown post-mortem drain.
    fn try_pop(&self) -> Option<Job> {
        self.lock().jobs.pop_front()
    }

    /// Extracts up to `max_more` queued jobs whose line matches `key`,
    /// from anywhere in the queue; non-matching jobs keep their FIFO
    /// order. With a non-zero `linger` the worker then waits for more
    /// same-key arrivals until the cap or the linger deadline — never
    /// past a close.
    fn drain_matching(&self, key: &BatchKey, max_more: usize, linger: Duration) -> Vec<Job> {
        let mut out = Vec::new();
        if max_more == 0 {
            return out;
        }
        let deadline = (!linger.is_zero()).then(|| Instant::now() + linger);
        let mut inner = self.lock();
        loop {
            let mut i = 0;
            while i < inner.jobs.len() && out.len() < max_more {
                if batch_key(&inner.jobs[i].line).as_ref() == Some(key) {
                    out.extend(inner.jobs.remove(i));
                } else {
                    i += 1;
                }
            }
            if out.len() >= max_more || inner.closed {
                break;
            }
            let Some(deadline) = deadline else { break };
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, _) = self
                .cond
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|poisoned| {
                    count_lock_recovered("queue");
                    poisoned.into_inner()
                });
            inner = next;
        }
        out
    }

    /// Closes the queue: pushes fail from now on, and workers exit once
    /// the backlog is drained.
    fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }
}

/// Per-worker heartbeat/progress word, shared with the supervisor.
#[derive(Debug, Default)]
struct WorkerCtl {
    /// 0 = idle; otherwise (ms since pool epoch when the current job
    /// was dequeued) + 1. The supervisor compares this against the
    /// wedge budget.
    busy_since_ms: AtomicU64,
    /// Jobs completed by this worker (progress, for stats/debugging).
    jobs_done: AtomicU64,
    /// Set by the supervisor when it has retired this worker (wedged):
    /// the worker exits after finishing its current job instead of
    /// dequeuing another.
    replaced: AtomicBool,
    /// Set by the worker on a normal exit (queue closed or retired) —
    /// a finished thread without this flag died of a panic.
    exited_clean: AtomicBool,
}

/// Rescues a dying worker's in-flight batch (a lone job is a batch of
/// one): if this guard drops while still armed, `handle_batch` is
/// unwinding — every member not yet delivered gets a terminal crash
/// response during the unwind, so a poison pill in one batch slot
/// never swallows its neighbours' responses. Everything here is
/// panic-free plain code.
struct BatchRescue<'a> {
    engine: &'a ServeEngine,
    jobs: &'a [Job],
    answered: &'a [AtomicBool],
    armed: bool,
}

impl Drop for BatchRescue<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let t = &self.engine.transport;
        for (job, done) in self.jobs.iter().zip(self.answered) {
            if done.load(Ordering::SeqCst) {
                continue;
            }
            let _trace = tpp_obs::trace::enter(job.trace);
            t.worker_rescued.fetch_add(1, Ordering::Relaxed);
            tpp_obs::metrics().counter("serve.worker_rescued").inc();
            obs_event!(Level::Error, "serve.job_rescued");
            let response = self.engine.worker_crash_response(&job.line);
            deliver(self.engine, &job.out, &job.track, &response);
        }
    }
}

/// Decrements `workers_alive` however the worker thread exits —
/// normal return or panic unwind.
struct AliveGuard<'a>(&'a TransportState);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.worker_exited();
    }
}

/// The body of one worker thread: dequeue, stamp the heartbeat, gather
/// a same-key batch from the backlog, answer, stamp progress. Exits
/// when the queue closes or the supervisor has retired it.
fn worker_loop(
    engine: Arc<ServeEngine>,
    queue: Arc<JobQueue>,
    ctl: Arc<WorkerCtl>,
    epoch: Instant,
    batch: BatchConfig,
) {
    let _alive = AliveGuard(&engine.transport);
    loop {
        if ctl.replaced.load(Ordering::SeqCst) {
            break; // retired by the supervisor; a replacement is running
        }
        let Some(job) = queue.pop() else {
            break; // queue closed and drained
        };
        ctl.busy_since_ms
            .store(epoch.elapsed().as_millis() as u64 + 1, Ordering::SeqCst);
        // Batch formation: drain every queued job sharing this job's
        // policy key (matched jobs jump ahead of non-matching earlier
        // arrivals; non-members keep their FIFO order among
        // themselves). Linger is bounded and zero by default, so an
        // empty queue costs nothing.
        let followers = if batch.max > 1 {
            match batch_key(&job.line) {
                Some(key) => queue.drain_matching(&key, batch.max - 1, batch.linger),
                None => Vec::new(),
            }
        } else {
            Vec::new()
        };
        let t = &engine.transport;
        let members: Vec<Job> = std::iter::once(job).chain(followers).collect();
        for member in &members {
            t.queue_dec();
            if t.draining() {
                t.drained_in_flight.fetch_add(1, Ordering::Relaxed);
            }
            let wait_us = member.enqueued.elapsed().as_micros() as u64;
            tpp_obs::metrics()
                .histogram("serve.queue_wait_us")
                .record(wait_us);
            // Each member's trace context spans its whole worker turn;
            // the closing `serve.job` event names the root span and
            // carries the end-to-end duration so reconstruction can
            // close it.
            let _trace = tpp_obs::trace::enter(member.trace);
            obs_event!(Level::Debug, "serve.dequeued", queue_wait_us = wait_us);
        }
        // One policy resolution answers every member; responses fan
        // back out to each member's own connection writer as they are
        // produced. The rescue guard answers every member a panic
        // leaves behind.
        let answered: Vec<AtomicBool> = members.iter().map(|_| AtomicBool::new(false)).collect();
        let mut rescue = BatchRescue {
            engine: &engine,
            jobs: &members,
            answered: &answered,
            armed: true,
        };
        let items: Vec<BatchItem<'_>> = members
            .iter()
            .map(|j| BatchItem {
                line: &j.line,
                trace: j.trace,
            })
            .collect();
        engine.handle_batch(&items, &mut |idx, response| {
            answered[idx].store(true, Ordering::SeqCst);
            let member = &members[idx];
            deliver(&engine, &member.out, &member.track, &response);
        });
        rescue.armed = false;
        drop(rescue);
        for member in &members {
            let _trace = tpp_obs::trace::enter(member.trace);
            obs_event!(
                Level::Debug,
                "serve.job",
                duration_us = member.enqueued.elapsed().as_micros() as u64,
                batch_size = members.len() as u64,
            );
        }
        ctl.jobs_done
            .fetch_add(members.len() as u64, Ordering::Relaxed);
        ctl.busy_since_ms.store(0, Ordering::SeqCst);
    }
    ctl.exited_clean.store(true, Ordering::SeqCst);
}

/// One supervised worker slot.
struct WorkerSlot {
    handle: Option<std::thread::JoinHandle<()>>,
    ctl: Arc<WorkerCtl>,
    /// Death already counted/dumped (avoid re-noting every tick while
    /// waiting out the restart backoff).
    death_noted: bool,
    /// Respawn no earlier than this.
    respawn_after: Option<Instant>,
}

struct PoolState {
    slots: Vec<WorkerSlot>,
    /// Wedged workers retired from their slot: they finish (or not) on
    /// their own time and are joined at shutdown.
    retired: Vec<std::thread::JoinHandle<()>>,
    restarts_used: u32,
}

/// The bounded queue + supervised worker threads shared by every
/// connection of a transport. Dropping the sender (via
/// [`WorkerPool::shutdown`]) lets workers drain everything already
/// queued, then exit — that is the "answer every in-flight request"
/// half of graceful drain.
pub(crate) struct WorkerPool {
    queue: Arc<JobQueue>,
    engine: Arc<ServeEngine>,
    state: Arc<Mutex<PoolState>>,
    stop: Arc<AtomicBool>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

fn lock_pool(state: &Mutex<PoolState>) -> std::sync::MutexGuard<'_, PoolState> {
    // Plain-data critical section: a poisoned lock is still valid.
    state.lock().unwrap_or_else(|e| e.into_inner())
}

fn spawn_worker(
    engine: &Arc<ServeEngine>,
    queue: &Arc<JobQueue>,
    epoch: Instant,
    batch: &BatchConfig,
) -> (std::thread::JoinHandle<()>, Arc<WorkerCtl>) {
    let ctl = Arc::new(WorkerCtl::default());
    // Count the worker alive before its thread runs, so a supervisor
    // tick between spawn and first instruction never sees a dead pool.
    engine.transport.worker_started();
    let handle = {
        let engine = Arc::clone(engine);
        let queue = Arc::clone(queue);
        let ctl = Arc::clone(&ctl);
        let batch = batch.clone();
        std::thread::spawn(move || worker_loop(engine, queue, ctl, epoch, batch))
    };
    (handle, ctl)
}

impl WorkerPool {
    /// Spawns `workers` threads over a queue of `capacity` jobs,
    /// supervised per `config`, batching per `batch`.
    pub(crate) fn spawn_with(
        engine: Arc<ServeEngine>,
        workers: usize,
        capacity: usize,
        config: SupervisorConfig,
        batch: BatchConfig,
    ) -> WorkerPool {
        let capacity = capacity.max(1);
        let queue = Arc::new(JobQueue::new(capacity));
        let epoch = Instant::now();
        let workers = workers.max(1);
        let t = &engine.transport;
        t.queue_capacity.store(capacity as u64, Ordering::Relaxed);
        t.workers_configured
            .store(workers as u64, Ordering::Relaxed);
        t.supervised.store(config.enabled, Ordering::Relaxed);
        let mut slots = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (handle, ctl) = spawn_worker(&engine, &queue, epoch, &batch);
            slots.push(WorkerSlot {
                handle: Some(handle),
                ctl,
                death_noted: false,
                respawn_after: None,
            });
        }
        let state = Arc::new(Mutex::new(PoolState {
            slots,
            retired: Vec::new(),
            restarts_used: 0,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let supervisor = config.enabled.then(|| {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            let batch = batch.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(config.poll_interval);
                    supervise_tick(&engine, &queue, &state, &config, epoch, &batch);
                }
            })
        });
        WorkerPool {
            queue,
            engine,
            state,
            stop,
            supervisor,
        }
    }

    /// Enqueues a job, or hands it back when the bounded queue is full
    /// or the pool can never answer it (the caller sheds with a
    /// terminal response).
    pub(crate) fn try_submit(&self, engine: &ServeEngine, job: Job) -> Result<(), Job> {
        if engine.transport.workers_dead() {
            return Err(job);
        }
        match self.queue.try_push(job) {
            Ok(()) => {
                engine.transport.queue_inc();
                Ok(())
            }
            Err(job) => Err(job),
        }
    }

    /// Stops the supervisor, stops accepting new jobs, answers
    /// everything queued, and joins the workers. Jobs a dead pool left
    /// in the queue are answered inline here — shutdown is the last
    /// chance to keep the one-response-per-request contract.
    pub(crate) fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(sup) = self.supervisor {
            let _ = sup.join();
        }
        self.queue.close();
        {
            let mut state = lock_pool(&self.state);
            for slot in &mut state.slots {
                if let Some(handle) = slot.handle.take() {
                    let _ = handle.join();
                }
            }
            for handle in state.retired.drain(..) {
                let _ = handle.join();
            }
        }
        // Post-mortem drain: a pool whose workers all died before the
        // queue closed leaves jobs behind. Answer them inline (with
        // panic isolation — one of them may be the poison that killed
        // the pool).
        while let Some(job) = self.queue.try_pop() {
            self.engine.transport.queue_dec();
            let response = catch_unwind(AssertUnwindSafe(|| self.engine.handle_line(&job.line)))
                .unwrap_or_else(|_| self.engine.worker_crash_response(&job.line));
            deliver(&self.engine, &job.out, &job.track, &response);
            obs_event!(Level::Warn, "serve.postmortem_answered");
        }
    }
}

/// One supervisor pass over the slots: note deaths, respawn within
/// budget, retire wedged workers, and declare the pool dead when
/// nothing can ever answer again.
fn supervise_tick(
    engine: &Arc<ServeEngine>,
    queue: &Arc<JobQueue>,
    state: &Mutex<PoolState>,
    config: &SupervisorConfig,
    epoch: Instant,
    batch: &BatchConfig,
) {
    let t = &engine.transport;
    let now = Instant::now();
    let now_ms = epoch.elapsed().as_millis() as u64;
    let mut state = lock_pool(state);
    let PoolState {
        slots,
        retired,
        restarts_used,
    } = &mut *state;
    for slot in slots.iter_mut() {
        let finished = slot.handle.as_ref().map_or(true, |h| h.is_finished());
        if finished {
            if slot.ctl.exited_clean.load(Ordering::SeqCst) {
                continue; // normal drain exit, not a death
            }
            if !slot.death_noted {
                slot.death_noted = true;
                slot.respawn_after = Some(now + config.restart_backoff);
                t.worker_deaths.fetch_add(1, Ordering::Relaxed);
                tpp_obs::metrics().counter("serve.worker_deaths").inc();
                obs_event!(
                    Level::Error,
                    "serve.worker_died",
                    jobs_done = slot.ctl.jobs_done.load(Ordering::Relaxed),
                );
                engine.dump_flight("worker");
            }
            let due = slot.respawn_after.map_or(true, |at| now >= at);
            if due && *restarts_used < config.max_restarts {
                if let Some(handle) = slot.handle.take() {
                    let _ = handle.join(); // finished; reclaim promptly
                }
                let (handle, ctl) = spawn_worker(engine, queue, epoch, batch);
                slot.handle = Some(handle);
                slot.ctl = ctl;
                slot.death_noted = false;
                slot.respawn_after = None;
                *restarts_used += 1;
                t.worker_restarts.fetch_add(1, Ordering::Relaxed);
                tpp_obs::metrics().counter("serve.worker_restarts").inc();
                obs_event!(
                    Level::Warn,
                    "serve.worker_respawned",
                    restarts_used = *restarts_used as u64,
                    max_restarts = config.max_restarts as u64,
                );
            }
            continue;
        }
        // Wedge detection: busy on one job past the progress budget.
        if let Some(budget) = config.wedge_budget {
            let busy = slot.ctl.busy_since_ms.load(Ordering::SeqCst);
            let wedged = busy != 0
                && now_ms.saturating_sub(busy - 1) > budget.as_millis() as u64
                && !slot.ctl.replaced.load(Ordering::SeqCst);
            if wedged {
                slot.ctl.replaced.store(true, Ordering::SeqCst);
                t.worker_wedged.fetch_add(1, Ordering::Relaxed);
                tpp_obs::metrics().counter("serve.worker_wedged").inc();
                obs_event!(
                    Level::Error,
                    "serve.worker_wedged",
                    busy_ms = now_ms.saturating_sub(busy - 1),
                    budget_ms = budget.as_millis() as u64,
                );
                engine.dump_flight("wedged");
                if let Some(handle) = slot.handle.take() {
                    retired.push(handle);
                }
                if *restarts_used < config.max_restarts {
                    let (handle, ctl) = spawn_worker(engine, queue, epoch, batch);
                    slot.handle = Some(handle);
                    slot.ctl = ctl;
                    slot.death_noted = false;
                    slot.respawn_after = None;
                    *restarts_used += 1;
                    t.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    tpp_obs::metrics().counter("serve.worker_restarts").inc();
                } else {
                    // Budget spent: the slot stays empty; the retired
                    // worker may still finish its job eventually.
                    slot.ctl.exited_clean.store(true, Ordering::SeqCst);
                }
            }
        }
    }
    // The pool is dead when no worker is alive and no respawn can ever
    // happen. (While the backoff window is open or budget remains,
    // alive == 0 is a transient state, not death.)
    if t.workers_alive.load(Ordering::SeqCst) <= 0
        && *restarts_used >= config.max_restarts
        && !t.pool_dead.swap(true, Ordering::SeqCst)
    {
        tpp_obs::metrics().counter("serve.pool_dead").inc();
        obs_event!(
            Level::Error,
            "serve.pool_dead",
            restarts_used = *restarts_used as u64,
        );
        engine.dump_flight("pool");
    }
}
