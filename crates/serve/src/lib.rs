//! # tpp-serve
//!
//! A long-lived planning daemon around the RL-Planner stack. The CLI's
//! one-shot subcommands re-learn a policy per invocation; `tpp-serve`
//! keeps datasets and checkpoints warm and answers a stream of
//! newline-delimited JSON requests (`plan`, `recommend`, `health`,
//! `stats`, `metrics`, `shutdown`) over stdin/stdout ([`server`]), or
//! over TCP or a Unix socket ([`tcp`]): one session reader serves
//! every transport, and one accept loop with one shared worker pool
//! serves both socket listeners.
//!
//! The contract is availability, not perfection:
//!
//! * **Every request receives exactly one terminal response line** —
//!   malformed JSON gets `bad_request`, a full queue gets `overloaded`,
//!   and nothing makes the process exit.
//! * **Deadlines are cooperative budgets** ([`tpp_core::Budget`]):
//!   a `deadline_ms` on a `plan` request bounds training wall-clock;
//!   an expired budget yields a usable (tagged) plan, not an error.
//! * **Panics are isolated** per request via `catch_unwind`, reported
//!   through `tpp-obs`, counted, and answered by a degraded tier.
//! * **Degradation is explicit**: the fallback chain — trained
//!   checkpoint policy → retry with exponential backoff on transient
//!   store errors (capped by the request's remaining deadline) → greedy
//!   EDA baseline → deterministic partial plan — records which tier
//!   served each response (`tier`, `degraded`).
//! * **Policies are cached and shared** ([`cache`]): an LRU keyed by
//!   `(dataset, constraint signature, policy source)` holds decoded
//!   Q-tables behind `Arc`, and identical in-flight requests coalesce
//!   onto one leader (single-flight), so a burst of duplicates costs
//!   one training run. Invalidation is generation-aware; a panicking
//!   leader fails its flight instead of wedging followers.
//! * **Same-key requests batch at dequeue** ([`transport`],
//!   [`engine::ServeEngine::handle_batch`]): a worker that pops a
//!   planning job drains further queued jobs with the same batch key
//!   (op, dataset, start, seed, episodes) up to `--batch-max` (plus an
//!   optional `--batch-wait-us` linger), resolves the policy **once**,
//!   and answers every member from the shared `Arc` — each with its own
//!   trace, deadline (running from intake), `plan`-phase timing, and
//!   `batched`/`batch_size` fields in the response. `handle_batch` is
//!   the engine's only request path: a lone request is a batch of one.
//!   A worker panic rescues every unanswered member with a terminal
//!   response.
//!
//! * **Every request is traced end to end**: the server mints a root
//!   [`tpp_obs::TraceCtx`] at ingestion and the worker re-enters it, so
//!   every event a request causes — queue wait, cache outcome, retries,
//!   budget expiry, even panic recovery — carries one `trace_id`.
//!   Per-phase latencies land in fixed-purpose histograms
//!   (`serve.queue_wait_us`, `serve.phase.{cache_lookup,checkpoint_load,
//!   train,plan,serialize}_us`, `serve.op.<op>_us`), exposed by the
//!   `metrics` op (Prometheus text + JSON snapshot) and summarized with
//!   p50/p95/p99/p999 in `stats`.
//! * **Incidents leave a post-mortem**: a [`tpp_obs::FlightRecorder`]
//!   ring (enabled via [`ServeConfig::flight_dir`]) is dumped as JSONL
//!   on panic recovery, shed, deadline overrun and slow requests.
//!
//! * **The socket front end never wedges** (TCP and Unix alike): a
//!   connection supervisor enforces `max_connections`, admission
//!   control sheds *before* session admission when the queue saturates
//!   (immediate `overloaded` with the request's echoed `id`, then
//!   close), per-connection read/idle timeouts defeat slow-loris, a
//!   per-line byte cap ([`framing`]) bounds memory, and a `shutdown`
//!   request begins a graceful drain — stop accepting, answer every
//!   in-flight request, then exit. `health` doubles as a readiness
//!   probe (`accepting` flips false while draining or saturated). The
//!   open-loop load harness ([`load`]) drives hundreds of concurrent
//!   connections with mixed hot/cold/malformed/slow traffic and
//!   asserts the core invariant from the outside: zero connections
//!   closed without a terminal response.
//!
//! * **The daemon self-heals** ([`transport`], [`breaker`],
//!   [`quarantine`]): the worker pool is supervised — workers stamp a
//!   heartbeat per dequeue, and a supervisor thread respawns workers
//!   that die (a panic escaping per-request isolation) and replaces
//!   workers wedged past a progress budget, within a restart budget,
//!   dumping the flight recorder on each incident. A dying worker's
//!   in-flight job is rescued with a terminal response during the
//!   unwind. A request key that repeatedly panics the engine is
//!   quarantined (served degraded for a cooldown instead of fed to
//!   another worker), and the checkpoint-store load path sits behind a
//!   closed/open/half-open circuit breaker so a down store costs one
//!   discovery, not every request's deadline.
//!
//! The [`chaos`] module injects panics, stalls, checkpoint corruption,
//! worker kills, wedges and flaky-load bursts at chosen request
//! ordinals so the integration suite (and `scripts/check.sh`) can
//! prove those properties deterministically.

#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod datasets;
pub mod engine;
pub mod framing;
pub mod load;
pub mod protocol;
pub mod quarantine;
pub mod retry;
pub mod server;
pub mod tcp;
pub mod transport;

pub use breaker::{Admission, BreakerConfig, CircuitBreaker};
pub use cache::{CacheConfig, CachedPolicy, Lookup, PolicyCache, PolicyKey, PolicySource};
pub use chaos::{ChaosFault, ChaosPlan};
pub use datasets::{resolve_dataset, DATASET_NAMES};
pub use engine::{BatchItem, ServeConfig, ServeEngine};
pub use framing::{FramedLine, LineReader};
pub use load::{probe_health, run_load, LoadConfig, LoadProfile, LoadReport, Percentiles};
pub use protocol::{extract_raw_id, parse_request, JsonObj, Op, Request};
pub use quarantine::{Quarantine, QuarantineConfig};
pub use retry::{with_backoff, with_backoff_budgeted, BackoffPolicy};
pub use server::{serve_lines, ServeSummary, ServerConfig};
pub use tcp::{serve_unix, TcpConfig, TcpServer, TcpSummary};
pub use transport::{BatchConfig, ConnTrack, Job, SharedWriter, SupervisorConfig, TransportState};
