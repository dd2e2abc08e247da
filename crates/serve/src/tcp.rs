//! Socket serving: one accept loop for TCP and Unix-socket listeners,
//! built as a front end that never dies and never wedges.
//!
//! [`TcpServer`] (TCP) and [`serve_unix`] (a Unix domain socket) run
//! the same accept loop around the same engine, session reader
//! ([`crate::server`]) and one worker pool shared by every connection,
//! with the properties a fleet needs from a daemon it load-balances
//! over:
//!
//! * **Bounded everything.** At most [`TcpConfig::max_connections`]
//!   admitted sessions, one shared bounded queue of
//!   [`TcpConfig::capacity`] jobs, a per-line byte cap, and per-read /
//!   idle timeouts. No hostile or unlucky client grows any buffer or
//!   thread count without bound.
//! * **Shed before admission.** When the gate is saturated (connection
//!   limit hit or queue full) a new connection is never admitted to a
//!   session: a short-lived shed handler reads at most one capped line
//!   under a short deadline, answers `overloaded` **echoing the
//!   request's `id`**, and closes. The client learns its fate
//!   immediately instead of queueing behind a stampede.
//! * **Slow-loris defense.** A connection that never completes a line
//!   within [`TcpConfig::idle_timeout`] is closed
//!   ([`LineReader::next_line_by`] enforces the deadline even against
//!   byte-at-a-time trickling). No complete request is ever dropped:
//!   only idle partial lines die.
//! * **Graceful drain.** A `shutdown` request (on any connection, even
//!   a shed one) flips the engine-wide drain flag: the listener stops
//!   accepting, every reader stops at its next line boundary, the pool
//!   answers everything queued, and only then does the accept loop
//!   return — emitting a traced `serve.shutdown` event with the drain
//!   counts. In-flight requests complete; new connects are refused. A
//!   Unix listener also unlinks its socket file.
//! * **One terminal response per request.** Jobs carry the connection's
//!   shared writer ([`crate::transport::SharedWriter`]), so the socket
//!   closes only after its last pending response is written.
//!   `undeliverable_responses` counts genuine delivery failures (the
//!   peer vanished first); the load harness ([`crate::load`]) asserts
//!   from outside that no complete request closes without a response.
//!
//! Every connection event is traced and counted: `serve.conn_accept`,
//! `serve.conn_shed`, `serve.conn_timeout`, `serve.conn_closed`, the
//! `serve.connections` gauge, and the shared queue/phase histograms.

use crate::engine::ServeEngine;
use crate::framing::{FramedLine, LineReader};
use crate::server::{read_session, SessionLimits};
use crate::transport::{
    answer_unqueued, BatchConfig, ConnTrack, SharedWriter, SupervisorConfig, WorkerPool,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tpp_obs::{obs_event, Level, TraceCtx};

/// Poll interval of the nonblocking accept loop — the latency bound on
/// noticing a drain request.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Socket transport configuration, for TCP and Unix listeners alike.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Admitted-connection limit; connections beyond it are shed at
    /// admission (0 = unlimited).
    pub max_connections: usize,
    /// Per-line byte cap (overlong lines get `bad_request`, the
    /// connection survives).
    pub max_line_bytes: usize,
    /// Per-read socket timeout — also the granularity at which blocked
    /// readers notice a drain.
    pub read_timeout: Duration,
    /// A connection must complete a line this often or it is closed
    /// (slow-loris defense).
    pub idle_timeout: Duration,
    /// Shared bounded queue capacity; requests beyond it are shed.
    pub capacity: usize,
    /// Worker threads shared by all connections.
    pub workers: usize,
    /// Stop after accepting this many connections (tests and bounded
    /// smoke runs; `None` = until drained).
    pub accept_limit: Option<u64>,
    /// Worker-pool supervision (respawn budget, wedge detection).
    pub supervisor: SupervisorConfig,
    /// Turn-level plan batching (same-key dequeue-many, shared policy
    /// resolution).
    pub batch: BatchConfig,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            max_connections: 256,
            max_line_bytes: 256 * 1024,
            read_timeout: Duration::from_millis(100),
            idle_timeout: Duration::from_secs(10),
            capacity: 64,
            workers: 2,
            accept_limit: None,
            supervisor: SupervisorConfig::default(),
            batch: BatchConfig::default(),
        }
    }
}

/// What a socket serving run did, for exit summaries and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSummary {
    /// Connections accepted by the listener (admitted + shed).
    pub accepted: u64,
    /// Connections admitted to a full session.
    pub admitted: u64,
    /// Connections shed at admission with an `overloaded` response.
    pub shed: u64,
    /// Connections closed by the idle timeout.
    pub timeouts: u64,
    /// Responses that could not be delivered (the peer was gone).
    pub undeliverable_responses: u64,
    /// The run ended because a drain was requested (vs. accept limit).
    pub drained: bool,
}

/// A bound-but-not-yet-running TCP server; [`TcpServer::run`] consumes
/// it and blocks until drain (or the accept limit).
pub struct TcpServer {
    engine: Arc<ServeEngine>,
    listener: TcpListener,
    addr: SocketAddr,
    config: TcpConfig,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) without
    /// accepting yet, so callers can learn [`local_addr`](Self::local_addr)
    /// before the loop starts.
    pub fn bind(
        engine: Arc<ServeEngine>,
        addr: &str,
        config: TcpConfig,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(TcpServer {
            engine,
            listener,
            addr,
            config,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the accept loop until a drain completes (or the accept
    /// limit is reached), then answers every in-flight request before
    /// returning.
    pub fn run(self) -> TcpSummary {
        let TcpServer {
            engine,
            listener,
            addr,
            config,
        } = self;
        accept_loop(&engine, &config, "tcp", addr.to_string(), move || {
            let (stream, peer) = listener.accept()?;
            Ok((stream, peer.to_string()))
        })
    }
}

/// Serves connections on a Unix domain socket at `path` through the
/// same accept loop as [`TcpServer::run`]: one shared worker pool, the
/// admission gate and shed handler, read and idle timeouts, the
/// `connections` gauge and the drain. `config.accept_limit` bounds how
/// many connections are accepted (`None` = until drained). On exit the
/// socket file is **unlinked** — a stale socket no longer lingers until
/// the next bind.
pub fn serve_unix(
    engine: Arc<ServeEngine>,
    path: &std::path::Path,
    config: &TcpConfig,
) -> std::io::Result<TcpSummary> {
    // A stale socket file from a previous unclean run would fail the
    // bind (clean runs unlink it on exit; crashes still leave one).
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let addr = path.display().to_string();
    let summary = accept_loop(&engine, config, "unix", addr, move || {
        let (stream, peer) = listener.accept()?;
        Ok((stream, format!("{peer:?}")))
    });
    let _ = std::fs::remove_file(path);
    Ok(summary)
}

/// An accepted connection, whichever its socket family.
trait Conn: Read + Write + Send + Sized + 'static {
    /// Blocking reads, each bounded by `timeout` (TCP also turns off
    /// Nagle's algorithm, so one-line responses leave at once).
    fn blocking_reads(&self, timeout: Duration) -> std::io::Result<()>;
    /// A second handle on the same socket, for the reply side.
    fn dup(&self) -> std::io::Result<Self>;
    /// Shuts down both directions.
    fn close(&self);
}

impl Conn for TcpStream {
    fn blocking_reads(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_nonblocking(false)?;
        let _ = self.set_nodelay(true);
        self.set_read_timeout(Some(timeout))
    }
    fn dup(&self) -> std::io::Result<TcpStream> {
        self.try_clone()
    }
    fn close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Conn for UnixStream {
    fn blocking_reads(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(timeout))
    }
    fn dup(&self) -> std::io::Result<UnixStream> {
        self.try_clone()
    }
    fn close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// The accept loop every socket listener runs: admits each connection
/// that `accept` yields to a session over one shared pool, or sheds it
/// at the gate, until a drain (or the accept limit); then answers every
/// in-flight request and emits `serve.shutdown`. `accept` owns the
/// listener at `addr`, so dropping it refuses new connects.
fn accept_loop<C: Conn>(
    engine: &Arc<ServeEngine>,
    config: &TcpConfig,
    transport: &str,
    addr: String,
    mut accept: impl FnMut() -> std::io::Result<(C, String)>,
) -> TcpSummary {
    obs_event!(
        Level::Info,
        "serve.listening",
        transport = transport,
        addr = addr,
        max_connections = config.max_connections as u64,
        capacity = config.capacity as u64,
    );
    let t = &engine.transport;
    t.max_connections
        .store(config.max_connections as u64, Ordering::Relaxed);
    let pool = WorkerPool::spawn_with(
        Arc::clone(engine),
        config.workers,
        config.capacity,
        config.supervisor.clone(),
        config.batch.clone(),
    );
    // Bounds concurrent shed handlers: past it, connections get an
    // unread `overloaded` (null id) so even a shed stampede cannot
    // grow threads without limit.
    let active_sheds = AtomicI64::new(0);
    let shed_bound = (config.max_connections.max(64)) as i64;
    let (mut accepted, mut admitted) = (0u64, 0u64);
    // The scope joins every session and shed handler before the pool
    // drains. A panic escaping the engine on a reader thread (a chaos
    // worker-kill on a request answered inline) ends that connection,
    // never the loop.
    std::thread::scope(|scope| {
        let (pool, active_sheds) = (&pool, &active_sheds);
        while !t.draining() {
            match accept() {
                Ok((stream, peer)) => {
                    accepted += 1;
                    t.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    tpp_obs::metrics().counter("serve.conn_accept").inc();
                    // A nonblocking listener may hand out nonblocking
                    // sockets; both readers below need timed blocking reads.
                    if let Err(e) = stream.blocking_reads(config.read_timeout) {
                        obs_event!(Level::Warn, "serve.conn_error", error = e.to_string());
                    } else if t.saturated() {
                        t.conns_shed.fetch_add(1, Ordering::Relaxed);
                        tpp_obs::metrics().counter("serve.conn_shed").inc();
                        obs_event!(
                            Level::Info,
                            "serve.conn_shed",
                            peer = peer,
                            connections = t.connections.load(Ordering::Relaxed),
                            queue_depth = t.queue_depth.load(Ordering::Relaxed),
                        );
                        let unread = active_sheds.fetch_add(1, Ordering::Relaxed) >= shed_bound;
                        scope.spawn(move || {
                            let _ = catch_unwind(AssertUnwindSafe(|| {
                                shed_connection(engine, stream, config, unread)
                            }));
                            active_sheds.fetch_sub(1, Ordering::Relaxed);
                        });
                    } else {
                        admitted += 1;
                        let conns = t.connections.fetch_add(1, Ordering::Relaxed) + 1;
                        tpp_obs::metrics()
                            .gauge("serve.connections")
                            .set(conns as f64);
                        obs_event!(Level::Debug, "serve.conn_accept", peer = peer);
                        scope.spawn(move || {
                            let _ = catch_unwind(AssertUnwindSafe(|| {
                                conn_session(engine, pool, stream, config)
                            }));
                            let conns = t.connections.fetch_sub(1, Ordering::Relaxed) - 1;
                            tpp_obs::metrics()
                                .gauge("serve.connections")
                                .set(conns as f64);
                        });
                    }
                    if config.accept_limit.is_some_and(|limit| accepted >= limit) {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => {
                    obs_event!(Level::Warn, "serve.accept_error", error = e.to_string());
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
        // Stop accepting: new connects are refused from here on.
        drop(accept);
    });
    // Answer everything still queued, then let the workers exit.
    pool.shutdown();
    obs_event!(
        Level::Info,
        "serve.shutdown",
        transport = transport,
        drained = t.draining(),
        received = accepted,
        answered = admitted,
        drained_in_flight = t.drained_in_flight.load(Ordering::Relaxed),
        conns_accepted = t.conns_accepted.load(Ordering::Relaxed),
        conns_shed = t.conns_shed.load(Ordering::Relaxed),
        conn_timeouts = t.conn_timeouts.load(Ordering::Relaxed),
        undeliverable_responses = t.undeliverable_responses.load(Ordering::Relaxed),
    );
    TcpSummary {
        accepted,
        admitted,
        shed: t.conns_shed.load(Ordering::Relaxed),
        timeouts: t.conn_timeouts.load(Ordering::Relaxed),
        undeliverable_responses: t.undeliverable_responses.load(Ordering::Relaxed),
        drained: t.draining(),
    }
}

/// One admitted connection: the session reader under the idle
/// deadline. Queued jobs still hold clones of the reply side when the
/// reader exits, so the socket closes only after their responses are
/// written.
fn conn_session<C: Conn>(engine: &ServeEngine, pool: &WorkerPool, stream: C, config: &TcpConfig) {
    let out: SharedWriter = match stream.dup() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(e) => {
            obs_event!(Level::Warn, "serve.conn_error", error = e.to_string());
            return;
        }
    };
    let track = Arc::new(ConnTrack::default());
    let limits = SessionLimits {
        max_line_bytes: config.max_line_bytes,
        idle_timeout: Some(config.idle_timeout),
        max_requests: None,
    };
    let end = read_session(engine, pool, stream, &out, &track, &limits);
    obs_event!(
        Level::Debug,
        "serve.conn_closed",
        requests = track.requests.load(Ordering::Relaxed),
        responses = track.responses.load(Ordering::Relaxed),
        timed_out = end.timed_out,
    );
    tpp_obs::metrics().counter("serve.conn_closed").inc();
}

/// Handles a connection refused at admission: reads at most one capped
/// line under a short deadline so the `overloaded` response can echo
/// the request's `id`, answers, and closes. `unread` short-circuits the
/// read entirely when too many shed handlers are already running.
fn shed_connection<C: Conn>(engine: &ServeEngine, mut stream: C, config: &TcpConfig, unread: bool) {
    let trace = TraceCtx::root();
    let _trace = tpp_obs::trace::enter(trace);
    // A fixed, short budget to present the line — independent of the
    // session read timeout, which may be much tighter (poll) or looser.
    let deadline = Instant::now() + Duration::from_millis(250);
    let response = if unread {
        engine.overloaded_response("")
    } else {
        let _ = stream.blocking_reads(config.read_timeout.min(Duration::from_millis(50)));
        let mut lines = LineReader::new(&mut stream, config.max_line_bytes);
        match lines.next_line_by(Some(deadline)) {
            // Even a shed connection can drain the daemon — an operator
            // must not be locked out by saturation.
            FramedLine::Line(line) => answer_unqueued(engine, &line).0,
            _ => engine.overloaded_response(""),
        }
    };
    if let Err(e) = writeln!(stream, "{response}").and_then(|()| stream.flush()) {
        engine
            .transport
            .undeliverable_responses
            .fetch_add(1, Ordering::Relaxed);
        tpp_obs::metrics().counter("serve.write_failed").inc();
        obs_event!(
            Level::Warn,
            "serve.response_undeliverable",
            path = "shed",
            error = e.to_string(),
        );
    }
    stream.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use std::io::{BufRead, BufReader, Write};

    fn spawn_server(config: TcpConfig) -> (SocketAddr, std::thread::JoinHandle<TcpSummary>) {
        let engine = Arc::new(ServeEngine::new(ServeConfig::default()));
        let server = TcpServer::bind(engine, "127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr();
        (addr, std::thread::spawn(move || server.run()))
    }

    fn request(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        response.trim().to_string()
    }

    #[test]
    fn tcp_round_trip_then_drain() {
        let (addr, handle) = spawn_server(TcpConfig {
            read_timeout: Duration::from_millis(20),
            ..TcpConfig::default()
        });
        let health = request(addr, "{\"op\":\"health\",\"id\":\"h1\"}");
        assert!(health.contains("\"ok\":true"), "health: {health}");
        assert!(health.contains("\"accepting\":true"), "health: {health}");
        let bye = request(addr, "{\"op\":\"shutdown\",\"id\":\"bye\"}");
        assert!(bye.contains("\"draining\":true"), "shutdown ack: {bye}");
        let summary = handle.join().unwrap();
        assert!(summary.drained);
        assert_eq!(summary.undeliverable_responses, 0);
    }
}
