//! TCP fleet serving: a front end that never dies and never wedges.
//!
//! [`TcpServer`] wraps a `TcpListener` accept loop around the same
//! engine, framing and worker pool the stdio transport uses, with the
//! properties a fleet needs from a daemon it load-balances over:
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
//!   answers everything queued, and only then does [`TcpServer::run`]
//!   return — emitting a traced `serve.shutdown` event with the drain
//!   counts. In-flight requests complete; new connects are refused.
//! * **One terminal response per request.** Jobs carry the connection's
//!   shared writer ([`crate::transport::SharedWriter`]), so a response
//!   outlives its reader thread; the socket closes only after the last
//!   pending response for it is written. `undeliverable_responses`
//!   counts genuine delivery failures (the peer vanished first) and
//!   stays zero under well-behaved clients; the load harness
//!   ([`crate::load`]) asserts the client-observed invariant — no
//!   complete request closed without a terminal response — outside.
//!
//! Every connection event is traced and counted: `serve.conn_accept`,
//! `serve.conn_shed`, `serve.conn_timeout`, `serve.conn_closed`, the
//! `serve.connections` gauge, and the shared queue/phase histograms.

use crate::engine::ServeEngine;
use crate::framing::{FramedLine, LineReader};
use crate::server::{emit_shutdown, ACCEPT_POLL};
use crate::transport::{
    answer_unqueued, write_response, BatchConfig, ConnTrack, Job, SharedWriter, SupervisorConfig,
    WorkerPool,
};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tpp_obs::{obs_event, Level, TraceCtx};

/// TCP transport configuration.
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

/// What a TCP serving run did, for exit summaries and assertions.
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
        engine
            .transport
            .set_limits(config.max_connections as u64, config.capacity.max(1) as u64);
        obs_event!(
            Level::Info,
            "serve.listening",
            tcp = addr.to_string(),
            max_connections = config.max_connections as u64,
            capacity = config.capacity as u64,
        );
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
            addr: _,
            config,
        } = self;
        let pool = Arc::new(WorkerPool::spawn_with(
            Arc::clone(&engine),
            config.workers,
            config.capacity.max(1),
            config.supervisor.clone(),
            config.batch.clone(),
        ));
        // Bounds concurrent shed handlers: past it, connections get an
        // unread `overloaded` (null id) so even a shed stampede cannot
        // grow threads without limit.
        let active_sheds = Arc::new(AtomicI64::new(0));
        let shed_bound = (config.max_connections.max(64)) as i64;

        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut accepted = 0u64;
        let mut admitted = 0u64;
        loop {
            if engine.transport.draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    accepted += 1;
                    engine
                        .transport
                        .conns_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    tpp_obs::metrics().counter("serve.conn_accept").inc();
                    if engine.transport.saturated() {
                        engine.transport.conns_shed.fetch_add(1, Ordering::Relaxed);
                        tpp_obs::metrics().counter("serve.conn_shed").inc();
                        obs_event!(
                            Level::Info,
                            "serve.conn_shed",
                            peer = peer.to_string(),
                            connections = engine.transport.connections.load(Ordering::Relaxed),
                            queue_depth = engine.transport.queue_depth.load(Ordering::Relaxed),
                        );
                        let engine = Arc::clone(&engine);
                        let config = config.clone();
                        let active = Arc::clone(&active_sheds);
                        let unread = active.fetch_add(1, Ordering::Relaxed) >= shed_bound;
                        std::thread::spawn(move || {
                            shed_connection(&engine, stream, &config, unread);
                            active.fetch_sub(1, Ordering::Relaxed);
                        });
                    } else {
                        admitted += 1;
                        let conns =
                            engine.transport.connections.fetch_add(1, Ordering::Relaxed) + 1;
                        tpp_obs::metrics()
                            .gauge("serve.connections")
                            .set(conns as f64);
                        obs_event!(Level::Debug, "serve.conn_accept", peer = peer.to_string());
                        let engine = Arc::clone(&engine);
                        let pool = Arc::clone(&pool);
                        let config = config.clone();
                        sessions.push(std::thread::spawn(move || {
                            conn_session(&engine, &pool, stream, &config);
                            let conns =
                                engine.transport.connections.fetch_sub(1, Ordering::Relaxed) - 1;
                            tpp_obs::metrics()
                                .gauge("serve.connections")
                                .set(conns as f64);
                        }));
                    }
                    if config.accept_limit.is_some_and(|limit| accepted >= limit) {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                    // Reap finished sessions so a long-lived daemon's
                    // handle list stays proportional to live sessions.
                    if sessions.len() > 64 {
                        sessions.retain(|h| !h.is_finished());
                    }
                }
                Err(e) => {
                    obs_event!(Level::Warn, "serve.accept_error", error = e.to_string());
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
        // Stop accepting: new connects are refused from here on.
        drop(listener);
        for s in sessions {
            let _ = s.join();
        }
        // Answer everything still queued, then let the workers exit.
        match Arc::try_unwrap(pool) {
            Ok(pool) => pool.shutdown(),
            Err(_) => unreachable!("all session threads joined"),
        }
        let t = &engine.transport;
        let summary = TcpSummary {
            accepted,
            admitted,
            shed: t.conns_shed.load(Ordering::Relaxed),
            timeouts: t.conn_timeouts.load(Ordering::Relaxed),
            undeliverable_responses: t.undeliverable_responses.load(Ordering::Relaxed),
            drained: t.draining(),
        };
        emit_shutdown(&engine, "tcp", accepted, admitted);
        summary
    }
}

/// One admitted connection: reads framed lines until EOF, idle timeout,
/// or drain; every complete line gets exactly one terminal response.
fn conn_session(
    engine: &Arc<ServeEngine>,
    pool: &WorkerPool,
    stream: TcpStream,
    config: &TcpConfig,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);
    let track = Arc::new(ConnTrack::default());
    let out: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(e) => {
            obs_event!(Level::Warn, "serve.conn_error", error = e.to_string());
            return;
        }
    };
    let mut reader = LineReader::new(stream, config.max_line_bytes);
    let mut last_line = Instant::now();
    let mut timed_out = false;
    loop {
        if engine.transport.draining() {
            break;
        }
        let deadline = last_line + config.idle_timeout;
        match reader.next_line_by(Some(deadline)) {
            FramedLine::Line(line) => {
                last_line = Instant::now();
                if line.trim().is_empty() {
                    continue;
                }
                track.requests.fetch_add(1, Ordering::Relaxed);
                let job = Job {
                    line,
                    trace: TraceCtx::root(),
                    enqueued: Instant::now(),
                    out: Arc::clone(&out),
                    track: Some(Arc::clone(&track)),
                };
                if let Err(job) = pool.try_submit(engine, job) {
                    let _trace = tpp_obs::trace::enter(job.trace);
                    let (response, _) = answer_unqueued(engine, &job.line);
                    deliver(engine, &out, &track, &response);
                }
            }
            FramedLine::Overlong => {
                last_line = Instant::now();
                track.requests.fetch_add(1, Ordering::Relaxed);
                engine
                    .transport
                    .overlong_lines
                    .fetch_add(1, Ordering::Relaxed);
                tpp_obs::metrics().counter("serve.overlong_line").inc();
                let response = engine.framing_error_response(&format!(
                    "line exceeds {} byte cap",
                    config.max_line_bytes
                ));
                deliver(engine, &out, &track, &response);
            }
            FramedLine::InvalidUtf8 => {
                last_line = Instant::now();
                track.requests.fetch_add(1, Ordering::Relaxed);
                let response = engine.framing_error_response("line is not valid utf-8");
                deliver(engine, &out, &track, &response);
            }
            FramedLine::TimedOut => {
                // Read timeouts double as the drain poll; only a blown
                // idle deadline is fatal.
                if Instant::now() >= deadline {
                    timed_out = true;
                    engine
                        .transport
                        .conn_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    tpp_obs::metrics().counter("serve.conn_timeout").inc();
                    obs_event!(
                        Level::Info,
                        "serve.conn_timeout",
                        idle_ms = last_line.elapsed().as_millis() as u64,
                    );
                    break;
                }
            }
            FramedLine::Eof => break,
            FramedLine::Err(e) => {
                obs_event!(Level::Warn, "serve.conn_error", error = e.to_string());
                break;
            }
        }
    }
    // The reader exits here, but queued jobs still hold `out` clones:
    // the socket closes only after their responses are written.
    obs_event!(
        Level::Debug,
        "serve.conn_closed",
        requests = track.requests.load(Ordering::Relaxed),
        responses = track.responses.load(Ordering::Relaxed),
        timed_out = timed_out,
    );
    tpp_obs::metrics().counter("serve.conn_closed").inc();
}

/// Writes a reader-side (shed or framing) response and keeps the
/// per-connection and delivery-failure accounting identical to the
/// worker path.
fn deliver(engine: &ServeEngine, out: &SharedWriter, track: &ConnTrack, response: &str) {
    let delivered = write_response(out, response);
    track.responses.fetch_add(1, Ordering::Relaxed);
    if !delivered {
        engine
            .transport
            .undeliverable_responses
            .fetch_add(1, Ordering::Relaxed);
        tpp_obs::metrics().counter("serve.write_failed").inc();
        obs_event!(Level::Warn, "serve.response_undeliverable", path = "reader");
    }
}

/// Handles a connection refused at admission: reads at most one capped
/// line under a short deadline so the `overloaded` response can echo
/// the request's `id`, answers, and closes. `unread` short-circuits the
/// read entirely when too many shed handlers are already running.
fn shed_connection(
    engine: &Arc<ServeEngine>,
    mut stream: TcpStream,
    config: &TcpConfig,
    unread: bool,
) {
    let trace = TraceCtx::root();
    let _trace = tpp_obs::trace::enter(trace);
    // A fixed, short budget to present the line — independent of the
    // session read timeout, which may be much tighter (poll) or looser.
    let deadline = Instant::now() + Duration::from_millis(250);
    let response = if unread {
        engine.overloaded_response("")
    } else {
        let _ = stream.set_read_timeout(Some(config.read_timeout.min(Duration::from_millis(50))));
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(_) => return,
        };
        let mut lines = LineReader::new(reader, config.max_line_bytes);
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
    let _ = stream.shutdown(std::net::Shutdown::Both);
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
