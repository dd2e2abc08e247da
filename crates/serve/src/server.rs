//! Transport: bounded queue, worker pool, stdin/stdout and Unix socket.
//!
//! [`serve_lines`] is the core session loop, generic over any `Read`
//! input and `Write` output so the chaos tests can drive it with
//! in-memory buffers and the CLI can hand it stdin/stdout. Requests
//! enter the **bounded** queue of a [`WorkerPool`]; when it is full the
//! reader sheds the request immediately with an `overloaded` response
//! instead of buffering without limit — a slow planner must surface as
//! explicit back-pressure, not as unbounded memory growth followed by
//! an OOM kill.
//!
//! Framing is byte-level ([`crate::framing::LineReader`]): lines may
//! split across arbitrary read boundaries, `\r\n` is accepted, an
//! over-cap or invalid-UTF-8 line gets a terminal `bad_request`
//! (`"id": null`) and the **session survives** — one hostile line no
//! longer tears down a shared connection.
//!
//! Responses from concurrent workers interleave in completion order;
//! each response is written under one lock acquisition so lines never
//! tear. Clients correlate via the echoed `id`.
//!
//! Every accepted line is stamped with a fresh root [`tpp_obs::TraceCtx`]
//! **at ingestion** and with its enqueue time. The worker that dequeues
//! it re-enters that context, so queue wait (`serve.queue_wait_us`
//! histogram, `serve.queue_depth` gauge), the whole engine path, and
//! even shed responses all share the request's `trace_id`.
//!
//! A `shutdown` request begins a graceful drain: the session stops
//! reading new lines at the next line boundary, the pool answers
//! everything already queued, and the transport emits a traced
//! `serve.shutdown` event with drain counts. When the queue is
//! saturated, a `shutdown` line that would have been shed is handled
//! inline instead — an overloaded daemon must still be drainable
//! ([`crate::transport`] makes that call for every transport).
//!
//! The TCP transport ([`crate::tcp`]) reuses the same pool, framing and
//! drain machinery with one shared pool across all connections.

use crate::engine::ServeEngine;
use crate::framing::{FramedLine, LineReader};
use crate::transport::{
    answer_unqueued, write_response, BatchConfig, Job, SharedWriter, SupervisorConfig, WorkerPool,
};
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tpp_obs::{obs_event, Level, TraceCtx};

/// Transport configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queue capacity; requests beyond it are shed as `overloaded`.
    pub capacity: usize,
    /// Worker threads handling requests concurrently.
    pub workers: usize,
    /// Stop after this many input lines (`None` = until EOF). Used by
    /// tests and bounded smoke runs.
    pub max_requests: Option<u64>,
    /// Per-line byte cap; longer lines are discarded and answered with
    /// a terminal `bad_request` while the session stays alive.
    pub max_line_bytes: usize,
    /// Worker-pool supervision (respawn budget, wedge detection).
    pub supervisor: SupervisorConfig,
    /// Turn-level plan batching (same-key dequeue-many, shared policy
    /// resolution).
    pub batch: BatchConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity: 64,
            workers: 2,
            max_requests: None,
            max_line_bytes: 256 * 1024,
            supervisor: SupervisorConfig::default(),
            batch: BatchConfig::default(),
        }
    }
}

/// What a serving session did, for the exit summary and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Input lines read (framing rejects included).
    pub received: u64,
    /// Responses written (sheds and framing rejects included) — must
    /// equal `received`.
    pub answered: u64,
    /// Requests shed by the bounded queue.
    pub overloaded: u64,
    /// Lines rejected by framing (over-cap or invalid UTF-8).
    pub bad_lines: u64,
    /// The session ended because a drain was requested.
    pub drained: bool,
}

/// Emits the traced `serve.shutdown` event every transport ends with.
pub(crate) fn emit_shutdown(engine: &ServeEngine, transport: &str, received: u64, answered: u64) {
    let t = &engine.transport;
    obs_event!(
        Level::Info,
        "serve.shutdown",
        transport = transport,
        drained = t.draining(),
        received = received,
        answered = answered,
        drained_in_flight = t.drained_in_flight.load(Ordering::Relaxed),
        conns_accepted = t.conns_accepted.load(Ordering::Relaxed),
        conns_shed = t.conns_shed.load(Ordering::Relaxed),
        conn_timeouts = t.conn_timeouts.load(Ordering::Relaxed),
        undeliverable_responses = t.undeliverable_responses.load(Ordering::Relaxed),
    );
}

/// Serves newline-delimited requests from `input` to `output` until EOF
/// (or `max_requests`, or a `shutdown`-initiated drain), answering
/// every line exactly once.
pub fn serve_lines<R, W>(
    engine: Arc<ServeEngine>,
    input: R,
    output: W,
    config: &ServerConfig,
) -> ServeSummary
where
    R: std::io::Read,
    W: Write + Send + 'static,
{
    let capacity = config.capacity.max(1);
    engine.transport.set_limits(0, capacity as u64);
    let output: SharedWriter = Arc::new(Mutex::new(output));
    let pool = WorkerPool::spawn_with(
        Arc::clone(&engine),
        config.workers,
        capacity,
        config.supervisor.clone(),
        config.batch.clone(),
    );

    let mut received = 0u64;
    let mut overloaded = 0u64;
    let mut bad_lines = 0u64;
    let mut reader = LineReader::new(input, config.max_line_bytes);
    loop {
        if engine.transport.draining() {
            break;
        }
        match reader.next_line() {
            FramedLine::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                received += 1;
                let job = Job {
                    line,
                    trace: TraceCtx::root(),
                    enqueued: Instant::now(),
                    out: Arc::clone(&output),
                    track: None,
                };
                if let Err(job) = pool.try_submit(&engine, job) {
                    // Shed under the request's own trace so the
                    // `serve.shed` event and flight dump correlate
                    // with this line.
                    let _trace = tpp_obs::trace::enter(job.trace);
                    let (response, shed) = answer_unqueued(&engine, &job.line);
                    overloaded += u64::from(shed);
                    write_response(&output, &response);
                }
            }
            FramedLine::Overlong => {
                received += 1;
                bad_lines += 1;
                engine
                    .transport
                    .overlong_lines
                    .fetch_add(1, Ordering::Relaxed);
                tpp_obs::metrics().counter("serve.overlong_line").inc();
                let response = engine.framing_error_response(&format!(
                    "line exceeds {} byte cap",
                    config.max_line_bytes
                ));
                write_response(&output, &response);
            }
            FramedLine::InvalidUtf8 => {
                received += 1;
                bad_lines += 1;
                let response = engine.framing_error_response("line is not valid utf-8");
                write_response(&output, &response);
            }
            // A generic reader with a timeout just polls the drain flag.
            FramedLine::TimedOut => continue,
            FramedLine::Eof => break,
            FramedLine::Err(e) => {
                obs_event!(Level::Warn, "serve.read_error", error = e.to_string());
                break;
            }
        }
        if config.max_requests.is_some_and(|max| received >= max) {
            break;
        }
    }

    pool.shutdown();
    // Read after the pool drains: a shutdown job answered during the
    // drain still counts as a drained session.
    let drained = engine.transport.draining();
    obs_event!(
        Level::Info,
        "serve.session_done",
        received = received,
        overloaded = overloaded,
        bad_lines = bad_lines,
        drained = drained,
    );
    ServeSummary {
        received,
        answered: received,
        overloaded,
        bad_lines,
        drained,
    }
}

/// Poll interval for nonblocking accept loops — the latency bound on
/// noticing a drain request.
pub(crate) const ACCEPT_POLL: std::time::Duration = std::time::Duration::from_millis(5);

/// Serves connections on a Unix domain socket at `path`, one session
/// per connection (each with its own queue and workers).
///
/// `accept_limit` bounds how many connections are accepted before the
/// listener stops (`None` = forever); tests use it to terminate. A
/// `shutdown` request on any session also ends the listener: the
/// accept loop polls the drain flag. On clean exit the socket file is
/// **unlinked** — a stale socket no longer lingers until the next bind
/// — and a traced `serve.shutdown` event reports the drain counts.
pub fn serve_unix(
    engine: Arc<ServeEngine>,
    path: &std::path::Path,
    config: &ServerConfig,
    accept_limit: Option<usize>,
) -> std::io::Result<()> {
    // A stale socket file from a previous unclean run would fail the
    // bind (clean runs now unlink it on exit; crashes still leave one).
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    obs_event!(
        Level::Info,
        "serve.listening",
        socket = path.display().to_string(),
    );
    let mut sessions = Vec::new();
    let mut accepted = 0usize;
    loop {
        if engine.transport.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                accepted += 1;
                engine
                    .transport
                    .conns_accepted
                    .fetch_add(1, Ordering::Relaxed);
                stream.set_nonblocking(false)?;
                let reader = stream.try_clone()?;
                let engine = Arc::clone(&engine);
                let config = config.clone();
                sessions.push(std::thread::spawn(move || {
                    serve_lines(engine, reader, stream, &config);
                }));
                if accept_limit.is_some_and(|limit| accepted >= limit) {
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
    drop(listener);
    for s in sessions {
        let _ = s.join();
    }
    // Clean shutdown leaves no socket artifact behind.
    let _ = std::fs::remove_file(path);
    emit_shutdown(&engine, "unix", accepted as u64, accepted as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use std::io::BufRead;
    use tpp_obs::json::{parse, Json};

    fn run(
        input: &str,
        server: &ServerConfig,
        engine_config: ServeConfig,
    ) -> (ServeSummary, Vec<Json>) {
        run_bytes(input.as_bytes(), server, engine_config)
    }

    fn run_bytes(
        input: &[u8],
        server: &ServerConfig,
        engine_config: ServeConfig,
    ) -> (ServeSummary, Vec<Json>) {
        let engine = Arc::new(ServeEngine::new(engine_config));
        let out: Vec<u8> = Vec::new();
        let out = Arc::new(Mutex::new(std::io::Cursor::new(out)));
        // Wrap the shared cursor so we can read it back after the run.
        struct SharedOut(Arc<Mutex<std::io::Cursor<Vec<u8>>>>);
        impl Write for SharedOut {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let summary = serve_lines(
            Arc::clone(&engine),
            input,
            SharedOut(Arc::clone(&out)),
            server,
        );
        let bytes = out.lock().unwrap().get_ref().clone();
        let text = String::from_utf8(bytes).unwrap();
        let responses = text
            .lines()
            .map(|l| parse(l).unwrap_or_else(|e| panic!("invalid response {l:?}: {e}")))
            .collect();
        (summary, responses)
    }

    #[test]
    fn every_line_gets_a_response() {
        let input = concat!(
            "{\"op\":\"health\",\"id\":\"a\"}\n",
            "garbage\n",
            "{\"op\":\"stats\",\"id\":\"b\"}\n",
        );
        let (summary, responses) = run(input, &ServerConfig::default(), ServeConfig::default());
        assert_eq!(summary.received, 3);
        assert_eq!(responses.len(), 3);
    }

    #[test]
    fn blank_lines_are_skipped_not_answered() {
        let input = "\n{\"op\":\"health\"}\n   \n";
        let (summary, responses) = run(input, &ServerConfig::default(), ServeConfig::default());
        assert_eq!(summary.received, 1);
        assert_eq!(responses.len(), 1);
    }

    #[test]
    fn max_requests_bounds_the_session() {
        let input = "{\"op\":\"health\"}\n".repeat(10);
        let config = ServerConfig {
            max_requests: Some(4),
            ..ServerConfig::default()
        };
        let (summary, responses) = run(&input, &config, ServeConfig::default());
        assert_eq!(summary.received, 4);
        assert_eq!(responses.len(), 4);
    }

    #[test]
    fn overload_sheds_with_a_terminal_response() {
        // One slow worker, capacity 1, and stalls on the first requests
        // so the queue backs up while the reader races ahead.
        let chaos: crate::ChaosPlan = "stall@1:150,stall@2:150".parse().unwrap();
        let engine_config = ServeConfig {
            chaos,
            ..ServeConfig::default()
        };
        let server = ServerConfig {
            capacity: 1,
            workers: 1,
            ..ServerConfig::default()
        };
        let input = "{\"op\":\"health\"}\n".repeat(30);
        let (summary, responses) = run(&input, &server, engine_config);
        assert_eq!(summary.received, 30);
        assert_eq!(responses.len(), 30, "every request answered");
        let shed = responses
            .iter()
            .filter(|r| r.get("error").and_then(|e| e.as_str()) == Some("overloaded"))
            .count() as u64;
        assert_eq!(shed, summary.overloaded);
        assert!(shed > 0, "expected some load shedding");
    }

    #[test]
    fn overlong_line_gets_bad_request_and_session_survives() {
        let mut input = String::new();
        input.push_str(&"x".repeat(300));
        input.push('\n');
        input.push_str("{\"op\":\"health\",\"id\":\"after\"}\n");
        let server = ServerConfig {
            max_line_bytes: 128,
            ..ServerConfig::default()
        };
        let (summary, responses) = run(&input, &server, ServeConfig::default());
        assert_eq!(summary.received, 2);
        assert_eq!(summary.bad_lines, 1);
        assert_eq!(responses.len(), 2);
        let bad = responses
            .iter()
            .find(|r| r.get("ok") == Some(&Json::Bool(false)))
            .expect("a bad_request response");
        assert_eq!(bad.get("id"), Some(&Json::Null));
        assert!(bad
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("byte cap"));
        let after = responses
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some("after"))
            .expect("the follow-up request answered on the same session");
        assert_eq!(after.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn invalid_utf8_line_is_rejected_without_killing_the_session() {
        let mut input: Vec<u8> = vec![0xff, 0xfe, 0xfd, b'\n'];
        input.extend_from_slice(b"{\"op\":\"health\",\"id\":\"ok\"}\n");
        let (summary, responses) =
            run_bytes(&input, &ServerConfig::default(), ServeConfig::default());
        assert_eq!(summary.received, 2);
        assert_eq!(summary.bad_lines, 1);
        assert_eq!(responses.len(), 2, "both lines answered");
        assert!(responses
            .iter()
            .any(|r| r.get("id").and_then(Json::as_str) == Some("ok")));
    }

    #[test]
    fn crlf_terminated_requests_parse() {
        let input = "{\"op\":\"health\",\"id\":\"crlf\"}\r\n";
        let (summary, responses) = run(input, &ServerConfig::default(), ServeConfig::default());
        assert_eq!(summary.received, 1);
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(responses[0].get("id").and_then(Json::as_str), Some("crlf"));
    }

    #[test]
    fn shutdown_op_drains_the_session() {
        let input = concat!(
            "{\"op\":\"health\",\"id\":\"h\"}\n",
            "{\"op\":\"shutdown\",\"id\":\"s\"}\n",
            "{\"op\":\"health\",\"id\":\"late\"}\n",
        );
        let (summary, responses) = run(input, &ServerConfig::default(), ServeConfig::default());
        // The pre-drain requests are answered; once the drain flag is
        // observed the session stops reading (the `late` line may or
        // may not have been read before the worker flipped the flag —
        // but everything read is answered).
        assert!(summary.drained, "session must end drained");
        assert_eq!(summary.received, responses.len() as u64);
        let shutdown = responses
            .iter()
            .find(|r| r.get("op").and_then(Json::as_str) == Some("shutdown"))
            .expect("shutdown acknowledged");
        assert_eq!(shutdown.get("draining"), Some(&Json::Bool(true)));
    }

    /// A backed-up queue of same-key plan requests is dequeued as one
    /// batch: the single worker stalls on the leading request (chaos)
    /// while the reader enqueues four identical plans, then answers all
    /// four from one shared policy resolution.
    #[test]
    fn same_key_backlog_is_answered_as_one_batch() {
        let chaos: crate::ChaosPlan = "stall@1:200".parse().unwrap();
        let engine = Arc::new(ServeEngine::new(ServeConfig {
            chaos,
            ..ServeConfig::default()
        }));
        let server = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let mut input = String::from("{\"op\":\"health\",\"id\":\"stalled\"}\n");
        for i in 0..4 {
            input.push_str(&format!(
                "{{\"op\":\"plan\",\"dataset\":\"ds-ct\",\"episodes\":40,\"seed\":7,\"id\":\"b{i}\"}}\n"
            ));
        }
        let out = Arc::new(Mutex::new(std::io::Cursor::new(Vec::new())));
        struct SharedOut(Arc<Mutex<std::io::Cursor<Vec<u8>>>>);
        impl Write for SharedOut {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let summary = serve_lines(
            Arc::clone(&engine),
            input.as_bytes(),
            SharedOut(Arc::clone(&out)),
            &server,
        );
        assert_eq!(summary.received, 5);
        let bytes = out.lock().unwrap().get_ref().clone();
        let text = String::from_utf8(bytes).unwrap();
        let responses: Vec<Json> = text.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(responses.len(), 5, "every request answered");
        let batched: Vec<&Json> = responses
            .iter()
            .filter(|r| r.get("batched") == Some(&Json::Bool(true)))
            .collect();
        assert_eq!(batched.len(), 4, "all four plans answered from one batch");
        for r in &batched {
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
            assert_eq!(r.get("batch_size").and_then(Json::as_f64), Some(4.0));
        }
        let t = &engine.transport;
        assert_eq!(t.batches_formed.load(Ordering::Relaxed), 1);
        assert_eq!(t.batch_members.load(Ordering::Relaxed), 4);
        assert_eq!(
            t.amortized_loads.load(Ordering::Relaxed),
            3,
            "four members share one policy resolution"
        );
    }

    #[test]
    fn unix_socket_round_trip_and_cleanup() {
        let path = std::env::temp_dir().join(format!("tpp-serve-{}.sock", std::process::id()));
        let engine = Arc::new(ServeEngine::new(ServeConfig::default()));
        let server = ServerConfig::default();
        let listener = {
            let engine = Arc::clone(&engine);
            let path = path.clone();
            let server = server.clone();
            std::thread::spawn(move || serve_unix(engine, &path, &server, Some(1)))
        };
        // Wait for the socket to appear.
        let mut stream = None;
        for _ in 0..100 {
            if let Ok(s) = std::os::unix::net::UnixStream::connect(&path) {
                stream = Some(s);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let mut stream = stream.expect("daemon socket never came up");
        stream
            .write_all(b"{\"op\":\"health\",\"id\":\"sock\"}\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        std::io::BufReader::new(&stream)
            .read_line(&mut response)
            .unwrap();
        let v = parse(response.trim()).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("id").unwrap().as_str(), Some("sock"));
        listener.join().unwrap().unwrap();
        // Clean shutdown removes the socket artifact.
        assert!(
            !path.exists(),
            "socket file must be unlinked on clean shutdown"
        );
    }
}
