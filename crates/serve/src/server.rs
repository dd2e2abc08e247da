//! Sessions: the one framed-line reader every transport runs, and the
//! stdin/stdout transport built on it.
//!
//! `read_session` reads one session — stdio, a TCP connection or a
//! Unix-socket connection alike — and submits each request to the
//! transport's **bounded** [`WorkerPool`] queue. When the queue is full
//! the reader answers the request itself (`overloaded`) instead of
//! buffering without limit: a slow planner must surface as explicit
//! back-pressure, not as unbounded memory growth and an OOM kill.
//!
//! Framing is byte-level ([`crate::framing::LineReader`]): lines may
//! split across arbitrary read boundaries, `\r\n` is accepted, and an
//! over-cap or invalid-UTF-8 line gets a terminal `bad_request`
//! (`"id": null`) while the **session survives**.
//!
//! Responses interleave in completion order, each written whole under
//! the session's output lock; clients correlate via the echoed `id`.
//! Reader-side replies (sheds, framing rejects) and worker replies go
//! through the same `transport::deliver`, so the response count and the
//! undeliverable tally are kept alike on every transport. Every line
//! is stamped with a root [`tpp_obs::TraceCtx`] and its enqueue time
//! at ingestion; the worker re-enters that context, so queue wait, the
//! engine path and even shed responses share the request's `trace_id`.
//!
//! A `shutdown` request begins a graceful drain: the session stops
//! reading at the next line boundary and the pool answers everything
//! already queued. A `shutdown` the full queue would shed is handled
//! inline — an overloaded daemon must still be drainable
//! ([`crate::transport`] makes that call for every transport).
//!
//! [`serve_lines`] is the stdio transport: one session over any `Read`
//! input and `Write` output, so tests can drive it with in-memory
//! buffers and the CLI can hand it stdin/stdout. The socket transports
//! ([`crate::tcp`]) run one session per accepted connection.

use crate::engine::ServeEngine;
use crate::framing::{FramedLine, LineReader};
use crate::transport::{
    answer_unqueued, deliver, BatchConfig, ConnTrack, Job, SharedWriter, SupervisorConfig,
    WorkerPool,
};
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tpp_obs::{obs_event, Level, TraceCtx};

/// Stdio transport configuration.
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

/// How a session reads: the per-line byte cap, the idle deadline
/// (sockets) and the request cap (stdio).
pub(crate) struct SessionLimits {
    pub max_line_bytes: usize,
    pub idle_timeout: Option<Duration>,
    pub max_requests: Option<u64>,
}

/// How a session's reader ended. Requests and responses are counted
/// on the session's [`ConnTrack`].
#[derive(Default)]
pub(crate) struct SessionEnd {
    /// Requests shed because the pool did not take them.
    pub overloaded: u64,
    /// Lines rejected by framing (over-cap or invalid UTF-8).
    pub bad_lines: u64,
    /// The idle deadline closed the session.
    pub timed_out: bool,
}

/// Reads one session's framed lines until EOF, a read error, a drain,
/// the idle deadline or the request cap, and gives every complete
/// line exactly one terminal response: queued into `pool`, or answered
/// here when the pool does not take it or framing rejects the line.
/// Queued jobs hold clones of `out`, so the session's output stays
/// open until their responses are written.
pub(crate) fn read_session<R: std::io::Read>(
    engine: &ServeEngine,
    pool: &WorkerPool,
    input: R,
    out: &SharedWriter,
    track: &Arc<ConnTrack>,
    limits: &SessionLimits,
) -> SessionEnd {
    let mut end = SessionEnd::default();
    let mut reader = LineReader::new(input, limits.max_line_bytes);
    let mut last_line = Instant::now();
    while !engine.transport.draining()
        && !limits
            .max_requests
            .is_some_and(|max| track.requests.load(Ordering::Relaxed) >= max)
    {
        let deadline = limits.idle_timeout.map(|idle| last_line + idle);
        let reject = match reader.next_line_by(deadline) {
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
                    out: Arc::clone(out),
                    track: Arc::clone(track),
                };
                if let Err(job) = pool.try_submit(engine, job) {
                    // Answer under the request's own trace so the
                    // `serve.shed` event and flight dump correlate
                    // with this line.
                    let _trace = tpp_obs::trace::enter(job.trace);
                    let (response, shed) = answer_unqueued(engine, &job.line);
                    end.overloaded += u64::from(shed);
                    deliver(engine, out, track, &response);
                }
                continue;
            }
            FramedLine::Overlong => {
                engine
                    .transport
                    .overlong_lines
                    .fetch_add(1, Ordering::Relaxed);
                tpp_obs::metrics().counter("serve.overlong_line").inc();
                format!("line exceeds {} byte cap", limits.max_line_bytes)
            }
            FramedLine::InvalidUtf8 => "line is not valid utf-8".to_string(),
            // Read timeouts double as the drain poll; only a blown idle
            // deadline is fatal.
            FramedLine::TimedOut => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    end.timed_out = true;
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
                continue;
            }
            FramedLine::Eof => break,
            FramedLine::Err(e) => {
                obs_event!(Level::Warn, "serve.read_error", error = e.to_string());
                break;
            }
        };
        last_line = Instant::now();
        track.requests.fetch_add(1, Ordering::Relaxed);
        end.bad_lines += 1;
        deliver(engine, out, track, &engine.framing_error_response(&reject));
    }
    end
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
    let pool = WorkerPool::spawn_with(
        Arc::clone(&engine),
        config.workers,
        config.capacity,
        config.supervisor.clone(),
        config.batch.clone(),
    );
    let out: SharedWriter = Arc::new(Mutex::new(output));
    let track = Arc::new(ConnTrack::default());
    let limits = SessionLimits {
        max_line_bytes: config.max_line_bytes,
        idle_timeout: None,
        max_requests: config.max_requests,
    };
    let end = read_session(&engine, &pool, input, &out, &track, &limits);
    pool.shutdown();
    // Read after the pool drains: a shutdown job answered during the
    // drain still counts as a drained session.
    let drained = engine.transport.draining();
    let received = track.requests.load(Ordering::Relaxed);
    obs_event!(
        Level::Info,
        "serve.session_done",
        received = received,
        overloaded = end.overloaded,
        bad_lines = end.bad_lines,
        drained = drained,
    );
    ServeSummary {
        received,
        answered: track.responses.load(Ordering::Relaxed),
        overloaded: end.overloaded,
        bad_lines: end.bad_lines,
        drained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::tcp::{serve_unix, TcpConfig};
    use std::io::BufRead;
    use std::os::unix::net::UnixStream;
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

    /// Shed and framing-reject replies are written by the reader, not a
    /// worker; a failed write there is still an undeliverable response.
    #[test]
    fn reader_side_write_failures_are_counted() {
        struct Gone;
        impl Write for Gone {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
        }
        let engine = Arc::new(ServeEngine::new(ServeConfig::default()));
        let server = ServerConfig {
            max_line_bytes: 128,
            ..ServerConfig::default()
        };
        let input = format!("{}\n", "x".repeat(300));
        let summary = serve_lines(Arc::clone(&engine), input.as_bytes(), Gone, &server);
        assert_eq!(summary.bad_lines, 1);
        let undeliverable = engine
            .transport
            .undeliverable_responses
            .load(Ordering::Relaxed);
        assert!(
            undeliverable >= 1,
            "undeliverable_responses {undeliverable}"
        );
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

    fn connect_unix(path: &std::path::Path) -> UnixStream {
        for _ in 0..100 {
            if let Ok(s) = UnixStream::connect(path) {
                return s;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("daemon socket never came up");
    }

    fn request_unix(stream: &UnixStream, line: &str) -> Json {
        writeln!(&*stream, "{line}").unwrap();
        let mut response = String::new();
        std::io::BufReader::new(stream)
            .read_line(&mut response)
            .unwrap();
        parse(response.trim()).unwrap()
    }

    /// Unix connections join one engine-wide pool: a second session
    /// adds a connection, not a second set of workers.
    #[test]
    fn unix_sessions_share_one_worker_pool() {
        let path =
            std::env::temp_dir().join(format!("tpp-serve-shared-{}.sock", std::process::id()));
        let engine = Arc::new(ServeEngine::new(ServeConfig::default()));
        let listener = {
            let engine = Arc::clone(&engine);
            let path = path.clone();
            std::thread::spawn(move || serve_unix(engine, &path, &TcpConfig::default()))
        };
        let first = connect_unix(&path);
        let health = request_unix(&first, "{\"op\":\"health\",\"id\":\"one\"}");
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
        let second = connect_unix(&path);
        let stats = request_unix(&second, "{\"op\":\"stats\",\"id\":\"two\"}");
        let field = |key: &str| stats.get(key).and_then(Json::as_f64);
        assert_eq!(
            field("workers_alive"),
            field("workers_configured"),
            "{stats:?}"
        );
        assert_eq!(field("connections"), Some(2.0), "{stats:?}");
        request_unix(&second, "{\"op\":\"shutdown\"}");
        listener.join().unwrap().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn unix_socket_round_trip_and_cleanup() {
        let path = std::env::temp_dir().join(format!("tpp-serve-{}.sock", std::process::id()));
        let engine = Arc::new(ServeEngine::new(ServeConfig::default()));
        let server = TcpConfig {
            accept_limit: Some(1),
            ..TcpConfig::default()
        };
        let listener = {
            let engine = Arc::clone(&engine);
            let path = path.clone();
            std::thread::spawn(move || serve_unix(engine, &path, &server))
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
