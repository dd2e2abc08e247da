//! Integration tests for the socket front end: admission control, slow
//! client defense, framing resilience on shared connections, and the
//! graceful drain protocol. TCP and Unix-socket listeners run the same
//! accept loop, so every case runs over both.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpp_obs::json::{parse, Json};
use tpp_serve::{serve_unix, ServeConfig, ServeEngine, TcpConfig, TcpServer, TcpSummary};

/// The listener families every case runs over.
#[derive(Clone, Copy, Debug)]
enum Family {
    Tcp,
    Unix,
}

const FAMILIES: [Family; 2] = [Family::Tcp, Family::Unix];

/// Where a test daemon listens.
enum Endpoint {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

struct Daemon {
    endpoint: Endpoint,
    handle: std::thread::JoinHandle<TcpSummary>,
}

impl Daemon {
    /// Waits for the accept loop to return. A Unix listener must have
    /// unlinked its socket file by then.
    fn join(self) -> TcpSummary {
        let summary = self.handle.join().expect("server thread");
        if let Endpoint::Unix(path) = &self.endpoint {
            assert!(!path.exists(), "socket file {path:?} left behind");
        }
        summary
    }
}

fn spawn(family: Family, engine_config: ServeConfig, tcp: TcpConfig) -> Daemon {
    let engine = Arc::new(ServeEngine::new(engine_config));
    match family {
        Family::Tcp => {
            let server = TcpServer::bind(engine, "127.0.0.1:0", tcp).expect("bind");
            let addr = server.local_addr();
            Daemon {
                endpoint: Endpoint::Tcp(addr),
                handle: std::thread::spawn(move || server.run()),
            }
        }
        Family::Unix => {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let path = std::env::temp_dir().join(format!(
                "tpp-serve-tcp-{}-{}.sock",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_file(&path);
            let handle = {
                let path = path.clone();
                std::thread::spawn(move || serve_unix(engine, &path, &tcp).expect("bind"))
            };
            for _ in 0..400 {
                if path.exists() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Daemon {
                endpoint: Endpoint::Unix(path),
                handle,
            }
        }
    }
}

fn fast_tcp() -> TcpConfig {
    TcpConfig {
        read_timeout: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(10),
        ..TcpConfig::default()
    }
}

type Writer = Box<dyn Write + Send>;
type Reader = BufReader<Box<dyn Read + Send>>;

fn send_line(stream: &mut Writer, line: &str) {
    writeln!(stream, "{line}").expect("write");
    stream.flush().expect("flush");
}

fn read_json(reader: &mut Reader) -> Json {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read");
    assert!(n > 0, "connection closed before a response arrived");
    parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

fn connect(endpoint: &Endpoint) -> (Writer, Reader) {
    let timeout = Some(Duration::from_secs(30));
    match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(timeout).unwrap();
            let reader = stream.try_clone().expect("clone");
            (Box::new(stream), BufReader::new(Box::new(reader)))
        }
        Endpoint::Unix(path) => {
            let stream = UnixStream::connect(path).expect("connect");
            stream.set_read_timeout(timeout).unwrap();
            let reader = stream.try_clone().expect("clone");
            (Box::new(stream), BufReader::new(Box::new(reader)))
        }
    }
}

/// One fresh connection attempt, to probe whether the listener still
/// accepts.
fn try_connect(endpoint: &Endpoint) -> std::io::Result<()> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            TcpStream::connect_timeout(addr, Duration::from_millis(200)).map(drop)
        }
        Endpoint::Unix(path) => UnixStream::connect(path).map(drop),
    }
}

/// The acceptance-criteria drain test: a request already in flight
/// (stalled in a worker by chaos) completes with a real response,
/// while — during that same window — new connection attempts are
/// refused because the drain already closed the listener.
#[test]
fn graceful_drain_answers_in_flight_while_refusing_new_connects() {
    for family in FAMILIES {
        let chaos: tpp_serve::ChaosPlan = "stall@1:800".parse().unwrap();
        let server = spawn(
            family,
            ServeConfig {
                chaos,
                ..ServeConfig::default()
            },
            TcpConfig {
                workers: 2,
                ..fast_tcp()
            },
        );

        // In-flight request: ordinal 1 stalls 800 ms inside its worker.
        // Stalls apply on the planning path, so it must be a plan.
        let (mut slow_stream, mut slow_reader) = connect(&server.endpoint);
        let t0 = Instant::now();
        send_line(
            &mut slow_stream,
            r#"{"op":"plan","dataset":"ds-ct","episodes":10,"id":"inflight"}"#,
        );
        // Give the worker a moment to dequeue it before the drain begins.
        std::thread::sleep(Duration::from_millis(100));

        // Begin the drain from a second connection; the ack proves the
        // flag flipped while the stalled request is still in flight.
        let (mut ctl_stream, mut ctl_reader) = connect(&server.endpoint);
        send_line(&mut ctl_stream, r#"{"op":"shutdown","id":"drain"}"#);
        let ack = read_json(&mut ctl_reader);
        assert_eq!(ack.get("draining"), Some(&Json::Bool(true)), "{ack:?}");

        // While the stalled request is still being served, new connects
        // must start failing (the listener is closed within the accept
        // poll interval).
        let refused_at = loop {
            match try_connect(&server.endpoint) {
                Err(_) => break Instant::now(),
                Ok(_) => {
                    assert!(
                        t0.elapsed() < Duration::from_secs(5),
                        "listener never refused new connects during the drain"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };

        // The in-flight request still gets its real answer after the
        // refusals began.
        let response = read_json(&mut slow_reader);
        let answered_at = Instant::now();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
        assert_eq!(
            response.get("id").and_then(Json::as_str),
            Some("inflight"),
            "{response:?}"
        );
        assert!(
            answered_at >= refused_at,
            "the stalled in-flight response must complete after new connects were already refused"
        );
        assert!(
            answered_at - t0 >= Duration::from_millis(800),
            "the in-flight plan was answered {:?} after it was sent, inside its 800 ms stall",
            answered_at - t0
        );

        let summary = server.join();
        assert!(summary.drained);
        assert_eq!(summary.undeliverable_responses, 0);
    }
}

/// At the connection limit, a new connection is shed *before* session
/// admission: it gets an immediate `overloaded` echoing its request id,
/// then the socket closes.
#[test]
fn admission_shed_echoes_the_request_id_and_closes() {
    for family in FAMILIES {
        let server = spawn(
            family,
            ServeConfig::default(),
            TcpConfig {
                max_connections: 1,
                ..fast_tcp()
            },
        );

        // Occupy the only admitted slot with an idle (but live) session.
        let (_hold_stream, _hold_reader) = connect(&server.endpoint);
        std::thread::sleep(Duration::from_millis(50));

        let (mut shed_stream, mut shed_reader) = connect(&server.endpoint);
        send_line(&mut shed_stream, r#"{"op":"health","id":"turned-away"}"#);
        let response = read_json(&mut shed_reader);
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response:?}");
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some("overloaded"),
            "{response:?}"
        );
        assert_eq!(
            response.get("id").and_then(Json::as_str),
            Some("turned-away"),
            "shed responses must echo the id: {response:?}"
        );
        // The shed connection is closed after its one response.
        let mut rest = String::new();
        assert_eq!(shed_reader.read_line(&mut rest).unwrap(), 0);

        let (mut stream, mut reader) = connect(&server.endpoint);
        send_line(&mut stream, r#"{"op":"shutdown"}"#);
        read_json(&mut reader); // even a shed connection can drain
        let summary = server.join();
        assert!(summary.shed >= 1, "{summary:?}");
        assert_eq!(summary.undeliverable_responses, 0);
    }
}

/// A slow-loris connection (bytes trickle, no complete line) is closed
/// at the idle timeout; well-behaved connections are untouched.
#[test]
fn slow_loris_is_timed_out_without_hurting_others() {
    for family in FAMILIES {
        let server = spawn(
            family,
            ServeConfig::default(),
            TcpConfig {
                read_timeout: Duration::from_millis(20),
                idle_timeout: Duration::from_millis(150),
                ..TcpConfig::default()
            },
        );

        let (mut loris, mut loris_reader) = connect(&server.endpoint);
        loris.write_all(b"{\"op\":\"hea").unwrap();
        loris.flush().unwrap();

        // A healthy client keeps completing lines well past the loris's
        // idle deadline.
        let (mut good, mut good_reader) = connect(&server.endpoint);
        for i in 0..4 {
            send_line(&mut good, &format!(r#"{{"op":"health","id":"g{i}"}}"#));
            let response = read_json(&mut good_reader);
            assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
            std::thread::sleep(Duration::from_millis(60));
        }

        // The loris saw EOF: the server cut it off at the idle timeout.
        let mut buf = String::new();
        let n = loris_reader.read_line(&mut buf).expect("loris read");
        assert_eq!(n, 0, "slow-loris connection must be closed, got {buf:?}");

        send_line(&mut good, r#"{"op":"shutdown"}"#);
        read_json(&mut good_reader);
        let summary = server.join();
        assert!(summary.timeouts >= 1, "{summary:?}");
        assert_eq!(summary.undeliverable_responses, 0);
    }
}

/// Hostile framing on a shared connection — an over-cap line, invalid
/// UTF-8, a CRLF ending — each gets a terminal `bad_request`-style
/// response and the *same* connection keeps serving.
#[test]
fn framing_rejects_keep_the_connection_alive() {
    for family in FAMILIES {
        let server = spawn(
            family,
            ServeConfig::default(),
            TcpConfig {
                max_line_bytes: 256,
                ..fast_tcp()
            },
        );

        let (mut stream, mut reader) = connect(&server.endpoint);

        // Over-cap line: bad_request with explicit id: null.
        let long = format!("{}\n", "x".repeat(1000));
        stream.write_all(long.as_bytes()).unwrap();
        let response = read_json(&mut reader);
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response:?}");
        assert_eq!(response.get("id"), Some(&Json::Null), "{response:?}");
        assert!(
            response
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .starts_with("bad_request"),
            "{response:?}"
        );

        // Invalid UTF-8 line: rejected, connection survives.
        stream.write_all(&[0xff, 0xfe, 0xfd, b'\n']).unwrap();
        let response = read_json(&mut reader);
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response:?}");

        // CRLF-terminated request on the same battered connection.
        stream
            .write_all(b"{\"op\":\"health\",\"id\":\"still-here\"}\r\n")
            .unwrap();
        let response = read_json(&mut reader);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
        assert_eq!(
            response.get("id").and_then(Json::as_str),
            Some("still-here"),
            "{response:?}"
        );

        send_line(&mut stream, r#"{"op":"shutdown"}"#);
        read_json(&mut reader);
        let summary = server.join();
        assert_eq!(summary.undeliverable_responses, 0);
    }
}

/// `health` is a readiness probe: `accepting: true` with connection
/// and queue numbers while serving, and the drain is observable in the
/// shutdown ack.
#[test]
fn health_reports_readiness_and_connection_counts() {
    for family in FAMILIES {
        let server = spawn(family, ServeConfig::default(), fast_tcp());

        let (mut stream, mut reader) = connect(&server.endpoint);
        send_line(&mut stream, r#"{"op":"health","id":"probe"}"#);
        let health = read_json(&mut reader);
        assert_eq!(
            health.get("accepting"),
            Some(&Json::Bool(true)),
            "{health:?}"
        );
        assert_eq!(
            health.get("draining"),
            Some(&Json::Bool(false)),
            "{health:?}"
        );
        assert_eq!(
            health.get("connections").and_then(Json::as_f64),
            Some(1.0),
            "{health:?}"
        );
        assert!(health.get("queue_depth").is_some(), "{health:?}");

        send_line(&mut stream, r#"{"op":"stats","id":"s"}"#);
        let stats = read_json(&mut reader);
        for key in [
            "accepting",
            "conns_accepted",
            "conns_shed",
            "conn_timeouts",
            "overlong_lines",
            "undeliverable_responses",
        ] {
            assert!(stats.get(key).is_some(), "stats lacks {key}: {stats:?}");
        }

        send_line(&mut stream, r#"{"op":"shutdown","id":"bye"}"#);
        let ack = read_json(&mut reader);
        assert_eq!(ack.get("draining"), Some(&Json::Bool(true)), "{ack:?}");
        let summary = server.join();
        assert!(summary.drained);
    }
}
