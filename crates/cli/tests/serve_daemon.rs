//! End-to-end daemon chaos smoke: drive the real `rl-planner serve`
//! process with hundreds of requests and injected faults, and assert
//! the availability contract holds at the process boundary — exit 0,
//! one response per request, no unanswered ids, honest degraded tags.

use std::io::Write;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rl-planner"))
}

/// Builds an NDJSON request stream of `n` mixed requests with ids
/// `q1..qn`.
fn request_stream(n: usize) -> String {
    let mut input = String::new();
    for i in 1..=n {
        let line = match i % 5 {
            0 => r#"{"op":"stats","id":"ID"}"#,
            1 => r#"{"op":"health","id":"ID"}"#,
            2 => r#"{"op":"recommend","dataset":"ds-ct","id":"ID"}"#,
            3 => r#"{"op":"plan","dataset":"ds-ct","episodes":10,"deadline_ms":500,"id":"ID"}"#,
            _ => r#"{"op":"recommend","dataset":"nyc","id":"ID"}"#,
        };
        input.push_str(&line.replace("ID", &format!("q{i}")));
        input.push('\n');
    }
    input
}

#[test]
fn two_hundred_requests_with_fault_injection_all_answered() {
    const N: usize = 200;
    let mut child = bin()
        .args([
            "serve",
            // Chaos ordinals are assigned at engine intake; one worker
            // takes the lines in input order, so each fault hits the
            // request its ordinal names instead of whichever of several
            // racing workers got there first.
            "--workers",
            "1",
            "--capacity",
            "256",
            "--chaos",
            // Panics, stalls and (no-op without a checkpoint dir, but
            // still exercised) corruption sprinkled across the run.
            // All three panic ordinals hit planning requests (i%5 in
            // {2,3}), so each recovery is visible as a `fallbacks` tag.
            "panic@3,panic@77,panic@152,stall@10:50,stall@120:50,corrupt@55",
            // Chaos ordinals are keyed to dequeue order; batching pulls
            // same-key requests ahead of earlier arrivals, which would
            // re-map which request each fault hits. Run unbatched so
            // the panic ordinals stay pinned to the lines above.
            "--batch-max",
            "1",
            "--quiet",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");

    let input = request_stream(N);
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    // Dropping stdin closes it; the daemon drains the queue and exits.
    let out = child.wait_with_output().expect("daemon did not exit");

    // The process must survive every fault and exit cleanly.
    assert!(
        out.status.success(),
        "daemon died: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8(out.stdout).unwrap();
    let responses: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(responses.len(), N, "every request must be answered");

    // Every response parses as JSON and every id comes back exactly once.
    let mut ids = Vec::with_capacity(N);
    let mut isolated_panics = 0;
    for line in &responses {
        let v = tpp_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("invalid response json {line:?}: {e}"));
        let id = v
            .get("id")
            .and_then(|i| i.as_str())
            .unwrap_or_else(|| panic!("response without id: {line}"));
        ids.push(id.to_owned());
        // Only the request whose primary tier panicked counts: a key
        // that panics repeatedly is quarantined, and the quarantine
        // fallback's reason also mentions the panics.
        if let Some(tpp_obs::json::Json::Arr(fallbacks)) = v.get("fallbacks") {
            if fallbacks.iter().any(|f| {
                f.as_str()
                    .is_some_and(|s| s.starts_with("primary: panicked"))
            }) {
                isolated_panics += 1;
            }
        }
    }
    ids.sort();
    let mut expected: Vec<String> = (1..=N).map(|i| format!("q{i}")).collect();
    expected.sort();
    assert_eq!(ids, expected, "no unanswered or duplicated ids");

    // All three injected panics were isolated and answered degraded.
    assert_eq!(isolated_panics, 3, "stdout: {stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("3 panic(s) isolated"),
        "exit summary should count isolated panics: {stderr}"
    );
}

#[test]
fn max_requests_bounds_a_smoke_session() {
    let mut child = bin()
        .args(["serve", "--max-requests", "3", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(request_stream(10).as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("daemon did not exit");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().filter(|l| !l.trim().is_empty()).count(), 3);
}

#[test]
fn serve_answers_over_a_unix_socket() {
    use std::io::{BufRead, BufReader};
    let socket =
        std::env::temp_dir().join(format!("rl-planner-daemon-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    // One connection, then the accept loop ends on its own: the daemon
    // must answer it, exit 0 and unlink its socket file.
    let mut child = bin()
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--accept-limit",
            "1",
            "--quiet",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");

    let mut stream = None;
    for _ in 0..200 {
        if let Ok(s) = std::os::unix::net::UnixStream::connect(&socket) {
            stream = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let mut stream = stream.expect("daemon socket never came up");
    stream
        .write_all(b"{\"op\":\"health\",\"id\":\"sock1\"}\n")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).unwrap();
    let v = tpp_obs::json::parse(response.trim()).unwrap();
    assert_eq!(v.get("ok"), Some(&tpp_obs::json::Json::Bool(true)));
    assert_eq!(v.get("id").unwrap().as_str(), Some("sock1"));

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            break status;
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon did not exit after its accept limit");
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    assert!(status.success(), "daemon exit status {status}");
    assert!(!socket.exists(), "socket file must be unlinked on exit");
}
