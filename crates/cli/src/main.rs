//! `rl-planner` — command-line driver for the RL-Planner reproduction.
//!
//! ```text
//! rl-planner list
//! rl-planner exp <id>|all [--csv DIR] [--md FILE]
//! rl-planner plan --dataset <name> [--start CODE] [--seed N] [--episodes N] [--min-sim]
//! rl-planner compare --dataset <name> [--runs N]
//! rl-planner gold --dataset <name> [--start CODE]
//! rl-planner train --dataset <name> --out policy.qpol [--seed N]
//!   [--checkpoint-dir DIR] [--checkpoint-every N] [--keep K] [--resume]
//! rl-planner recommend --dataset <name> (--policy policy.qpol | --checkpoint-dir DIR) [--start CODE]
//! rl-planner serve [--checkpoint-dir DIR] [--socket PATH] [--tcp HOST:PORT] [...]
//! rl-planner datagen --dataset <name> --out dataset.json
//! rl-planner bench --load [--rate N] [--duration-s S] [--chaos SPEC] [...]
//! ```
//!
//! With `--checkpoint-dir` the trainer persists a crash-safe snapshot
//! every N episodes (generational, keep-last-K, atomic writes) and
//! `--resume` continues from the newest valid one — bit-identical to a
//! run that never stopped. `recommend --checkpoint-dir` serves the
//! newest valid generation, falling back past corrupt ones.
//!
//! `serve` runs the long-lived planning daemon from `tpp-serve`:
//! newline-delimited JSON requests on stdin, a Unix socket or TCP
//! (`--socket` and `--tcp` share one accept loop, with admission
//! control, per-connection timeouts and graceful drain on a `shutdown`
//! request), one guaranteed response per request, graceful
//! degradation on faults. `bench --load` storms a
//! daemon open-loop with mixed hot/cold/malformed/slow-client traffic
//! and verifies nothing closes without a terminal response.
//!
//! Exit codes: `0` success, `1` usage or runtime error, `2` the
//! emitted plan violates a hard constraint (`plan` / `recommend`).
//!
//! Global observability flags, accepted anywhere on the command line:
//! `--trace FILE` (structured JSONL event log), `--metrics FILE|-`
//! (metrics registry as JSON, or text on stdout with `-`), `-v/--verbose`
//! (pretty per-episode events on stderr), `-q/--quiet` (suppress the
//! post-command metrics summary).
//!
//! Datasets: `ds-ct`, `cyber`, `cs`, `univ2`, `nyc`, `paris`.

use std::process::ExitCode;
use std::sync::Arc;
use tpp_core::{plan_violations, score_plan, PlannerParams, RlPlanner};
use tpp_model::PlanningInstance;
use tpp_obs::Level;

/// How a successful command run ends, mapped to the exit-code table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Everything satisfied: exit 0.
    Clean,
    /// The emitted plan violates a hard constraint: exit 2, so scripts
    /// can tell "planner ran but the plan is unusable" from "planner
    /// failed" (exit 1) without scraping stdout.
    HardViolation,
}

/// Exit code for plans that violate a hard constraint.
const EXIT_HARD_VIOLATION: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (obs, args) = match ObsOptions::extract(args) {
        Ok(v) => v,
        Err(msg) => return usage_error(&msg),
    };
    if let Err(msg) = obs.install() {
        return usage_error(&msg);
    }
    let result = run(&args, &obs);
    let finished = obs.finish();
    tpp_obs::flush();
    match (result, finished) {
        (Ok(Outcome::Clean), Ok(())) => ExitCode::SUCCESS,
        (Ok(Outcome::HardViolation), Ok(())) => ExitCode::from(EXIT_HARD_VIOLATION),
        (Err(msg), _) | (_, Err(msg)) => usage_error(&msg),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!();
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// Every dataset name `dataset()` accepts, for usage and error text.
const DATASETS: &str = tpp_serve::DATASET_NAMES;

const USAGE: &str = "usage:
  rl-planner list
  rl-planner exp <id>|all [--csv DIR] [--md FILE]
  rl-planner plan --dataset <name> [--start CODE] [--seed N] [--episodes N] [--min-sim]
  rl-planner compare --dataset <name> [--runs N]
  rl-planner gold --dataset <name> [--start CODE]
  rl-planner train --dataset <name> --out policy.qpol [--seed N] [--episodes N]
                   [--max-seconds S] [--checkpoint-dir DIR] [--checkpoint-every N]
                   [--keep K] [--resume]
  rl-planner recommend --dataset <name> (--policy policy.qpol | --checkpoint-dir DIR)
                       [--start CODE]
  rl-planner serve [--checkpoint-dir DIR] [--socket PATH] [--tcp HOST:PORT]
                   [--deadline-ms N] [--max-episodes N] [--capacity N] [--workers N]
                   [--max-requests N] [--chaos SPEC]
                   [--max-conns N] [--read-timeout-ms N] [--idle-timeout-ms N]
                   [--max-line-bytes N] [--accept-limit N]
                   [--cache-entries N] [--cache-mb N] [--no-cache]
                   [--flight-dir DIR] [--flight-events N] [--slow-ms N]
                   [--no-supervise] [--wedge-ms N] [--max-restarts N]
                   [--breaker-threshold N] [--breaker-cooldown-ms N]
                   [--quarantine-after N] [--quarantine-ttl-ms N]
                   [--batch-max N] [--batch-wait-us N]
  rl-planner obs metrics SNAPSHOT.json [--format prom|text|json]
  rl-planner obs trace TRACE.jsonl [--trace-id HEX]
  rl-planner datagen --dataset <name> --out dataset.json
  rl-planner bench --load [--addr HOST:PORT] [--rate N] [--duration-s S]
                   [--profile hot=80,cold=10,recommend=0,malformed=5,slow=5]
                   [--chaos SPEC] [--flight-dir DIR]
                   [--dataset <name>] [--episodes N] [--deadline-ms N] [--seed N]
                   [--capacity N] [--workers N] [--max-conns N]
                   [--require-restarts] [--require-breaker-recovered]
                   [--batch-max N] [--batch-wait-us N]
                   [--compare-batching] [--require-batching]
                   [--out BENCH_load.json]
exit codes:
  0   success
  1   usage or runtime error
  2   the emitted plan violates a hard constraint (plan / recommend)
checkpointing (train):
  --checkpoint-dir DIR    write crash-safe generational checkpoints to DIR
  --checkpoint-every N    snapshot every N episodes (default 100, 0 = off)
  --keep K                retain the newest K generations (default 3)
  --resume                continue from the newest valid checkpoint in DIR
  --max-seconds S         wall-clock training budget (stops cleanly, saves what it has)
serving (serve):
  --checkpoint-dir DIR    serve `recommend` from the newest valid checkpoint in DIR
  --deadline-ms N         default per-request deadline budget
  --max-episodes N        cap per-request training episodes (default 2000)
  --capacity N            bounded request queue size; excess sheds `overloaded` (default 64)
  --workers N             worker threads (default 2)
  --max-line-bytes N      per-line byte cap; longer lines get bad_request (default 262144)
  --max-requests N        stdio only: exit after N requests (smoke tests)
  --chaos SPEC            inject faults, e.g. 'panic@3,stall@5:200,corrupt@7,flaky@9'
  --cache-entries N       policy cache entry bound (default 32)
  --cache-mb N            policy cache byte bound in MiB (default 64)
  --no-cache              disable the policy cache and single-flight coalescing
  --flight-dir DIR        dump the flight-recorder ring to DIR on panic/shed/
                          deadline-overrun/slow incidents (JSONL post-mortems)
  --flight-events N       flight-recorder ring capacity in events (default 256)
  --slow-ms N             requests slower than N ms also trigger a flight dump
self-healing (serve):
  --no-supervise          disable the worker supervisor (a dead worker stays dead)
  --wedge-ms N            replace workers stuck on one request > N ms (0 = off,
                          default 30000)
  --max-restarts N        total worker respawns the supervisor may spend (default 16)
  --breaker-threshold N   consecutive transient checkpoint-load failures that trip
                          the store circuit breaker open (default 3)
  --breaker-cooldown-ms N breaker open-state cooldown before a half-open probe
                          (default 1000)
  --quarantine-after N    panics on one request key before it is quarantined
                          (default 3)
  --quarantine-ttl-ms N   quarantine cooldown; identical requests get a degraded
                          answer until it expires (default 10000)
batching (serve, bench --load):
  --batch-max N           max same-key jobs answered per dequeue from one policy
                          resolution (default 16; 1 disables batching)
  --batch-wait-us N       linger this long for more same-key jobs when below the
                          cap (default 0: batch only from existing backlog)
observability (obs):
  obs metrics FILE        re-render a --metrics JSON snapshot (prom, text or json)
  obs trace FILE          reconstruct span trees from a --trace JSONL file
  --trace-id HEX          show only the trace with this 16-hex id
serving on a socket (serve --tcp, serve --socket):
  --tcp HOST:PORT         listen on TCP (use 127.0.0.1:0 for an ephemeral port)
  --socket PATH           listen on a Unix socket (the file is unlinked on exit)
  --max-conns N           admitted-connection limit; excess is shed (default 256)
  --read-timeout-ms N     per-read socket timeout / drain poll period (default 100)
  --idle-timeout-ms N     close connections that complete no line in N ms (default 10000)
  --accept-limit N        stop after accepting N connections (smoke tests)
  a `shutdown` request begins a graceful drain: stop accepting, answer
  every in-flight request, then exit
load bench (bench --load):
  --addr HOST:PORT        storm a running daemon (default: host one in-process)
  --rate N                arrivals per second, open loop (default 200)
  --duration-s S          arrival window in seconds (default 3)
  --profile SPEC          traffic mix weights hot/cold/recommend/malformed/slow
  --chaos SPEC            fault plan for the in-process daemon (kill@N and
                          wedge@N:MS exercise the worker supervisor;
                          flaky@N:K bursts trip the store breaker)
  --flight-dir DIR        in-process daemon dumps flight-recorder post-mortems here
  --deadline-ms N         plan-request deadline budget (default 250)
  --require-restarts      fail unless the supervisor respawned >= 1 worker
                          (in-process daemon only)
  --require-breaker-recovered
                          disable the policy cache so recommend traffic hits the
                          store, then fail unless the breaker tripped open and
                          closed again before the drain (in-process daemon only)
  --profile hot-heavy     named preset (hot=92,cold=6,malformed=1,slow=1): a
                          near-pure same-key storm built to form batches
  --compare-batching      run an unbatched (--batch-max 1) baseline storm first
                          and record both p99s in the report's batching object
  --require-batching      fail unless the storm formed >= 1 batch and amortized
                          >= 1 policy resolution (in-process daemon only)
  fails unless zero connections closed without a terminal response and
  the daemon still answers health with accepting:true after the storm
global flags (anywhere on the line):
  --trace FILE    write structured JSONL events to FILE
  --metrics OUT   write the metrics registry to OUT as JSON ('-' = text on stdout)
  -v, --verbose   pretty-print events on stderr (per-episode detail)
  -q, --quiet     suppress the post-command metrics summary
datasets: ds-ct cyber cs univ2 nyc paris city-1k city-10k city-100k";

/// Global observability options, extracted before subcommand dispatch.
struct ObsOptions {
    trace: Option<String>,
    metrics_out: Option<String>,
    verbose: bool,
    quiet: bool,
}

impl ObsOptions {
    /// Splits the obs flags out of `args`, returning the remainder.
    fn extract(args: Vec<String>) -> Result<(ObsOptions, Vec<String>), String> {
        let mut obs = ObsOptions {
            trace: None,
            metrics_out: None,
            verbose: false,
            quiet: false,
        };
        let mut rest = Vec::with_capacity(args.len());
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace" => {
                    obs.trace = Some(it.next().ok_or("--trace needs a file path")?);
                }
                "--metrics" => {
                    obs.metrics_out = Some(it.next().ok_or("--metrics needs a file path or '-'")?);
                }
                "-v" | "--verbose" => obs.verbose = true,
                "-q" | "--quiet" => obs.quiet = true,
                _ => rest.push(a),
            }
        }
        if obs.verbose && obs.quiet {
            return Err("--verbose and --quiet are mutually exclusive".into());
        }
        Ok((obs, rest))
    }

    /// Installs the requested sinks. With neither `--trace` nor `-v`
    /// the observability layer stays disabled (near-zero overhead).
    fn install(&self) -> Result<(), String> {
        if let Some(path) = &self.trace {
            let sink = tpp_obs::JsonlSink::create(path, Level::Trace)
                .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
            tpp_obs::add_sink(Arc::new(sink));
        }
        if self.verbose {
            tpp_obs::add_sink(Arc::new(tpp_obs::PrettySink::stderr(Level::Debug)));
        }
        Ok(())
    }

    /// Writes the `--metrics` output, if requested.
    fn finish(&self) -> Result<(), String> {
        match self.metrics_out.as_deref() {
            None => Ok(()),
            Some("-") => {
                print!("{}", tpp_obs::metrics().render_text());
                Ok(())
            }
            Some(path) => std::fs::write(path, tpp_obs::metrics().render_json())
                .map_err(|e| format!("cannot write metrics file {path:?}: {e}")),
        }
    }

    /// Prints the post-command metrics summary to stderr (skipped with
    /// `--quiet`, and when it would duplicate `--metrics -`).
    fn summary(&self) {
        if self.quiet || self.metrics_out.as_deref() == Some("-") {
            return;
        }
        let text = tpp_obs::metrics().render_text();
        if !text.is_empty() {
            eprintln!("--- metrics ---");
            eprint!("{text}");
        }
    }
}

/// A tiny flag parser: `--key value` pairs plus boolean switches. Each
/// subcommand passes the flags it reads; any other flag is a usage
/// error, so a typo like `--episode 50` fails instead of being ignored.
struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    known: &'static [&'static str],
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], known: &'static [&'static str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(key) = a.strip_prefix("--") {
                if !known.contains(&key) {
                    return Err(format!(
                        "unknown flag --{key} (accepted here: --{})",
                        known.join(", --")
                    ));
                }
                if matches!(
                    key,
                    "min-sim"
                        | "resume"
                        | "no-cache"
                        | "load"
                        | "no-supervise"
                        | "require-restarts"
                        | "require-breaker-recovered"
                        | "require-batching"
                        | "compare-batching"
                ) {
                    switches.push(key);
                    i += 1;
                } else {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{key} needs a value"))?;
                    pairs.push((key, v.as_str()));
                    i += 2;
                }
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(Flags {
            pairs,
            switches,
            known,
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.known.contains(&key),
            "--{key} is read but not declared"
        );
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn has(&self, key: &str) -> bool {
        debug_assert!(
            self.known.contains(&key),
            "--{key} is read but not declared"
        );
        self.switches.contains(&key)
    }
}

// The flags of the subcommands that read many (see `Flags`).
const TRAIN_FLAGS: &[&str] = &[
    "dataset",
    "out",
    "start",
    "seed",
    "episodes",
    "max-seconds",
    "checkpoint-dir",
    "checkpoint-every",
    "keep",
    "resume",
    "fault-ops",
];
const SERVE_FLAGS: &[&str] = &[
    "checkpoint-dir",
    "socket",
    "tcp",
    "deadline-ms",
    "max-episodes",
    "capacity",
    "workers",
    "max-requests",
    "chaos",
    "max-conns",
    "read-timeout-ms",
    "idle-timeout-ms",
    "max-line-bytes",
    "accept-limit",
    "cache-entries",
    "cache-mb",
    "no-cache",
    "flight-dir",
    "flight-events",
    "slow-ms",
    "no-supervise",
    "wedge-ms",
    "max-restarts",
    "breaker-threshold",
    "breaker-cooldown-ms",
    "quarantine-after",
    "quarantine-ttl-ms",
    "batch-max",
    "batch-wait-us",
];
const BENCH_LOAD_FLAGS: &[&str] = &[
    "load",
    "addr",
    "rate",
    "duration-s",
    "profile",
    "chaos",
    "flight-dir",
    "dataset",
    "episodes",
    "deadline-ms",
    "seed",
    "response-timeout-ms",
    "capacity",
    "workers",
    "max-conns",
    "idle-timeout-ms",
    "require-restarts",
    "require-breaker-recovered",
    "batch-max",
    "batch-wait-us",
    "compare-batching",
    "require-batching",
    "out",
];

/// Dataset resolution lives in `tpp-serve` so the daemon and the CLI
/// can never disagree about what a name means.
fn dataset(name: &str) -> Result<(PlanningInstance, PlannerParams), String> {
    tpp_serve::resolve_dataset(name)
}

/// Edit distance for near-miss suggestions on `--start` codes.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The `k` catalog codes closest to `code` by case-insensitive edit
/// distance, for "unknown item code" error messages.
fn nearest_codes(catalog: &tpp_model::Catalog, code: &str, k: usize) -> Vec<String> {
    let needle = code.to_lowercase();
    let mut scored: Vec<(usize, &str)> = catalog
        .items()
        .iter()
        .map(|i| {
            (
                levenshtein(&i.code.to_lowercase(), &needle),
                i.code.as_str(),
            )
        })
        .collect();
    scored.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(b.1)));
    scored
        .into_iter()
        .take(k)
        .map(|(_, c)| c.to_owned())
        .collect()
}

fn resolve_start(
    instance: &PlanningInstance,
    flag: Option<&str>,
) -> Result<tpp_model::ItemId, String> {
    match flag {
        Some(code) => instance.catalog.by_code(code).map(|i| i.id).ok_or_else(|| {
            let near = nearest_codes(&instance.catalog, code, 3);
            if near.is_empty() {
                format!("unknown item code {code:?}")
            } else {
                format!(
                    "unknown item code {code:?}; nearest matches: {}",
                    near.join(", ")
                )
            }
        }),
        None => instance
            .default_start
            .ok_or_else(|| "dataset has no default start; pass --start".to_owned()),
    }
}

fn run(args: &[String], obs: &ObsOptions) -> Result<Outcome, String> {
    let Some(cmd) = args.first() else {
        return Err("no subcommand".into());
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(Outcome::Clean)
        }
        "list" => {
            println!("experiments:");
            for e in tpp_eval::all_experiments() {
                println!("  {}", e.as_str());
            }
            println!("datasets: {DATASETS}");
            Ok(Outcome::Clean)
        }
        "exp" => {
            let id = args.get(1).ok_or("exp needs an experiment id or 'all'")?;
            let flags = Flags::parse(&args[2..], &["csv", "md"])?;
            let csv_dir = flags.get("csv");
            let md_path = flags.get("md");
            let ids: Vec<String> = if id == "all" {
                tpp_eval::all_experiments()
                    .map(|e| e.as_str().to_owned())
                    .collect()
            } else {
                vec![id.clone()]
            };
            let mut reports = Vec::with_capacity(ids.len());
            for id in ids {
                let exp = tpp_eval::ExperimentId::parse(&id)
                    .ok_or_else(|| format!("unknown experiment {id:?}"))?;
                let (report, elapsed) = exp.run_timed();
                println!("{}", report.render_ascii());
                if !obs.quiet {
                    println!(
                        "({} finished in {:.1} s)",
                        exp.as_str(),
                        elapsed.as_secs_f64()
                    );
                }
                if let Some(dir) = csv_dir {
                    report.write_csvs(dir).map_err(|e| e.to_string())?;
                    println!("(csv written to {dir})");
                }
                reports.push(report);
            }
            if let Some(path) = md_path {
                tpp_eval::write_markdown_bundle(path, "RL-Planner experiments", &reports)
                    .map_err(|e| e.to_string())?;
                println!("(markdown bundle written to {path})");
            }
            obs.summary();
            Ok(Outcome::Clean)
        }
        "plan" => {
            let flags = Flags::parse(
                &args[1..],
                &["dataset", "start", "seed", "episodes", "min-sim"],
            )?;
            let (instance, mut params) = dataset(flags.required("dataset")?)?;
            if let Some(n) = flags.get("episodes") {
                params.episodes = n.parse().map_err(|_| "bad --episodes")?;
            }
            if flags.has("min-sim") {
                params.sim = tpp_core::SimAggregate::Minimum;
            }
            let seed: u64 = flags
                .get("seed")
                .unwrap_or("0")
                .parse()
                .map_err(|_| "bad --seed")?;
            let start = resolve_start(&instance, flags.get("start"))?;
            let params = params.with_start(start);
            let (policy, stats) = RlPlanner::learn(&instance, &params, seed);
            let plan = RlPlanner::recommend(&policy, &instance, &params, start);
            println!("plan:  {}", plan.render(&instance.catalog));
            println!("score: {}", score_plan(&instance, &plan));
            let violations = plan_violations(&instance, &plan);
            let outcome = if violations.is_empty() {
                println!("all hard constraints satisfied");
                Outcome::Clean
            } else {
                for v in violations {
                    println!("violation: {v}");
                }
                Outcome::HardViolation
            };
            let s = stats.summary();
            println!(
                "training: {} episodes, return mean {:.3} / p50 {:.3} / p95 {:.3}",
                s.episodes, s.mean, s.p50, s.p95
            );
            obs.summary();
            Ok(outcome)
        }
        "compare" => {
            let flags = Flags::parse(&args[1..], &["dataset", "runs", "start"])?;
            let name = flags.required("dataset")?;
            let (instance, params) = dataset(name)?;
            let runs: u64 = flags
                .get("runs")
                .unwrap_or("5")
                .parse()
                .map_err(|_| "bad --runs")?;
            let start = resolve_start(&instance, flags.get("start"))?;
            let params = params.with_start(start);
            let avg =
                |f: &dyn Fn(u64) -> f64| -> f64 { (0..runs).map(f).sum::<f64>() / runs as f64 };
            let rl = avg(&|seed| {
                let (policy, _) = RlPlanner::learn(&instance, &params, seed);
                score_plan(
                    &instance,
                    &RlPlanner::recommend(&policy, &instance, &params, start),
                )
            });
            let eda = avg(&|seed| {
                score_plan(
                    &instance,
                    &tpp_baselines::eda_plan(&instance, &params, start, seed),
                )
            });
            let omega = score_plan(
                &instance,
                &tpp_baselines::omega_plan(
                    &instance,
                    &tpp_baselines::OmegaConfig::paper_adaptation(instance.horizon()),
                    None,
                ),
            );
            let gold = score_plan(&instance, &tpp_baselines::gold_plan(&instance, Some(start)));
            println!("{name} ({} runs averaged):", runs);
            println!("  RL-Planner  {rl:.2}");
            println!("  EDA         {eda:.2}");
            println!("  OMEGA       {omega:.2}");
            println!("  Gold        {gold:.2}");
            Ok(Outcome::Clean)
        }
        "gold" => {
            let flags = Flags::parse(&args[1..], &["dataset", "start"])?;
            let (instance, _) = dataset(flags.required("dataset")?)?;
            let start = flags
                .get("start")
                .map(|code| resolve_start(&instance, Some(code)))
                .transpose()?;
            let plan = tpp_baselines::gold_plan(&instance, start);
            println!("gold plan: {}", plan.render(&instance.catalog));
            println!("score:     {}", score_plan(&instance, &plan));
            Ok(Outcome::Clean)
        }
        "train" => {
            let flags = Flags::parse(&args[1..], TRAIN_FLAGS)?;
            let (instance, mut params) = dataset(flags.required("dataset")?)?;
            let out = flags.required("out")?;
            if let Some(n) = flags.get("episodes") {
                params.episodes = n.parse().map_err(|_| "bad --episodes")?;
            }
            let seed: u64 = flags
                .get("seed")
                .unwrap_or("0")
                .parse()
                .map_err(|_| "bad --seed")?;
            let start = resolve_start(&instance, flags.get("start"))?;
            let params = params.with_start(start);
            if flags.has("resume") && flags.get("checkpoint-dir").is_none() {
                return Err("--resume requires --checkpoint-dir".into());
            }
            // A wall-clock budget makes long runs interruptible by
            // design: the loop stops cleanly at an episode boundary and
            // saves whatever it has.
            let budget = match flags.get("max-seconds") {
                Some(s) => {
                    let secs: f64 = s.parse().map_err(|_| "bad --max-seconds")?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err("bad --max-seconds".into());
                    }
                    tpp_core::Budget::unlimited()
                        .with_deadline(std::time::Duration::from_secs_f64(secs))
                }
                None => tpp_core::Budget::unlimited(),
            };
            let (policy, stats) = match flags.get("checkpoint-dir") {
                None => {
                    RlPlanner::learn_budgeted(&instance, &params, seed, None, 0, &budget, |_| {
                        Ok(())
                    })?
                }
                Some(dir) => {
                    let every: usize = flags
                        .get("checkpoint-every")
                        .unwrap_or("100")
                        .parse()
                        .map_err(|_| "bad --checkpoint-every")?;
                    let keep: usize = flags
                        .get("keep")
                        .unwrap_or("3")
                        .parse()
                        .map_err(|_| "bad --keep")?;
                    // `--fault-ops N` wraps the checkpoint filesystem in
                    // the fault injector and simulates a hard crash at
                    // mutating operation N — the integration tests'
                    // deterministic "kill" switch.
                    let fault = flags
                        .get("fault-ops")
                        .map(|v| v.parse::<u64>().map_err(|_| "bad --fault-ops"))
                        .transpose()?
                        .map(|n| {
                            tpp_store::FaultFs::new(
                                tpp_store::RealFs,
                                n,
                                tpp_store::FaultKind::Crash,
                            )
                        });
                    let real = tpp_store::RealFs;
                    let fs: &dyn tpp_store::Vfs = match &fault {
                        Some(f) => f,
                        None => &real,
                    };
                    let set = tpp_store::CheckpointSet::new(fs, dir, keep);
                    let resume = if flags.has("resume") {
                        match set.load_latest().map_err(|e| e.to_string())? {
                            Some((generation, ckpt)) => {
                                eprintln!(
                                    "resuming from {} (episode {})",
                                    set.generation_path(generation).display(),
                                    ckpt.episode
                                );
                                Some(ckpt)
                            }
                            None => None, // empty set: start fresh
                        }
                    } else {
                        None
                    };
                    RlPlanner::learn_budgeted(
                        &instance,
                        &params,
                        seed,
                        resume.as_ref(),
                        every,
                        &budget,
                        |ckpt| {
                            set.save(ckpt)
                                .map(|_| ())
                                .map_err(|e| format!("checkpoint failed: {e}"))
                        },
                    )?
                }
            };
            tpp_store::save_qtable(out, &policy.q).map_err(|e| e.to_string())?;
            if budget.expired() {
                eprintln!(
                    "training budget expired after {} episodes (target {})",
                    stats.episodes(),
                    params.episodes
                );
            }
            println!(
                "trained {} episodes on {}; policy saved to {out}",
                stats.episodes(),
                instance.catalog.name()
            );
            obs.summary();
            Ok(Outcome::Clean)
        }
        "recommend" => {
            let flags = Flags::parse(
                &args[1..],
                &["dataset", "policy", "checkpoint-dir", "start"],
            )?;
            let (instance, params) = dataset(flags.required("dataset")?)?;
            let q = match (flags.get("policy"), flags.get("checkpoint-dir")) {
                (Some(path), _) => tpp_store::load_qtable(path).map_err(|e| e.to_string())?,
                (None, Some(dir)) => {
                    // Degrade gracefully: serve the newest generation
                    // that decodes cleanly, skipping corrupt ones.
                    let set = tpp_store::CheckpointSet::new(&tpp_store::RealFs, dir, 1);
                    match set.load_latest().map_err(|e| e.to_string())? {
                        Some((generation, ckpt)) => {
                            eprintln!(
                                "using checkpoint generation {generation} (episode {})",
                                ckpt.episode
                            );
                            ckpt.q
                        }
                        None => return Err(format!("no checkpoints in {dir}")),
                    }
                }
                (None, None) => {
                    return Err("recommend needs --policy FILE or --checkpoint-dir DIR".into())
                }
            };
            if q.n_states() != instance.catalog.len() {
                return Err(format!(
                    "policy has {} states, dataset has {} items",
                    q.n_states(),
                    instance.catalog.len()
                ));
            }
            let start = resolve_start(&instance, flags.get("start"))?;
            let plan = RlPlanner::recommend_with_q(&q, &instance, &params.with_start(start), start);
            println!("plan:  {}", plan.render(&instance.catalog));
            println!("score: {}", score_plan(&instance, &plan));
            let violations = plan_violations(&instance, &plan);
            if violations.is_empty() {
                println!("all hard constraints satisfied");
                Ok(Outcome::Clean)
            } else {
                for v in violations {
                    println!("violation: {v}");
                }
                Ok(Outcome::HardViolation)
            }
        }
        "serve" => {
            let flags = Flags::parse(&args[1..], SERVE_FLAGS)?;
            let parse_u64 = |key: &str| -> Result<Option<u64>, String> {
                flags
                    .get(key)
                    .map(|v| v.parse::<u64>().map_err(|_| format!("bad --{key}")))
                    .transpose()
            };
            let mut config = tpp_serve::ServeConfig {
                checkpoint_dir: flags.get("checkpoint-dir").map(std::path::PathBuf::from),
                default_deadline_ms: parse_u64("deadline-ms")?,
                ..tpp_serve::ServeConfig::default()
            };
            if let Some(n) = parse_u64("max-episodes")? {
                config.max_episodes = n;
            }
            if let Some(spec) = flags.get("chaos") {
                config.chaos = spec.parse().map_err(|e| format!("bad --chaos: {e}"))?;
            }
            if flags.has("no-cache") {
                config.cache.enabled = false;
            }
            if let Some(n) = parse_u64("cache-entries")? {
                config.cache.max_entries = n as usize;
            }
            if let Some(n) = parse_u64("cache-mb")? {
                config.cache.max_bytes = (n as usize) << 20;
            }
            config.flight_dir = flags.get("flight-dir").map(std::path::PathBuf::from);
            if let Some(n) = parse_u64("flight-events")? {
                config.flight_capacity = n as usize;
            }
            config.slow_request_ms = parse_u64("slow-ms")?;
            if let Some(n) = parse_u64("breaker-threshold")? {
                config.breaker.failure_threshold = n as u32;
            }
            if let Some(n) = parse_u64("breaker-cooldown-ms")? {
                config.breaker.cooldown = std::time::Duration::from_millis(n);
            }
            if let Some(n) = parse_u64("quarantine-after")? {
                config.quarantine.strikes = n as u32;
            }
            if let Some(n) = parse_u64("quarantine-ttl-ms")? {
                config.quarantine.cooldown = std::time::Duration::from_millis(n);
            }
            let mut supervisor = tpp_serve::SupervisorConfig::default();
            if flags.has("no-supervise") {
                supervisor.enabled = false;
            }
            if let Some(n) = parse_u64("wedge-ms")? {
                supervisor.wedge_budget = (n > 0).then(|| std::time::Duration::from_millis(n));
            }
            if let Some(n) = parse_u64("max-restarts")? {
                supervisor.max_restarts = n as u32;
            }
            let batch = tpp_serve::BatchConfig {
                max: parse_u64("batch-max")?.unwrap_or(16).max(1) as usize,
                linger: std::time::Duration::from_micros(parse_u64("batch-wait-us")?.unwrap_or(0)),
            };
            let capacity = parse_u64("capacity")?.unwrap_or(64) as usize;
            let workers = parse_u64("workers")?.unwrap_or(2) as usize;
            let max_line_bytes = parse_u64("max-line-bytes")?.unwrap_or(256 * 1024) as usize;
            let engine = Arc::new(tpp_serve::ServeEngine::new(config));
            let socket_config = tpp_serve::TcpConfig {
                max_connections: parse_u64("max-conns")?.unwrap_or(256) as usize,
                max_line_bytes,
                read_timeout: std::time::Duration::from_millis(
                    parse_u64("read-timeout-ms")?.unwrap_or(100),
                ),
                idle_timeout: std::time::Duration::from_millis(
                    parse_u64("idle-timeout-ms")?.unwrap_or(10_000),
                ),
                capacity,
                workers,
                accept_limit: parse_u64("accept-limit")?,
                supervisor: supervisor.clone(),
                batch: batch.clone(),
            };
            let socket_summary = match (flags.get("tcp"), flags.get("socket")) {
                (Some(addr), _) => {
                    let srv = tpp_serve::TcpServer::bind(Arc::clone(&engine), addr, socket_config)
                        .map_err(|e| format!("tcp bind {addr} failed: {e}"))?;
                    eprintln!("listening on tcp {}", srv.local_addr());
                    Some(("tcp", srv.run()))
                }
                (None, Some(path)) => {
                    let summary =
                        tpp_serve::serve_unix(engine, std::path::Path::new(path), &socket_config)
                            .map_err(|e| format!("socket serve failed: {e}"))?;
                    Some(("socket", summary))
                }
                (None, None) => {
                    let server = tpp_serve::ServerConfig {
                        capacity,
                        workers,
                        max_requests: parse_u64("max-requests")?,
                        max_line_bytes,
                        supervisor,
                        batch,
                    };
                    let summary = tpp_serve::serve_lines(
                        Arc::clone(&engine),
                        std::io::stdin().lock(),
                        std::io::stdout(),
                        &server,
                    );
                    let c = &engine.counters;
                    eprintln!(
                        "served {} request(s): {} shed, {} panic(s) isolated, {} degraded",
                        summary.received,
                        summary.overloaded,
                        c.panics.load(std::sync::atomic::Ordering::Relaxed),
                        c.degraded.load(std::sync::atomic::Ordering::Relaxed),
                    );
                    None
                }
            };
            if let Some((transport, summary)) = socket_summary {
                eprintln!(
                    "{transport} serve done: {} accepted, {} admitted, {} shed, {} idle timeout(s), {} undeliverable, drained {}",
                    summary.accepted,
                    summary.admitted,
                    summary.shed,
                    summary.timeouts,
                    summary.undeliverable_responses,
                    summary.drained,
                );
            }
            obs.summary();
            Ok(Outcome::Clean)
        }
        "obs" => {
            // Positional layout (`obs <mode> <file> [flags]`) is parsed
            // by hand before the flag parser sees the remainder.
            let mode = args.get(1).ok_or("obs needs a mode: metrics|trace")?;
            match mode.as_str() {
                "metrics" => {
                    let path = args
                        .get(2)
                        .ok_or("obs metrics needs a snapshot file (written by --metrics FILE)")?;
                    let flags = Flags::parse(&args[3..], &["format"])?;
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path:?}: {e}"))?;
                    let v = tpp_obs::json::parse(text.trim())
                        .map_err(|e| format!("{path}: invalid json: {e}"))?;
                    let m = tpp_obs::Metrics::from_snapshot(&v)
                        .map_err(|e| format!("{path}: not a metrics snapshot: {e}"))?;
                    match flags.get("format").unwrap_or("prom") {
                        "prom" | "prometheus" => print!("{}", m.render_prometheus()),
                        "text" => print!("{}", m.render_text()),
                        "json" => println!("{}", m.render_json()),
                        other => {
                            return Err(format!("unknown --format {other:?} (prom|text|json)"))
                        }
                    }
                    Ok(Outcome::Clean)
                }
                "trace" => {
                    let path = args
                        .get(2)
                        .ok_or("obs trace needs a JSONL file (written by --trace FILE)")?;
                    let flags = Flags::parse(&args[3..], &["trace-id"])?;
                    let filter = flags
                        .get("trace-id")
                        .map(|s| {
                            tpp_obs::trace::parse_hex(s)
                                .ok_or_else(|| format!("bad --trace-id {s:?} (want 16 hex digits)"))
                        })
                        .transpose()?;
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path:?}: {e}"))?;
                    let trees = tpp_obs::trace::reconstruct_jsonl(text.lines());
                    let total = trees.len();
                    let mut shown = 0usize;
                    for tree in &trees {
                        if filter.is_some_and(|id| tree.trace_id != id) {
                            continue;
                        }
                        print!("{}", tree.render_ascii());
                        shown += 1;
                    }
                    if filter.is_some() && shown == 0 {
                        return Err(format!("no trace with that id among {total} trace(s)"));
                    }
                    eprintln!("({shown} of {total} trace(s) shown from {path})");
                    Ok(Outcome::Clean)
                }
                other => Err(format!("unknown obs mode {other:?} (metrics|trace)")),
            }
        }
        "datagen" => {
            let flags = Flags::parse(&args[1..], &["dataset", "out"])?;
            let (instance, _) = dataset(flags.required("dataset")?)?;
            let out = flags.required("out")?;
            tpp_store::save_json(out, &instance).map_err(|e| e.to_string())?;
            println!(
                "{} ({} items, {} topics) written to {out}",
                instance.catalog.name(),
                instance.catalog.len(),
                instance.catalog.vocabulary().len()
            );
            Ok(Outcome::Clean)
        }
        "bench" => {
            if !args[1..].iter().any(|a| a == "--load") {
                return Err("bench needs --load (the open-loop load storm is its one mode)".into());
            }
            bench_load(&Flags::parse(&args[1..], BENCH_LOAD_FLAGS)?, obs)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// `bench --load`: open-loop TCP load/chaos harness. Starts an
/// in-process [`tpp_serve::TcpServer`] (or targets `--addr`), drives a
/// fixed-arrival-rate storm of mixed hot/cold/malformed/slow-client
/// connections, and writes exact p50/p99/p999 latency, shed rate,
/// timeout counts and the closed-without-response invariant (must be
/// zero) to the report (default `BENCH_load.json`).
fn bench_load(flags: &Flags, obs: &ObsOptions) -> Result<Outcome, String> {
    let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
        flags
            .get(key)
            .map(|v| v.parse::<u64>().map_err(|_| format!("bad --{key}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let rate: f64 = flags
        .get("rate")
        .unwrap_or("200")
        .parse()
        .map_err(|_| "bad --rate")?;
    let duration_s: f64 = flags
        .get("duration-s")
        .unwrap_or("3")
        .parse()
        .map_err(|_| "bad --duration-s")?;
    let out = flags.get("out").unwrap_or("BENCH_load.json");
    let profile: tpp_serve::LoadProfile = flags
        .get("profile")
        .unwrap_or("hot=80,cold=10,malformed=5,slow=5")
        .parse()
        .map_err(|e| format!("bad --profile: {e}"))?;
    let require_restarts = flags.has("require-restarts");
    let require_breaker = flags.has("require-breaker-recovered");
    let require_batching = flags.has("require-batching");
    let compare_batching = flags.has("compare-batching");
    if (require_restarts || require_breaker || require_batching || compare_batching)
        && flags.get("addr").is_some()
    {
        return Err(
            "--require-restarts / --require-breaker-recovered / --require-batching / \
             --compare-batching need the in-process daemon (drop --addr)"
                .into(),
        );
    }
    let batch_max = parse_u64("batch-max", 16)?.max(1);
    let batch_wait_us = parse_u64("batch-wait-us", 0)?;
    let batch = tpp_serve::BatchConfig {
        max: batch_max as usize,
        linger: std::time::Duration::from_micros(batch_wait_us),
    };
    if require_breaker && profile.recommend == 0 {
        return Err(
            "--require-breaker-recovered needs recommend traffic: add recommend=N to --profile"
                .into(),
        );
    }
    let load = tpp_serve::LoadConfig {
        rate,
        duration: std::time::Duration::from_secs_f64(duration_s),
        dataset: flags.get("dataset").unwrap_or("ds-ct").to_string(),
        episodes: parse_u64("episodes", 60)?,
        deadline_ms: parse_u64("deadline-ms", 250)?,
        seed: parse_u64("seed", 0)?,
        profile,
        response_timeout: std::time::Duration::from_millis(parse_u64(
            "response-timeout-ms",
            10_000,
        )?),
    };
    tpp_serve::resolve_dataset(&load.dataset)?; // fail fast on a typo

    // Recommend traffic needs a checkpoint to load: train a small
    // policy into a scratch dir every in-process daemon (the baseline
    // and the main one) serves from.
    let checkpoint_dir: Option<std::path::PathBuf> =
        if flags.get("addr").is_none() && profile.recommend > 0 {
            let dir = std::env::temp_dir().join(format!(
                "tpp-load-ckpt-{}-{}",
                std::process::id(),
                load.seed
            ));
            std::fs::create_dir_all(&dir).map_err(|e| format!("checkpoint dir: {e}"))?;
            let dir_s = dir.to_string_lossy().into_owned();
            let (instance, mut params) = dataset(&load.dataset)?;
            params.episodes = 40;
            let set = tpp_store::CheckpointSet::new(&tpp_store::RealFs, &dir_s, 2);
            let budget = tpp_core::Budget::unlimited();
            RlPlanner::learn_budgeted(&instance, &params, load.seed, None, 20, &budget, |c| {
                set.save(c)
                    .map(|_| ())
                    .map_err(|e| format!("seed checkpoint failed: {e}"))
            })?;
            Some(dir)
        } else {
            None
        };
    // Engine/transport configs are rebuilt per storm so the baseline
    // and the main run start from identical cold state.
    let build_config = |with_flight_dir: bool| -> Result<tpp_serve::ServeConfig, String> {
        let mut config = tpp_serve::ServeConfig::default();
        if let Some(spec) = flags.get("chaos") {
            config.chaos = spec.parse().map_err(|e| format!("bad --chaos: {e}"))?;
        }
        if with_flight_dir {
            config.flight_dir = flags.get("flight-dir").map(std::path::PathBuf::from);
        }
        if require_breaker {
            // Cache hits bypass checkpoint loads entirely; proving
            // the breaker needs every recommend to touch the store.
            config.cache.enabled = false;
        }
        config.checkpoint_dir = checkpoint_dir.clone();
        Ok(config)
    };
    let build_tcp = |batch: tpp_serve::BatchConfig| -> Result<tpp_serve::TcpConfig, String> {
        Ok(tpp_serve::TcpConfig {
            max_connections: parse_u64("max-conns", 512)? as usize,
            capacity: parse_u64("capacity", 128)? as usize,
            workers: parse_u64("workers", 4)? as usize,
            read_timeout: std::time::Duration::from_millis(50),
            idle_timeout: std::time::Duration::from_millis(parse_u64("idle-timeout-ms", 500)?),
            batch,
            ..tpp_serve::TcpConfig::default()
        })
    };

    // `--compare-batching`: storm a fresh unbatched daemon first under
    // the identical load, so the report carries both p99s. The baseline
    // keeps its flight dumps to itself (no flight dir) so the main
    // storm's post-mortems stay attributable.
    let unbatched_p99_ms = if compare_batching {
        let engine = Arc::new(tpp_serve::ServeEngine::new(build_config(false)?));
        let tcp = build_tcp(tpp_serve::BatchConfig {
            max: 1,
            linger: std::time::Duration::ZERO,
        })?;
        let server = tpp_serve::TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0", tcp)
            .map_err(|e| format!("baseline tcp bind failed: {e}"))?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        println!("baseline storm (unbatched, batch-max 1) at {addr} for --compare-batching");
        let base = tpp_serve::run_load(addr, &load);
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("baseline drain connect: {e}"))?;
        stream
            .write_all(b"{\"op\":\"shutdown\",\"id\":\"drain\"}\n")
            .map_err(|e| format!("baseline drain write: {e}"))?;
        handle
            .join()
            .map_err(|_| "baseline server thread panicked".to_string())?;
        println!(
            "baseline (unbatched) p99 {:.1} ms  ok-only p99 {:.1} ms",
            base.latency.p99_ms, base.latency_ok.p99_ms
        );
        Some(base.latency_ok.p99_ms)
    } else {
        None
    };

    // Either storm an already-running daemon (--addr) or host one
    // in-process and drain it afterwards. The in-process engine handle
    // stays out here so the self-healing verdicts (restarts, breaker
    // state, quarantine) can be read after the storm.
    let mut engine_handle: Option<Arc<tpp_serve::ServeEngine>> = None;
    let (addr, server_thread) = match flags.get("addr") {
        Some(addr) => (
            addr.parse()
                .map_err(|_| format!("bad --addr {addr:?} (want HOST:PORT)"))?,
            None,
        ),
        None => {
            let engine = Arc::new(tpp_serve::ServeEngine::new(build_config(true)?));
            engine_handle = Some(Arc::clone(&engine));
            let tcp = build_tcp(batch.clone())?;
            let server = tpp_serve::TcpServer::bind(engine, "127.0.0.1:0", tcp)
                .map_err(|e| format!("tcp bind failed: {e}"))?;
            let addr = server.local_addr();
            (addr, Some(std::thread::spawn(move || server.run())))
        }
    };
    println!(
        "storming {addr}: {rate:.0} conn/s for {duration_s:.1}s (profile {})",
        flags
            .get("profile")
            .unwrap_or("hot=80,cold=10,malformed=5,slow=5")
    );
    let r = tpp_serve::run_load(addr, &load);

    // Post-storm recovery: with the flaky burst over, drive recommend
    // probes until the breaker's half-open probe succeeds and it closes
    // again — recovery must be observable *before* the drain, on the
    // same daemon the storm hit.
    if require_breaker {
        let engine = engine_handle.as_ref().expect("in-process daemon");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.breaker.state_name() != "closed" && std::time::Instant::now() < deadline {
            let probe = format!(
                r#"{{"op":"recommend","dataset":"{}","id":"breaker-probe"}}"#,
                load.dataset
            );
            if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
                use std::io::{BufRead as _, Write as _};
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
                if writeln!(stream, "{probe}")
                    .and_then(|()| stream.flush())
                    .is_ok()
                {
                    let mut line = String::new();
                    let _ = std::io::BufReader::new(stream).read_line(&mut line);
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }

    // The in-process daemon is drained with the same `shutdown` op an
    // operator would use, proving the drain path after the storm.
    let server_summary = server_thread.map(|handle| {
        let mut stream = std::net::TcpStream::connect(addr).expect("drain connect");
        use std::io::Write as _;
        stream
            .write_all(b"{\"op\":\"shutdown\",\"id\":\"drain\"}\n")
            .expect("drain write");
        let summary = handle.join().expect("server thread");
        LoadServerSummary {
            accepted: summary.accepted,
            admitted: summary.admitted,
            shed_connections: summary.shed,
            idle_timeouts: summary.timeouts,
            undeliverable_responses: summary.undeliverable_responses,
            drained: summary.drained,
        }
    });

    // Self-healing verdicts, read off the drained in-process engine.
    let self_healing = engine_handle.as_ref().map(|engine| {
        use std::sync::atomic::Ordering;
        let t = &engine.transport;
        SelfHealingSummary {
            worker_restarts: t.worker_restarts.load(Ordering::Relaxed),
            worker_deaths: t.worker_deaths.load(Ordering::Relaxed),
            worker_wedged: t.worker_wedged.load(Ordering::Relaxed),
            worker_rescued: t.worker_rescued.load(Ordering::Relaxed),
            breaker_opens: engine.breaker.opens(),
            breaker_closes: engine.breaker.closes(),
            breaker_state: engine.breaker.state_name().to_string(),
            quarantine_size: engine.quarantine.len(),
        }
    });

    // Turn-level batching outcome, read off the drained engine; the
    // batched p99 is this storm's ok-only p99 so the comparison against
    // the baseline is like-for-like.
    let batching = engine_handle.as_ref().map(|engine| {
        use std::sync::atomic::Ordering;
        let t = &engine.transport;
        BatchingSummary {
            batch_max,
            batch_wait_us,
            batches_formed: t.batches_formed.load(Ordering::Relaxed),
            batch_members: t.batch_members.load(Ordering::Relaxed),
            amortized_loads: t.amortized_loads.load(Ordering::Relaxed),
            batched_p99_ms: r.latency_ok.p99_ms,
            unbatched_p99_ms,
        }
    });

    let lat = |p: tpp_serve::Percentiles| LoadLatency {
        p50_ms: p.p50_ms,
        p99_ms: p.p99_ms,
        p999_ms: p.p999_ms,
        max_ms: p.max_ms,
    };
    let report = LoadBenchReport {
        rate,
        duration_s: r.duration_s,
        achieved_rate: r.achieved_rate,
        dataset: load.dataset.clone(),
        episodes: load.episodes,
        deadline_ms: load.deadline_ms,
        seed: load.seed,
        profile: flags
            .get("profile")
            .unwrap_or("hot=80,cold=10,malformed=5,slow=5")
            .to_string(),
        chaos: flags.get("chaos").unwrap_or("").to_string(),
        arrivals: r.arrivals,
        sent: r.sent,
        answered: r.answered,
        ok: r.ok,
        overloaded: r.overloaded,
        bad_request: r.bad_request,
        other_errors: r.other_errors,
        client_timeouts: r.client_timeouts,
        closed_without_response: r.closed_without_response,
        connect_failures: r.connect_failures,
        slow_conns: r.slow_conns,
        slow_closed_by_server: r.slow_closed_by_server,
        shed_rate: r.shed_rate,
        latency_ms: lat(r.latency),
        latency_ok_ms: lat(r.latency_ok),
        post_health_accepting: r.post_health_accepting,
        server: server_summary,
        self_healing,
        batching,
    };
    println!(
        "answered {}/{} (ok {}, overloaded {}, bad_request {})  shed_rate {:.3}",
        report.answered,
        report.sent,
        report.ok,
        report.overloaded,
        report.bad_request,
        report.shed_rate
    );
    println!(
        "latency p50 {:.1} ms  p99 {:.1} ms  p999 {:.1} ms  max {:.1} ms",
        report.latency_ms.p50_ms,
        report.latency_ms.p99_ms,
        report.latency_ms.p999_ms,
        report.latency_ms.max_ms
    );
    println!(
        "slow conns {} ({} closed by server)  client timeouts {}  closed_without_response {}  post-storm accepting {}",
        report.slow_conns,
        report.slow_closed_by_server,
        report.client_timeouts,
        report.closed_without_response,
        report.post_health_accepting
    );
    if let Some(b) = &report.batching {
        match b.unbatched_p99_ms {
            Some(base) => println!(
                "batching: {} batch(es), {} member(s), {} amortized load(s)  p99 {:.1} ms batched vs {:.1} ms unbatched",
                b.batches_formed, b.batch_members, b.amortized_loads, b.batched_p99_ms, base
            ),
            None => println!(
                "batching: {} batch(es), {} member(s), {} amortized load(s)",
                b.batches_formed, b.batch_members, b.amortized_loads
            ),
        }
    }
    if let Some(sh) = &report.self_healing {
        println!(
            "self-healing: {} restart(s) ({} death(s), {} wedged, {} rescued)  breaker {} ({} open(s), {} close(s))  quarantine {}",
            sh.worker_restarts,
            sh.worker_deaths,
            sh.worker_wedged,
            sh.worker_rescued,
            sh.breaker_state,
            sh.breaker_opens,
            sh.breaker_closes,
            sh.quarantine_size
        );
    }
    tpp_store::save_json(out, &report).map_err(|e| e.to_string())?;
    println!("(load report written to {out})");
    obs.summary();
    if report.closed_without_response > 0 {
        return Err(format!(
            "{} connection(s) closed without a terminal response",
            report.closed_without_response
        ));
    }
    if !report.post_health_accepting {
        return Err("daemon not accepting after the storm".into());
    }
    if require_restarts {
        let restarts = report
            .self_healing
            .as_ref()
            .map_or(0, |sh| sh.worker_restarts);
        if restarts == 0 {
            return Err("--require-restarts: the supervisor respawned no workers".into());
        }
    }
    if require_breaker {
        let sh = report
            .self_healing
            .as_ref()
            .expect("in-process daemon has self-healing stats");
        if sh.breaker_opens == 0 {
            return Err("--require-breaker-recovered: the breaker never tripped open".into());
        }
        if sh.breaker_state != "closed" {
            return Err(format!(
                "--require-breaker-recovered: breaker still {} after recovery probes",
                sh.breaker_state
            ));
        }
    }
    if require_batching {
        let b = report
            .batching
            .as_ref()
            .expect("in-process daemon has batching stats");
        if b.batches_formed == 0 {
            return Err("--require-batching: the storm formed no batches".into());
        }
        if b.amortized_loads == 0 {
            return Err("--require-batching: no policy resolutions were amortized".into());
        }
    }
    Ok(Outcome::Clean)
}

/// Exact client-observed latency percentiles in the `bench --load`
/// report.
#[derive(serde::Serialize)]
struct LoadLatency {
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    max_ms: f64,
}

/// Self-healing outcome of an in-process `bench --load` storm: what the
/// worker supervisor and store breaker actually did under the faults.
#[derive(serde::Serialize)]
struct SelfHealingSummary {
    worker_restarts: u64,
    worker_deaths: u64,
    worker_wedged: u64,
    worker_rescued: u64,
    breaker_opens: u64,
    breaker_closes: u64,
    /// Final breaker state after the post-storm recovery probes
    /// (`closed` proves trip *and* recovery).
    breaker_state: String,
    quarantine_size: usize,
}

/// Turn-level batching outcome of an in-process `bench --load` storm:
/// how many same-key batches the workers formed, how many policy
/// resolutions that amortized away, and the p99 comparison against an
/// unbatched baseline when `--compare-batching` ran one.
#[derive(serde::Serialize)]
struct BatchingSummary {
    batch_max: u64,
    batch_wait_us: u64,
    batches_formed: u64,
    batch_members: u64,
    amortized_loads: u64,
    /// This storm's ok-only p99 (same metric as `unbatched_p99_ms`).
    batched_p99_ms: f64,
    /// Ok-only p99 of the `--compare-batching` baseline storm
    /// (`--batch-max 1`), absent when no baseline ran.
    unbatched_p99_ms: Option<f64>,
}

/// The daemon's own exit summary when `bench --load` hosted it
/// in-process and drained it after the storm.
#[derive(serde::Serialize)]
struct LoadServerSummary {
    accepted: u64,
    admitted: u64,
    shed_connections: u64,
    idle_timeouts: u64,
    /// Responses the daemon could not write because the peer was
    /// already gone — hostile storm clients can make this nonzero
    /// without violating the client-observed invariant above.
    undeliverable_responses: u64,
    drained: bool,
}

/// The `bench --load` report (default `BENCH_load.json`): an open-loop
/// TCP storm's client-side outcome census plus the serving invariants.
#[derive(serde::Serialize)]
struct LoadBenchReport {
    rate: f64,
    duration_s: f64,
    achieved_rate: f64,
    dataset: String,
    episodes: u64,
    deadline_ms: u64,
    seed: u64,
    profile: String,
    chaos: String,
    arrivals: u64,
    sent: u64,
    answered: u64,
    ok: u64,
    overloaded: u64,
    bad_request: u64,
    other_errors: u64,
    client_timeouts: u64,
    /// Complete requests whose connection died with no terminal
    /// response — the invariant that must be zero.
    closed_without_response: u64,
    connect_failures: u64,
    slow_conns: u64,
    slow_closed_by_server: u64,
    shed_rate: f64,
    latency_ms: LoadLatency,
    latency_ok_ms: LoadLatency,
    /// The daemon still answered `health` with `accepting: true` after
    /// the storm.
    post_health_accepting: bool,
    server: Option<LoadServerSummary>,
    /// Present when the daemon ran in-process (absent with `--addr`).
    self_healing: Option<SelfHealingSummary>,
    /// Present when the daemon ran in-process (absent with `--addr`).
    batching: Option<BatchingSummary>,
}
