//! Integration suite for the policy cache and single-flight coalescing.
//!
//! Drives a real `ServeEngine` end to end and asserts the cache's
//! behavioural contract, not its internals: duplicate bursts cost one
//! training run, a cached answer is bit-identical to the cold one, the
//! byte bound evicts, checkpoint rotation invalidates instead of serving
//! stale policies, and a panicking leader never wedges the followers
//! that coalesced onto it.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Barrier};
use tpp_obs::json::{parse, Json};
use tpp_rl::{QTable, TrainCheckpoint};
use tpp_serve::{CacheConfig, ServeConfig, ServeEngine};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tpp-serve-cache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn get<'a>(v: &'a Json, k: &str) -> &'a Json {
    v.get(k)
        .unwrap_or_else(|| panic!("missing field {k:?} in {v:?}"))
}

fn handle(engine: &ServeEngine, line: &str) -> Json {
    let response = engine.handle_line(line);
    parse(&response).unwrap_or_else(|e| panic!("invalid response json {response:?}: {e}"))
}

/// Writes `n` checkpoint generations for the ds-ct dataset to `dir`.
fn seed_checkpoints(dir: &std::path::Path, n: u64) {
    let (instance, _) = tpp_serve::resolve_dataset("ds-ct").unwrap();
    let set = tpp_store::CheckpointSet::new(&tpp_store::RealFs, dir, n.max(1) as usize);
    for episode in 1..=n {
        let ckpt = TrainCheckpoint {
            q: QTable::square(instance.catalog.len()),
            episode,
            sched_pos: episode,
            rng_state: [1, 2, 3, episode],
            visits: tpp_rl::VisitTable::empty(),
            returns: vec![0.0; episode as usize],
        };
        set.save(&ckpt).unwrap();
    }
}

#[test]
fn concurrent_identical_requests_train_exactly_once() {
    let engine = Arc::new(ServeEngine::new(ServeConfig::default()));
    let line = r#"{"op":"plan","dataset":"ds-ct","episodes":300,"seed":7}"#;
    let n = 4;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                engine.handle_line(line)
            })
        })
        .collect();
    let responses: Vec<Json> = handles
        .into_iter()
        .map(|h| parse(&h.join().unwrap()).unwrap())
        .collect();

    let c = &engine.cache.counters;
    assert_eq!(
        c.misses.load(Relaxed),
        1,
        "one leader, therefore one training run"
    );
    assert_eq!(
        c.hits.load(Relaxed) + c.coalesced.load(Relaxed),
        (n - 1) as u64,
        "everyone else hit or coalesced"
    );
    // Shared policy ⇒ bit-identical answers across the burst.
    let plan0 = get(&responses[0], "plan");
    let score0 = get(&responses[0], "score").as_f64().unwrap();
    for r in &responses {
        assert_eq!(get(r, "ok"), &Json::Bool(true), "{r:?}");
        assert_eq!(get(r, "plan"), plan0);
        assert_eq!(
            get(r, "score").as_f64().unwrap().to_bits(),
            score0.to_bits()
        );
    }
}

/// A warm answer served from the cache is bit-identical to the cold
/// answer that trained the policy and filled the cache, on each of the
/// four benchmark datasets.
#[test]
fn cached_answers_are_bit_identical_to_the_cold_answer() {
    for name in ["ds-ct", "univ2", "nyc", "paris"] {
        let engine = ServeEngine::new(ServeConfig::default());
        let line = format!(r#"{{"op":"plan","dataset":"{name}","episodes":50,"seed":7}}"#);
        let cold = handle(&engine, &line);
        assert_eq!(get(&cold, "ok"), &Json::Bool(true), "{name}: {cold:?}");
        assert_eq!(get(&cold, "cached"), &Json::Bool(false), "{name}: {cold:?}");
        let cold_score = get(&cold, "score").as_f64().unwrap();
        for _ in 0..3 {
            let warm = handle(&engine, &line);
            assert_eq!(get(&warm, "cached"), &Json::Bool(true), "{name}: {warm:?}");
            assert_eq!(
                get(&warm, "plan"),
                get(&cold, "plan"),
                "{name}: plans diverge"
            );
            assert_eq!(
                get(&warm, "score").as_f64().unwrap().to_bits(),
                cold_score.to_bits(),
                "{name}: scores diverge"
            );
        }
    }
}

#[test]
fn byte_bound_evicts_the_oldest_policy() {
    // ds-ct (31 items, ~7.7 KiB Q-table) and univ2 (36, ~10.4 KiB) each
    // fit a 12 KiB cache alone, not together.
    let config = ServeConfig {
        cache: CacheConfig {
            enabled: true,
            max_entries: 32,
            max_bytes: 12_000,
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::new(config);
    let ds_ct = r#"{"op":"plan","dataset":"ds-ct","episodes":5}"#;
    let univ2 = r#"{"op":"plan","dataset":"univ2","episodes":5}"#;

    assert_eq!(get(&handle(&engine, ds_ct), "ok"), &Json::Bool(true));
    assert_eq!(get(&handle(&engine, univ2), "ok"), &Json::Bool(true));
    let c = &engine.cache.counters;
    assert_eq!(c.evictions.load(Relaxed), 1, "univ2 pushed ds-ct out");
    let (entries, bytes) = engine.cache.usage();
    assert_eq!(entries, 1);
    assert!(bytes <= 12_000, "usage {bytes} exceeds the byte bound");
    // ds-ct is gone: asking again misses (and re-trains).
    let _ = handle(&engine, ds_ct);
    assert_eq!(c.misses.load(Relaxed), 3);
    assert_eq!(c.hits.load(Relaxed), 0);
}

#[test]
fn new_checkpoint_generation_invalidates_cached_policies() {
    let dir = temp_dir("gen-invalidate");
    seed_checkpoints(&dir, 1);
    let config = ServeConfig {
        checkpoint_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::new(config);
    let line = r#"{"op":"recommend","dataset":"ds-ct"}"#;

    let r1 = handle(&engine, line);
    assert_eq!(get(&r1, "generation").as_f64(), Some(1.0), "{r1:?}");
    let r2 = handle(&engine, line);
    assert_eq!(get(&r2, "cached"), &Json::Bool(true), "{r2:?}");

    // Training publishes newer generations (the seeder appends, so the
    // newest becomes 3); the next request must observe the rotation,
    // drop the generation-1 entry, and serve the new policy.
    seed_checkpoints(&dir, 2);
    let r3 = handle(&engine, line);
    assert_eq!(get(&r3, "generation").as_f64(), Some(3.0), "{r3:?}");
    assert_eq!(get(&r3, "cached"), &Json::Bool(false), "{r3:?}");
    let c = &engine.cache.counters;
    assert!(
        c.invalidations.load(Relaxed) >= 1,
        "rotation must invalidate, got {c:?}"
    );
    // And the fresh policy is itself cacheable.
    let r4 = handle(&engine, line);
    assert_eq!(get(&r4, "cached"), &Json::Bool(true), "{r4:?}");
    assert_eq!(get(&r4, "generation").as_f64(), Some(3.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_falls_back_a_generation_instead_of_stale_hits() {
    let dir = temp_dir("corrupt-not-stale");
    seed_checkpoints(&dir, 2);
    let config = ServeConfig {
        checkpoint_dir: Some(dir.clone()),
        chaos: "corrupt@2".parse().unwrap(),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::new(config);
    let line = r#"{"op":"recommend","dataset":"ds-ct"}"#;

    let r1 = handle(&engine, line);
    assert_eq!(get(&r1, "generation").as_f64(), Some(2.0), "{r1:?}");

    // Request 2: chaos flips bytes in generation 2 on disk first. The
    // cached generation-2 policy is now unbacked — the engine must
    // notice the changed on-disk state (the stamp token covers length
    // and mtime, so in-place rewrites count), invalidate, and load the
    // surviving generation 1 rather than serving the stale hit.
    let r2 = handle(&engine, line);
    assert_eq!(get(&r2, "ok"), &Json::Bool(true), "{r2:?}");
    assert_eq!(get(&r2, "generation").as_f64(), Some(1.0), "{r2:?}");
    assert_eq!(get(&r2, "cached"), &Json::Bool(false), "{r2:?}");
    let c = &engine.cache.counters;
    assert!(c.invalidations.load(Relaxed) >= 1, "{c:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_leader_never_wedges_followers() {
    // Chaos panics on the first request of a 4-way identical burst.
    // Whichever thread draws the fault answers degraded; the others
    // must all come back too — via their own training run, never a
    // hang on the dead leader's flight.
    let config = ServeConfig {
        chaos: "panic@1".parse().unwrap(),
        ..ServeConfig::default()
    };
    let engine = Arc::new(ServeEngine::new(config));
    let line = r#"{"op":"plan","dataset":"ds-ct","episodes":100,"id":"burst"}"#;
    let n = 4;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                engine.handle_line(line)
            })
        })
        .collect();
    for h in handles {
        let r = parse(&h.join().unwrap()).unwrap();
        assert_eq!(get(&r, "ok"), &Json::Bool(true), "{r:?}");
        assert!(matches!(get(&r, "plan"), Json::Arr(p) if !p.is_empty()));
    }
    assert_eq!(engine.counters.panics.load(Relaxed), 1);
    // The engine (and its cache) is still healthy afterwards.
    let r = handle(&engine, line);
    assert_eq!(get(&r, "ok"), &Json::Bool(true));
}

#[test]
fn disabling_the_cache_disables_sharing_but_not_serving() {
    let config = ServeConfig {
        cache: CacheConfig {
            enabled: false,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    };
    let engine = ServeEngine::new(config);
    let line = r#"{"op":"plan","dataset":"ds-ct","episodes":5,"seed":1}"#;
    let r1 = handle(&engine, line);
    let r2 = handle(&engine, line);
    for r in [&r1, &r2] {
        assert_eq!(get(r, "ok"), &Json::Bool(true));
        assert_eq!(get(r, "cached"), &Json::Bool(false));
    }
    // Determinism keeps answers identical even without sharing.
    assert_eq!(get(&r1, "plan"), get(&r2, "plan"));
    let c = &engine.cache.counters;
    assert_eq!(c.hits.load(Relaxed) + c.misses.load(Relaxed), 0);
    // Stats reports the cache as disabled.
    let s = handle(&engine, r#"{"op":"stats"}"#);
    assert_eq!(get(&s, "cache_enabled"), &Json::Bool(false));
}
