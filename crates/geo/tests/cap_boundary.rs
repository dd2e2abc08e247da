//! Regression suite for the `DEFAULT_CAP` boundary of the dense
//! distance matrix.
//!
//! Catalogs at or under [`DistanceMatrix::DEFAULT_CAP`] (1024) points
//! get the precomputed `n × n` matrix; anything larger falls back to
//! the one-row-at-a-time [`LazyRowCache`]. The two paths must be
//! *bit-identical* — `tpp-core`'s equivalence suite compares the
//! planner's legs with a per-leg [`haversine_km`] oracle, and the
//! serving cache compares scores, by `f64::to_bits` — and the fallback
//! must rebuild a row at most once per origin, not once per probe.
//! These tests pin all of that at n = 1023 / 1024 / 1025.

use tpp_geo::{haversine_km, DistanceMatrix, GeoPoint, LazyRowCache};

/// `n` deterministic points spread over a Paris-sized box. No RNG: the
/// corpus must be identical on every run and platform.
fn synthetic_points(n: usize) -> Vec<GeoPoint> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            GeoPoint::new(
                48.80 + 0.10 * ((t * 0.37).sin().abs()),
                2.25 + 0.15 * ((t * 0.73).cos().abs()),
            )
        })
        .collect()
}

#[test]
fn cap_admits_1023_and_1024_but_not_1025() {
    assert_eq!(DistanceMatrix::DEFAULT_CAP, 1024);
    for n in [1023, 1024] {
        let pts = synthetic_points(n);
        let m = DistanceMatrix::build_capped(&pts, DistanceMatrix::DEFAULT_CAP)
            .unwrap_or_else(|| panic!("n = {n} must precompute the dense matrix"));
        assert_eq!(m.len(), n);
    }
    let pts = synthetic_points(1025);
    assert!(
        DistanceMatrix::build_capped(&pts, DistanceMatrix::DEFAULT_CAP).is_none(),
        "n = 1025 must fall back to lazy rows"
    );
}

#[test]
fn lazy_fallback_is_bit_identical_to_the_capped_matrix() {
    // At the largest still-capped size, every lazy leg must reproduce
    // the matrix entry bit for bit (both reduce to haversine_km on the
    // same inputs). Sampled origins keep the test fast while still
    // crossing the whole index range.
    let n = 1024;
    let pts = synthetic_points(n);
    let m = DistanceMatrix::build_capped(&pts, DistanceMatrix::DEFAULT_CAP).unwrap();
    let mut cache = LazyRowCache::new();
    for from in [0, 1, 511, 512, 1022, 1023] {
        for to in 0..n {
            assert_eq!(
                cache.leg(&pts, from, to).to_bits(),
                m.get(from, to).to_bits(),
                "leg ({from}, {to})"
            );
        }
    }
}

#[test]
fn over_cap_lazy_rows_match_direct_haversine() {
    // One past the cap there is no matrix to compare against, so pin
    // the fallback to the ground truth directly.
    let n = 1025;
    let pts = synthetic_points(n);
    let mut cache = LazyRowCache::new();
    for from in [0, 512, 1023, 1024] {
        for to in [0, 1, 513, 1024] {
            let expect = haversine_km(pts[from].lat, pts[from].lon, pts[to].lat, pts[to].lon);
            assert_eq!(
                cache.leg(&pts, from, to).to_bits(),
                expect.to_bits(),
                "leg ({from}, {to})"
            );
        }
    }
}

#[test]
fn fallback_rebuilds_at_most_once_per_origin_switch() {
    let n = 1025;
    let pts = synthetic_points(n);
    let mut cache = LazyRowCache::new();
    // A planning step probes many candidates from one origin: however
    // many probes, one rebuild.
    for to in 0..n {
        let _ = cache.leg(&pts, 7, to);
    }
    assert_eq!(cache.rebuilds(), 1, "one origin, many probes, one rebuild");
    // A walk that changes origin each step rebuilds once per step.
    for (step, from) in [9, 23, 101, 1024].into_iter().enumerate() {
        for to in [0, 3, 1024] {
            let _ = cache.leg(&pts, from, to);
        }
        assert_eq!(cache.rebuilds(), 2 + step as u64);
    }
}
