//! Precomputed pairwise great-circle distances.
//!
//! Trip planning evaluates the distance threshold `d` once per candidate
//! POI per step; recomputing the haversine for every probe makes the
//! trig functions the hot path. A trip catalog is small (order 10²
//! POIs) and immutable, so the full `n × n` distance matrix is computed
//! once per catalog and probed with a single indexed load afterwards —
//! the same "precompute the pairwise structure once per catalog" move
//! OMEGA-style recommenders apply to co-consumption counts. The catalog
//! owns it (`tpp_model::Catalog::geometry` builds it on first use) and
//! every planning environment over the catalog borrows it.
//!
//! Catalogs above [`DistanceMatrix::DEFAULT_CAP`] items would make the
//! dense matrix memory-hungry (`n²` f64s); each environment then caches
//! one row at a time ([`LazyRowCache`], see `tpp-core`'s environment).

use crate::point::{haversine_km, GeoPoint};

/// A dense symmetric `n × n` matrix of great-circle distances in km.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major `n * n` distances; `d[i * n + j]`.
    km: Vec<f64>,
}

impl DistanceMatrix {
    /// Largest point count for which [`DistanceMatrix::build_capped`]
    /// precomputes the dense matrix: 1024² f64s ≈ 8 MiB, far above any
    /// paper catalog (NYC 90, Paris 114) yet bounded for user-supplied
    /// ones.
    pub const DEFAULT_CAP: usize = 1024;

    /// Precomputes all pairwise distances. Work and memory are `O(n²)`;
    /// use [`DistanceMatrix::build_capped`] when `n` is unbounded input.
    pub fn build(points: &[GeoPoint]) -> Self {
        let n = points.len();
        let mut km = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = haversine_km(points[i].lat, points[i].lon, points[j].lat, points[j].lon);
                km[i * n + j] = d;
                km[j * n + i] = d;
            }
        }
        DistanceMatrix { n, km }
    }

    /// [`DistanceMatrix::build`] behind a size cap: `None` when `n > cap`
    /// (the caller should fall back to on-demand rows).
    pub fn build_capped(points: &[GeoPoint], cap: usize) -> Option<Self> {
        (points.len() <= cap).then(|| Self::build(points))
    }

    /// Number of points the matrix indexes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the empty matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between points `i` and `j` in km.
    ///
    /// # Panics
    /// If `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of {}",
            self.n
        );
        self.km[i * self.n + j]
    }

    /// The full row of distances from point `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.km[i * self.n..(i + 1) * self.n]
    }
}

/// Fills `row` with the distances from `points[from]` to every point —
/// the shared fallback used when the dense matrix is over cap. Writes
/// exactly `points.len()` entries (resizing `row` as needed).
pub fn distance_row(points: &[GeoPoint], from: usize, row: &mut Vec<f64>) {
    let p = points[from];
    row.clear();
    row.extend(
        points
            .iter()
            .map(|q| haversine_km(p.lat, p.lon, q.lat, q.lon)),
    );
}

/// The over-cap fallback as a self-contained cache: the distances from
/// one origin point, rebuilt (via [`distance_row`]) only when the
/// origin changes. Probing every candidate from the current item costs
/// one rebuild per origin switch — once per planning step, not once per
/// probe — and [`LazyRowCache::rebuilds`] exposes the count so tests
/// can assert exactly that instead of trusting a comment.
#[derive(Debug, Clone)]
pub struct LazyRowCache {
    /// Origin of the cached row; `usize::MAX` = nothing cached yet.
    from: usize,
    km: Vec<f64>,
    rebuilds: u64,
}

impl Default for LazyRowCache {
    fn default() -> Self {
        Self::new()
    }
}

impl LazyRowCache {
    /// An empty cache (first probe rebuilds).
    pub fn new() -> Self {
        LazyRowCache {
            from: usize::MAX,
            km: Vec::new(),
            rebuilds: 0,
        }
    }

    /// Distance in km from `points[from]` to `points[to]`, serving from
    /// the cached row when `from` matches the cached origin. Produces
    /// the same f64 bits as [`DistanceMatrix::get`] over the same
    /// points (both delegate to [`haversine_km`]).
    ///
    /// # Panics
    /// If `from` or `to` is out of range, or `from == usize::MAX`
    /// (reserved as the empty sentinel).
    pub fn leg(&mut self, points: &[GeoPoint], from: usize, to: usize) -> f64 {
        assert!(from < points.len(), "from {from} out of {}", points.len());
        if self.from != from {
            distance_row(points, from, &mut self.km);
            self.from = from;
            self.rebuilds += 1;
        }
        self.km[to]
    }

    /// Number of row rebuilds since construction.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paris_points() -> Vec<GeoPoint> {
        vec![
            GeoPoint::new(48.8584, 2.2945), // Eiffel
            GeoPoint::new(48.8606, 2.3376), // Louvre
            GeoPoint::new(48.8530, 2.3499), // Notre-Dame-ish
        ]
    }

    #[test]
    fn matches_haversine_exactly() {
        let pts = paris_points();
        let m = DistanceMatrix::build(&pts);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let expect = haversine_km(pts[i].lat, pts[i].lon, pts[j].lat, pts[j].lon);
                // Bit-identical: the matrix stores the very same f64 the
                // direct call produces (the incremental-engine golden
                // tests rely on this).
                assert_eq!(m.get(i, j).to_bits(), expect.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn symmetric_with_zero_diagonal() {
        let m = DistanceMatrix::build(&paris_points());
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn cap_gates_precompute() {
        let pts = paris_points();
        assert!(DistanceMatrix::build_capped(&pts, 3).is_some());
        assert!(DistanceMatrix::build_capped(&pts, 2).is_none());
    }

    #[test]
    fn row_view_matches_get() {
        let m = DistanceMatrix::build(&paris_points());
        for i in 0..3 {
            let row = m.row(i);
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, m.get(i, j));
            }
        }
    }

    #[test]
    fn distance_row_fallback_matches_matrix() {
        let pts = paris_points();
        let m = DistanceMatrix::build(&pts);
        let mut row = Vec::new();
        for i in 0..pts.len() {
            distance_row(&pts, i, &mut row);
            assert_eq!(row.as_slice(), m.row(i));
        }
    }

    #[test]
    fn lazy_row_cache_matches_matrix_and_counts_rebuilds() {
        let pts = paris_points();
        let m = DistanceMatrix::build(&pts);
        let mut cache = LazyRowCache::new();
        assert_eq!(cache.rebuilds(), 0);
        // Probing every destination from one origin costs one rebuild.
        for j in 0..pts.len() {
            assert_eq!(cache.leg(&pts, 0, j).to_bits(), m.get(0, j).to_bits());
        }
        assert_eq!(cache.rebuilds(), 1);
        // Switching origins rebuilds; returning to a prior origin does
        // too (single-row cache), but repeats never do.
        let _ = cache.leg(&pts, 1, 0);
        let _ = cache.leg(&pts, 1, 2);
        assert_eq!(cache.rebuilds(), 2);
        let _ = cache.leg(&pts, 0, 2);
        assert_eq!(cache.rebuilds(), 3);
    }

    #[test]
    fn empty_matrix() {
        let m = DistanceMatrix::build(&[]);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
