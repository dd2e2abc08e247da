//! The trip geometry a catalog derives from its POIs.
//!
//! A trip catalog's POIs never move, so their pairwise distances are a
//! property of the catalog, not of any one planning run. The catalog
//! builds its [`CatalogGeometry`] once, on first use, and every
//! environment over the catalog borrows it: the POI points, the dense
//! [`DistanceMatrix`] (at most [`DistanceMatrix::DEFAULT_CAP`] POIs) and,
//! on first demand, the grid index the city-scale shortlist queries.
//! The geometry lives as long as the catalog; clones of the catalog
//! share it.

use crate::item::Item;
use std::fmt;
use std::sync::{Arc, OnceLock};
use tpp_geo::{DistanceMatrix, GeoPoint, GridIndex};

/// A trip catalog's geometry, indexed by item id.
#[derive(Debug)]
pub struct CatalogGeometry {
    points: Vec<GeoPoint>,
    matrix: Option<DistanceMatrix>,
    grid: OnceLock<Option<GridIndex<usize>>>,
}

impl CatalogGeometry {
    /// `None` for an empty catalog or one with a POI-less item (every
    /// course catalog).
    fn build(items: &[Item]) -> Option<Self> {
        if items.is_empty() {
            return None;
        }
        let points: Vec<GeoPoint> = items
            .iter()
            .map(|i| i.poi.map(|p| GeoPoint::new(p.lat, p.lon)))
            .collect::<Option<_>>()?;
        let matrix = DistanceMatrix::build_capped(&points, DistanceMatrix::DEFAULT_CAP);
        Some(CatalogGeometry {
            points,
            matrix,
            grid: OnceLock::new(),
        })
    }

    /// Each item's POI coordinates.
    pub fn points(&self) -> &[GeoPoint] {
        &self.points
    }

    /// The pairwise distance matrix; `None` above
    /// [`DistanceMatrix::DEFAULT_CAP`] items.
    pub fn matrix(&self) -> Option<&DistanceMatrix> {
        self.matrix.as_ref()
    }

    /// A grid index over [`CatalogGeometry::points`] whose payloads are
    /// item indices, built on the first call.
    pub fn grid(&self) -> Option<&GridIndex<usize>> {
        self.grid
            .get_or_init(|| GridIndex::from_points(self.points.iter().copied().zip(0..)))
            .as_ref()
    }
}

/// The catalog's lazily built geometry. Clones share one cell, so the
/// geometry is built at most once however the catalog is copied.
#[derive(Clone, Default)]
pub(crate) struct GeometryCell(Arc<OnceLock<Option<CatalogGeometry>>>);

impl GeometryCell {
    /// The geometry of `items`, built on the first call.
    pub(crate) fn get_or_build(&self, items: &[Item]) -> Option<&CatalogGeometry> {
        self.0
            .get_or_init(|| CatalogGeometry::build(items))
            .as_ref()
    }
}

/// Derived data: the catalog's `Debug` output does not depend on
/// whether it has been built yet.
impl fmt::Debug for GeometryCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GeometryCell(..)")
    }
}

#[cfg(test)]
mod tests {
    use crate::{toy, Catalog, CatalogBuilder, ItemKind, PlanningInstance, TripConstraints};
    use std::sync::{Arc, Barrier};
    use tpp_geo::{DistanceMatrix, GeoPoint};

    fn paris() -> PlanningInstance {
        PlanningInstance {
            catalog: toy::paris_toy_catalog(),
            hard: toy::paris_toy_hard(),
            soft: toy::paris_toy_soft(),
            trip: Some(TripConstraints::default()),
            default_start: None,
        }
    }

    fn poi_points(catalog: &Catalog) -> Vec<GeoPoint> {
        catalog
            .items()
            .iter()
            .map(|i| {
                let p = i.poi.expect("trip item");
                GeoPoint::new(p.lat, p.lon)
            })
            .collect()
    }

    /// `n` POIs on a deterministic Paris-sized spiral.
    fn spiral_catalog(n: usize) -> Catalog {
        let mut b = CatalogBuilder::new("spiral").topics(["t"]);
        for i in 0..n {
            let t = i as f64;
            b = b.poi(
                format!("p{i}"),
                format!("POI {i}"),
                ItemKind::Primary,
                1.0,
                &["t"],
                48.80 + 0.10 * (t * 0.37).sin().abs(),
                2.25 + 0.15 * (t * 0.73).cos().abs(),
                3.0,
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn matrix_is_bit_identical_to_a_fresh_build() {
        let catalog = toy::paris_toy_catalog();
        let geo = catalog.geometry().expect("trip catalog");
        let points = poi_points(&catalog);
        assert_eq!(geo.points(), points.as_slice());
        let fresh = DistanceMatrix::build(&points);
        let m = geo.matrix().expect("under the cap");
        assert_eq!(m.len(), fresh.len());
        for i in 0..m.len() {
            for j in 0..m.len() {
                assert_eq!(
                    m.get(i, j).to_bits(),
                    fresh.get(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn geometry_is_built_once_and_shared_by_clones() {
        let catalog = toy::paris_toy_catalog();
        let a = catalog.geometry().unwrap();
        assert!(std::ptr::eq(a, catalog.geometry().unwrap()));
        let copy = catalog.clone();
        assert!(std::ptr::eq(a, copy.geometry().unwrap()));
        assert!(std::ptr::eq(
            a.grid().unwrap(),
            copy.geometry().unwrap().grid().unwrap()
        ));
    }

    #[test]
    fn racing_first_use_sees_one_matrix() {
        let inst = Arc::new(paris());
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (inst, barrier) = (Arc::clone(&inst), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    let m = inst.catalog.geometry().unwrap().matrix().unwrap();
                    m as *const DistanceMatrix as usize
                })
            })
            .collect();
        let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(ptrs[0], ptrs[1]);
        let here = inst.catalog.geometry().unwrap().matrix().unwrap();
        assert_eq!(ptrs[0], here as *const DistanceMatrix as usize);
    }

    #[test]
    fn json_round_trip_rebuilds_the_geometry_on_first_use() {
        let catalog = toy::paris_toy_catalog();
        let before = catalog.geometry().unwrap();
        let json = serde_json::to_string(&catalog).unwrap();
        let back: Catalog = serde_json::from_str(&json).unwrap();
        let after = back.geometry().expect("rebuilt after deserialization");
        assert!(!std::ptr::eq(before, after));
        assert_eq!(after.points(), before.points());
        assert_eq!(after.matrix(), before.matrix());
    }

    #[test]
    fn course_and_poiless_catalogs_have_no_geometry() {
        assert!(toy::table2_catalog().geometry().is_none());
        let mixed = CatalogBuilder::new("mixed")
            .topics(["t"])
            .poi("a", "A", ItemKind::Primary, 1.0, &["t"], 48.85, 2.35, 4.0)
            .course("b", "B", ItemKind::Secondary, 1.0, &["t"])
            .build()
            .unwrap();
        assert!(mixed.geometry().is_none());
    }

    #[test]
    fn over_cap_catalog_gets_points_but_no_matrix() {
        let n = DistanceMatrix::DEFAULT_CAP + 1;
        let catalog = spiral_catalog(n);
        let geo = catalog.geometry().unwrap();
        assert_eq!(geo.points().len(), n);
        assert!(geo.matrix().is_none());
        assert_eq!(geo.grid().unwrap().len(), n);
        let at_cap = spiral_catalog(DistanceMatrix::DEFAULT_CAP);
        assert!(at_cap.geometry().unwrap().matrix().is_some());
    }
}
