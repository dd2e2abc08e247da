//! Plan scoring (§IV-A "Measures").
//!
//! * Any hard-constraint violation ⇒ score 0 ("If the hard constraints
//!   are not satisfied, those are marked with values 0", §IV-E).
//! * Course plans: Eq. 7 similarity per ideal composition, best template
//!   wins; a perfect length-`H` plan scores `H` (the gold standards of
//!   10 / 15).
//! * Trip plans: the mean POI popularity score, whose ceiling is "the
//!   highest popularity score of any POI" = 5.

use crate::reward::InterleavingKernel;
use tpp_geo::haversine_km;
use tpp_model::{validate_plan, validate_trip_plan, Plan, PlanningInstance, Violation};

/// All hard-constraint violations of `plan` under `instance`.
pub fn plan_violations(instance: &PlanningInstance, plan: &Plan) -> Vec<Violation> {
    match &instance.trip {
        None => validate_plan(plan, &instance.catalog, &instance.hard),
        Some(trip) => {
            let catalog = &instance.catalog;
            validate_trip_plan(plan, catalog, &instance.hard, trip, |a, b| {
                let pa = catalog.item(a).poi.expect("trip items carry attrs");
                let pb = catalog.item(b).poi.expect("trip items carry attrs");
                haversine_km(pa.lat, pa.lon, pb.lat, pb.lon)
            })
        }
    }
}

/// The paper's evaluation score for a plan: 0 when any hard constraint is
/// violated; otherwise the Eq. 7 best-template similarity (courses) or
/// the mean popularity (trips).
pub fn score_plan(instance: &PlanningInstance, plan: &Plan) -> f64 {
    score_with_violations(instance, plan, &plan_violations(instance, plan))
}

/// [`score_plan`] for a plan whose [`plan_violations`] are already
/// known: 0 for an empty or violating plan, [`raw_score`] otherwise.
pub fn score_with_violations(
    instance: &PlanningInstance,
    plan: &Plan,
    violations: &[Violation],
) -> f64 {
    if plan.is_empty() || !violations.is_empty() {
        return 0.0;
    }
    raw_score(instance, plan)
}

/// The score ignoring validity — useful for diagnosing *how far* an
/// invalid plan is from good.
pub fn raw_score(instance: &PlanningInstance, plan: &Plan) -> f64 {
    if instance.is_trip() {
        let total: f64 = plan
            .items()
            .iter()
            .map(|&id| {
                instance
                    .catalog
                    .item(id)
                    .poi
                    .expect("trip items carry attrs")
                    .popularity
            })
            .sum();
        if plan.is_empty() {
            0.0
        } else {
            total / plan.len() as f64
        }
    } else {
        let kinds = plan.kind_sequence(&instance.catalog);
        InterleavingKernel::best(&kinds, &instance.soft.templates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_model::toy;
    use tpp_model::{ItemId, PlanningInstance, TripConstraints};

    fn course_instance() -> PlanningInstance {
        PlanningInstance {
            catalog: toy::table2_catalog(),
            hard: toy::table2_hard(),
            soft: toy::table2_soft(),
            trip: None,
            default_start: Some(ItemId(0)),
        }
    }

    #[test]
    fn paper_exemplar_scores_perfect() {
        // m1 → m2 → m4 → m5 → m6 → m3 fully realizes I2 = PSSSPP and
        // satisfies all hard constraints ⇒ score = H = 6.
        let inst = course_instance();
        let plan = Plan::from_codes(&inst.catalog, &["m1", "m2", "m4", "m5", "m6", "m3"]).unwrap();
        assert!(plan_violations(&inst, &plan).is_empty());
        assert_eq!(score_plan(&inst, &plan), 6.0);
    }

    #[test]
    fn violated_plan_scores_zero_but_raw_score_positive() {
        let inst = course_instance();
        // m5 right after m2: gap violation.
        let plan = Plan::from_codes(&inst.catalog, &["m1", "m2", "m5", "m4", "m6", "m3"]).unwrap();
        assert!(!plan_violations(&inst, &plan).is_empty());
        assert_eq!(score_plan(&inst, &plan), 0.0);
        assert!(raw_score(&inst, &plan) > 0.0);
    }

    #[test]
    fn empty_plan_scores_zero() {
        let inst = course_instance();
        assert_eq!(score_plan(&inst, &Plan::new()), 0.0);
    }

    fn trip_instance() -> PlanningInstance {
        let mut hard = toy::paris_toy_hard();
        hard.credits = 7.0; // the exemplar totals 6.5h
        PlanningInstance {
            catalog: toy::paris_toy_catalog(),
            hard,
            soft: toy::paris_toy_soft(),
            trip: Some(TripConstraints {
                max_distance_km: None,
                no_consecutive_same_theme: true,
            }),
            default_start: Some(ItemId(1)),
        }
    }

    #[test]
    fn trip_score_is_mean_popularity() {
        let inst = trip_instance();
        // Louvre(5.0) → Le Cinq(4.1) → Eiffel(5.0) → Rue des Martyrs(3.6)
        // → Seine(4.5): the §II-B2 exemplar, valid under the relaxed
        // budget. Mean popularity = 22.2 / 5 = 4.44.
        let plan = Plan::from_codes(
            &inst.catalog,
            &[
                "louvre museum",
                "le cinq",
                "eiffel tower",
                "rue des martyrs",
                "river seine",
            ],
        )
        .unwrap();
        assert!(plan_violations(&inst, &plan).is_empty());
        let s = score_plan(&inst, &plan);
        assert!((s - 4.44).abs() < 1e-9, "score {s}");
    }

    #[test]
    fn trip_violation_zeroes_score() {
        let mut inst = trip_instance();
        inst.hard.credits = 5.0; // exemplar needs 6.5h
        let plan = Plan::from_codes(
            &inst.catalog,
            &[
                "louvre museum",
                "le cinq",
                "eiffel tower",
                "rue des martyrs",
                "river seine",
            ],
        )
        .unwrap();
        assert_eq!(score_plan(&inst, &plan), 0.0);
    }

    #[test]
    fn course_score_upper_bounded_by_h() {
        let inst = course_instance();
        let plan = Plan::from_codes(&inst.catalog, &["m1", "m2", "m4", "m5", "m6", "m3"]).unwrap();
        assert!(score_plan(&inst, &plan) <= inst.horizon() as f64);
    }
}
