//! Edge-case and robustness tests: short streams, degenerate parameters,
//! zero deltas, extreme radii, and front-door (builder/driver) behavior.

use dsv::prelude::*;

fn det(k: usize, eps: f64) -> Box<dyn Tracker> {
    TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(eps)
        .deletions(true)
        .build()
        .unwrap()
}

#[test]
fn empty_and_tiny_streams() {
    let empty: &[Update] = &[];
    let report = Driver::new(0.1)
        .unwrap()
        .run(&mut det(4, 0.1), empty)
        .unwrap();
    assert_eq!(report.n, 0);
    assert_eq!(report.violations, 0);
    assert_eq!(report.stats.total_messages(), 0);

    // One update.
    let report = Driver::new(0.1)
        .unwrap()
        .run(&mut det(4, 0.1), &[Update::new(1, 2, 1)])
        .unwrap();
    assert_eq!(report.final_estimate, 1);
    assert_eq!(report.violations, 0);
}

#[test]
fn stream_shorter_than_k() {
    // Fewer updates than sites: the first block never completes; tracking
    // must still be exact (r = 0 forwards everything).
    let k = 16;
    let updates: Vec<Update> = (1..=5)
        .map(|t| Update::new(t, (t as usize) % k, -1))
        .collect();
    let report = Driver::new(0.2)
        .unwrap()
        .run(&mut det(k, 0.2), &updates)
        .unwrap();
    assert_eq!(report.max_rel_err, 0.0);
    assert_eq!(report.final_estimate, -5);
}

#[test]
fn all_zero_deltas_are_harmless() {
    let updates: Vec<Update> = (1..=200).map(|t| Update::new(t, 0, 0)).collect();
    let report = Driver::new(0.1)
        .unwrap()
        .run(&mut det(2, 0.1), &updates)
        .unwrap();
    assert_eq!(report.final_estimate, 0);
    assert_eq!(report.violations, 0);

    let mut rnd = TrackerSpec::new(TrackerKind::Randomized)
        .k(2)
        .eps(0.1)
        .seed(3)
        .build()
        .unwrap();
    let report = Driver::new(0.1).unwrap().run(&mut rnd, &updates).unwrap();
    assert_eq!(report.final_estimate, 0);
    assert_eq!(report.violations, 0);
}

#[test]
fn negative_territory_tracking() {
    // f goes deeply negative; |f| drives the radii symmetrically.
    let deltas = vec![-1i64; 30_000];
    let updates = assign_updates(&deltas, RoundRobin::new(4));
    let report = Driver::new(0.1)
        .unwrap()
        .run(&mut det(4, 0.1), &updates)
        .unwrap();
    assert_eq!(report.violations, 0);
    assert_eq!(report.final_f, -30_000);
    // Cost must be logarithmic, mirroring the positive monotone case.
    assert!(report.stats.total_messages() < 3_000);
}

#[test]
fn sign_flip_mid_stream() {
    // Climb to +2000, crash to −2000; guarantee must hold throughout the
    // zero crossing.
    let mut deltas = vec![1i64; 2_000];
    deltas.extend(std::iter::repeat_n(-1i64, 4_000));
    let updates = assign_updates(&deltas, RoundRobin::new(2));
    let report = Driver::new(0.1)
        .unwrap()
        .run(&mut det(2, 0.1), &updates)
        .unwrap();
    assert_eq!(report.violations, 0, "max err {}", report.max_rel_err);
    assert_eq!(report.final_f, -2_000);
}

#[test]
fn extreme_epsilon_values() {
    let updates = WalkGen::fair(9).updates(5_000, RoundRobin::new(2));
    for eps in [0.9, 0.001] {
        let report = Driver::new(eps)
            .unwrap()
            .run(&mut det(2, eps), &updates)
            .unwrap();
        assert_eq!(report.violations, 0, "eps = {eps}");
    }
}

#[test]
#[should_panic]
fn eps_must_be_in_unit_interval() {
    DeterministicTracker::sim(2, 1.5);
}

#[test]
fn misconfiguration_is_typed_not_panicking() {
    // SingleSite with k != 1: a BuildError, not a panic.
    let err = TrackerSpec::new(TrackerKind::SingleSite)
        .k(4)
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::SingleSiteRequiresK1 { k: 4 });

    // eps out of range through the builder: a BuildError, not a panic.
    let err = TrackerSpec::new(TrackerKind::Deterministic)
        .eps(1.5)
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidEps { .. }));

    // Deletions into a monotone kind through the driver: a RunError.
    let mut cmy = TrackerSpec::new(TrackerKind::CmyMonotone)
        .k(2)
        .eps(0.1)
        .build()
        .unwrap();
    let err = Driver::new(0.1)
        .unwrap()
        .run(&mut cmy, &[Update::new(1, 0, 1), Update::new(2, 1, -1)])
        .unwrap_err();
    assert_eq!(
        err,
        RunError::DeletionUnsupported {
            kind: TrackerKind::CmyMonotone,
            time: 2
        }
    );

    // Out-of-range site through the driver: a RunError.
    let err = Driver::new(0.1)
        .unwrap()
        .run(&mut det(2, 0.1), &[Update::new(1, 9, 1)])
        .unwrap_err();
    assert_eq!(
        err,
        RunError::SiteOutOfRange {
            site: 9,
            k: 2,
            time: 1
        }
    );

    // Driver config errors are typed too.
    assert!(matches!(
        Driver::<i64>::new(0.0).unwrap_err(),
        ConfigError::EpsOutOfRange { .. }
    ));
    assert!(matches!(
        Driver::<i64>::new(0.1)
            .unwrap()
            .with_floor(-1.0)
            .unwrap_err(),
        ConfigError::FloorNotPositive { .. }
    ));
}

#[test]
fn very_large_values_do_not_overflow_radius_math() {
    use dsv::core::blocks::{radius_for, threshold_for};
    let r = radius_for(u64::MAX / 2, 1);
    assert!(r > 50);
    assert!(threshold_for(r) > 0);
    // Thresholds stay consistent: 2^r·2k ≤ f < 2^r·4k.
    let f = u64::MAX / 2;
    assert!((1u128 << r) * 2 <= f as u128);
    assert!((1u128 << r) * 4 > f as u128);
}

#[test]
fn spec_front_door_runs_every_counter_kind_end_to_end() {
    let deltas = MonotoneGen::ones().deltas(2_000);
    for kind in TrackerKind::COUNTERS {
        let k = if kind == TrackerKind::SingleSite {
            1
        } else {
            3
        };
        let mut tracker = TrackerSpec::new(kind)
            .k(k)
            .eps(0.25)
            .seed(11)
            .build()
            .unwrap();
        for (i, &d) in deltas.iter().enumerate() {
            tracker.step(i % k, d);
        }
        let est = tracker.estimate();
        assert!(
            (2_000 - est).unsigned_abs() as f64 <= 0.25 * 2_000.0,
            "{}: estimate {est}",
            kind.label()
        );
    }
}

#[test]
fn single_site_huge_jumps() {
    // A single update of ±10^12 must be tracked immediately.
    let updates = vec![
        Update::new(1, 0, 1_000_000_000_000),
        Update::new(2, 0, -999_999_999_999),
        Update::new(3, 0, -1),
    ];
    let mut tracker = TrackerSpec::new(TrackerKind::SingleSite)
        .eps(0.01)
        .deletions(true)
        .build()
        .unwrap();
    let report = Driver::new(0.01)
        .unwrap()
        .run(&mut tracker, &updates)
        .unwrap();
    assert_eq!(report.violations, 0);
    assert_eq!(report.final_f, 0);
    assert_eq!(report.final_estimate, 0);
}

#[test]
fn frequency_tracker_single_item_universe() {
    let updates: Vec<ItemUpdate> = (1..=500)
        .map(|t| ItemUpdate::new(t, (t as usize) % 2, 0, if t % 3 == 0 { -1 } else { 1 }))
        .collect();
    let mut tracker = TrackerSpec::new(TrackerKind::ExactFreq)
        .k(2)
        .eps(0.2)
        .universe(1)
        .build_item()
        .unwrap();
    let report = ItemDriver::new(0.2)
        .unwrap()
        .with_item_audit(50)
        .run_items(&mut tracker, &updates)
        .unwrap();
    assert_eq!(report.item_violations, 0);
    assert!(report.run.final_f > 0);
}

#[test]
fn tracing_empty_history() {
    let rec = TracingRecorder::new();
    let summary = rec.finish();
    assert_eq!(summary.query(0), 0);
    assert_eq!(summary.query(100), 0);
    assert_eq!(summary.words(), 0);
}

#[test]
fn variability_saturates_at_n_for_worst_case() {
    // hover(1) gives v'(t) = 1 at every post-climb step.
    let deltas = AdversarialGen::hover(1).deltas(1_000);
    let v = Variability::of_stream(deltas.iter().copied());
    assert!(v > 999.0 - 1.0 && v <= 1_000.0);
}

#[test]
fn engine_replicas_that_disagree_are_a_typed_error() {
    // Replica 2 tracks a different site count; replica 1 a different kind.
    let spec = |kind, k| TrackerSpec::new(kind).k(k).eps(0.1).build();
    let err = CounterEngine::with_factory(EngineConfig::new(3, 16), |s| {
        spec(TrackerKind::Deterministic, if s == 2 { 5 } else { 4 })
    })
    .unwrap_err();
    assert_eq!(
        err,
        EngineError::ReplicaMismatch {
            shard: 2,
            what: "site count",
            expected: 4,
            found: 5,
        }
    );
    let err = CounterEngine::with_factory(EngineConfig::new(2, 16), |s| {
        spec([TrackerKind::Deterministic, TrackerKind::Naive][s], 4)
    })
    .unwrap_err();
    assert!(matches!(
        err,
        EngineError::ReplicaMismatch {
            shard: 1,
            what: "tracker kind tag",
            ..
        }
    ));
    assert!(err.to_string().contains("replica 1"));
}
