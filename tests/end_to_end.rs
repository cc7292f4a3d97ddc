//! Cross-crate integration tests: every tracker × every workload class,
//! auditing the paper's guarantees end-to-end through the public API
//! (the `TrackerSpec` builder + `Driver` runner front door).

use dsv::core::deterministic::{DetCoord, DetSite};
use dsv::prelude::*;

/// Spec-built tracker driven over `updates` with auditing at `eps`.
fn drive(kind: TrackerKind, k: usize, eps: f64, seed: u64, updates: &[Update]) -> RunReport {
    let mut tracker = TrackerSpec::new(kind)
        .k(k)
        .eps(eps)
        .seed(seed)
        .deletions(kind.supports_deletions())
        .build()
        .unwrap();
    Driver::new(eps)
        .unwrap()
        .run(&mut tracker, updates)
        .unwrap()
}

fn workload_suite(n: u64, k: usize) -> Vec<(&'static str, Vec<Update>)> {
    vec![
        (
            "monotone",
            MonotoneGen::ones().updates(n, RoundRobin::new(k)),
        ),
        (
            "fair-walk",
            WalkGen::fair(101).updates(n, RoundRobin::new(k)),
        ),
        (
            "biased-walk",
            WalkGen::biased(103, 0.25).updates(n, RandomAssign::new(k, 5)),
        ),
        (
            "nearly-monotone",
            NearlyMonotoneGen::new(107, 2.0, 0.45).updates(n, RoundRobin::new(k)),
        ),
        (
            "hover-20",
            AdversarialGen::hover(20).updates(n, RoundRobin::new(k)),
        ),
        (
            "zero-crossing",
            AdversarialGen::zero_crossing(7).updates(n / 4, RandomAssign::new(k, 9)),
        ),
        (
            "lazy-walk",
            WalkGen::lazy(109, 0.5).updates(n, RoundRobin::new(k)),
        ),
    ]
}

#[test]
fn deterministic_tracker_full_matrix() {
    for k in [1usize, 3, 8] {
        for eps in [0.25f64, 0.1] {
            for (name, updates) in workload_suite(20_000, k) {
                let v = Variability::of_stream(updates.iter().map(|u| u.delta));
                let report = drive(TrackerKind::Deterministic, k, eps, 0, &updates);
                assert_eq!(
                    report.violations, 0,
                    "{name} k={k} eps={eps}: max err {}",
                    report.max_rel_err
                );
                let bound = DeterministicTracker::message_bound(k, eps, v);
                assert!(
                    (report.stats.total_messages() as f64) <= bound,
                    "{name} k={k} eps={eps}: {} messages > bound {bound}",
                    report.stats.total_messages()
                );
            }
        }
    }
}

#[test]
fn randomized_tracker_full_matrix() {
    let trials = 12u64;
    for k in [1usize, 4, 9] {
        let eps = 0.2;
        for (name, updates) in workload_suite(8_000, k) {
            let mut total_viol = 0u64;
            let mut total_msgs = 0u64;
            for seed in 0..trials {
                let report = drive(TrackerKind::Randomized, k, eps, 31 + seed, &updates);
                total_viol += report.violations;
                total_msgs += report.stats.total_messages();
            }
            let rate = total_viol as f64 / (trials * 8_000) as f64;
            assert!(rate < 1.0 / 3.0, "{name} k={k}: violation rate {rate}");
            let v = Variability::of_stream(updates.iter().map(|u| u.delta));
            let bound = RandomizedTracker::message_bound(k, eps, v);
            assert!(
                (total_msgs as f64 / trials as f64) <= bound,
                "{name} k={k}: mean messages {} > bound {bound}",
                total_msgs / trials
            );
        }
    }
}

#[test]
fn single_site_tracker_arbitrary_aggregates() {
    // k = 1 allows arbitrary integer updates (no ±1 restriction).
    let streams: Vec<(&str, Vec<i64>)> = vec![
        ("jumps", MonotoneGen::jumps(3, 1000).deltas(5_000)),
        ("walk", WalkGen::fair(5).deltas(30_000)),
        (
            "zero-crossing",
            AdversarialGen::zero_crossing(3).deltas(5_000),
        ),
    ];
    for eps in [0.3f64, 0.07] {
        for (name, deltas) in &streams {
            let v = Variability::of_stream(deltas.iter().copied());
            let updates = assign_updates(deltas, SingleSite::solo());
            let report = drive(TrackerKind::SingleSite, 1, eps, 0, &updates);
            assert_eq!(report.violations, 0, "{name} eps={eps}");
            assert!(
                (report.stats.total_messages() as f64) <= SingleSiteTracker::message_bound(eps, v),
                "{name} eps={eps}"
            );
        }
    }
}

#[test]
fn expanded_large_updates_preserve_guarantee() {
    // Appendix C: a stream with |f'| up to 64, expanded to ±1 arrivals,
    // tracked by the distributed tracker.
    let k = 4;
    let eps = 0.1;
    let deltas = MonotoneGen::jumps(11, 64).deltas(3_000);
    let expanded = dsv::core::expand::expand_stream(&deltas);
    assert!(expanded.len() > deltas.len());
    let updates = assign_updates(&expanded, RoundRobin::new(k));
    let report = drive(TrackerKind::Deterministic, k, eps, 0, &updates);
    assert_eq!(report.violations, 0);
    assert_eq!(report.final_f, deltas.iter().sum::<i64>());
}

#[test]
fn trackers_agree_with_naive_ground_truth_at_block_ends() {
    // The deterministic tracker must equal the exact (naive) tracker's
    // value at every block boundary.
    let k = 4;
    let updates = WalkGen::biased(7, 0.3).updates(20_000, RoundRobin::new(k));
    let mut det = StarSim::with_k(k, |_| DetSite::new(0.1), DetCoord::new(k).with_block_log());
    let mut truth = Vec::new();
    let mut f = 0i64;
    for u in &updates {
        f += u.delta;
        truth.push(f);
        det.step(u.site, u.delta);
    }
    let log = det.coordinator().blocks().log().unwrap();
    assert!(log.len() > 3, "expected several blocks");
    for b in log {
        assert_eq!(b.f_end, truth[(b.end - 1) as usize]);
    }
}

#[test]
fn monotone_specialization_within_constant_of_cmy() {
    let k = 8;
    let eps = 0.1;
    let n = 50_000;
    let updates = MonotoneGen::ones().updates(n, RoundRobin::new(k));
    let det_msgs = drive(TrackerKind::Deterministic, k, eps, 0, &updates)
        .stats
        .total_messages();
    let cmy_msgs = drive(TrackerKind::CmyMonotone, k, eps, 0, &updates)
        .stats
        .total_messages();
    // "reduce to the monotone case": same log n shape, constant factor.
    assert!(
        det_msgs < 12 * cmy_msgs,
        "det {det_msgs} vs cmy {cmy_msgs}: factor too large"
    );
}

#[test]
fn naive_and_periodic_baselines_behave() {
    let k = 4;
    let updates = WalkGen::fair(3).updates(10_000, RoundRobin::new(k));
    let naive_report = drive(TrackerKind::Naive, k, 0.1, 0, &updates);
    assert_eq!(naive_report.max_rel_err, 0.0);
    assert_eq!(naive_report.stats.total_messages(), 10_000);

    let mut per = PeriodicSync::sim(k, 50);
    let mut f = 0i64;
    for u in &updates {
        f += u.delta;
        let est = per.step(u.site, u.delta);
        assert!((f - est).unsigned_abs() <= 50 * k as u64);
    }
}

#[test]
fn message_cost_is_monotone_in_variability_across_hover_levels() {
    let k = 4;
    let eps = 0.1;
    let n = 30_000;
    let mut prev_msgs = u64::MAX;
    for level in [1i64, 10, 100, 1_000] {
        let updates = AdversarialGen::hover(level).updates(n, RoundRobin::new(k));
        let report = drive(TrackerKind::Deterministic, k, eps, 0, &updates);
        assert_eq!(report.violations, 0);
        assert!(
            report.stats.total_messages() <= prev_msgs,
            "cost should fall as hover level rises (v falls): level {level}"
        );
        prev_msgs = report.stats.total_messages();
    }
}
