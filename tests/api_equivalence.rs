//! API-equivalence tests: the `Box<dyn Tracker>` built by `TrackerSpec`
//! must be **bit-identical** — estimates at every timestep and the final
//! `CommStats` ledger — to direct `StarSim` construction with the same
//! parameters, for every kind and seed. Determinism end to end is a
//! design invariant (DESIGN.md §3); the builder must not perturb it.

use dsv::prelude::*;

const SEEDS: [u64; 4] = [0, 7, 42, 9001];

/// Direct `StarSim` construction for a counting kind, mirroring what the
/// spec is documented to build.
fn direct_counter(kind: TrackerKind, k: usize, eps: f64, seed: u64) -> Box<dyn Tracker> {
    match kind {
        TrackerKind::Deterministic => Box::new(DeterministicTracker::sim(k, eps)),
        TrackerKind::Randomized => Box::new(RandomizedTracker::sim(k, eps, seed)),
        TrackerKind::SingleSite => Box::new(SingleSiteTracker::sim(eps)),
        TrackerKind::Naive => Box::new(NaiveTracker::sim(k)),
        TrackerKind::CmyMonotone => Box::new(CmyCounter::sim(k, eps)),
        TrackerKind::HyzMonotone => Box::new(HyzCounter::sim(k, eps, seed)),
        _ => unreachable!("not a counting kind"),
    }
}

/// Direct `StarSim` construction for a frequency kind.
fn direct_freq(
    kind: TrackerKind,
    k: usize,
    eps: f64,
    universe: usize,
    seed: u64,
) -> Box<dyn ItemTracker> {
    match kind {
        TrackerKind::ExactFreq => Box::new(ExactFreqTracker::sim(k, eps, universe)),
        TrackerKind::CountMinFreq => Box::new(CountMinFreqTracker::sim(k, eps, seed)),
        TrackerKind::CrPrecisFreq => Box::new(CrPrecisFreqTracker::sim(k, eps, universe as u64)),
        TrackerKind::RandFreq => Box::new(RandFreqTracker::sim_exact(k, eps, universe, seed)),
        _ => unreachable!("not a frequency kind"),
    }
}

#[test]
fn every_counter_kind_is_bit_identical_on_monotone_streams() {
    // Monotone input runs all six kinds, including the insert-only ones.
    let eps = 0.2;
    let deltas = MonotoneGen::ones().deltas(6_000);
    for kind in TrackerKind::COUNTERS {
        for seed in SEEDS {
            let k = if kind == TrackerKind::SingleSite {
                1
            } else {
                4
            };
            let mut spec_built = TrackerSpec::new(kind)
                .k(k)
                .eps(eps)
                .seed(seed)
                .build()
                .unwrap();
            let mut direct = direct_counter(kind, k, eps, seed);
            for (i, &d) in deltas.iter().enumerate() {
                let a = spec_built.step(i % k, d);
                let b = direct.step(i % k, d);
                assert_eq!(
                    a,
                    b,
                    "{} seed {seed} diverged at t = {}",
                    kind.label(),
                    i + 1
                );
            }
            assert_eq!(spec_built.estimate(), direct.estimate());
            assert_eq!(
                spec_built.stats(),
                direct.stats(),
                "{} seed {seed}: CommStats diverged",
                kind.label()
            );
            assert_eq!(spec_built.kind(), kind);
        }
    }
}

#[test]
fn deletion_capable_kinds_are_bit_identical_on_walks() {
    let eps = 0.15;
    for kind in TrackerKind::COUNTERS {
        if !kind.supports_deletions() {
            continue;
        }
        for seed in SEEDS {
            let k = if kind == TrackerKind::SingleSite {
                1
            } else {
                3
            };
            let updates = WalkGen::biased(55 + seed, 0.2).updates(5_000, RoundRobin::new(k));
            let mut spec_built = TrackerSpec::new(kind)
                .k(k)
                .eps(eps)
                .seed(seed)
                .deletions(true)
                .build()
                .unwrap();
            let mut direct = direct_counter(kind, k, eps, seed);
            for u in &updates {
                assert_eq!(
                    spec_built.step(u.site, u.delta),
                    direct.step(u.site, u.delta),
                    "{} seed {seed} diverged at t = {}",
                    kind.label(),
                    u.time
                );
            }
            assert_eq!(spec_built.stats(), direct.stats());
            // State too, block structure included.
            assert_eq!(spec_built.snapshot().unwrap(), direct.snapshot().unwrap());
        }
    }
}

#[test]
fn every_frequency_kind_is_bit_identical_on_item_streams() {
    let (k, eps, universe) = (3usize, 0.2f64, 200usize);
    for kind in TrackerKind::FREQUENCIES {
        for seed in SEEDS {
            let updates = ItemStreamGen::new(100 + seed, universe, 1.1, 0.3, 1)
                .updates(5_000, RoundRobin::new(k));
            let mut spec_built = TrackerSpec::new(kind)
                .k(k)
                .eps(eps)
                .seed(seed)
                .universe(universe)
                .build_item()
                .unwrap();
            let mut direct = direct_freq(kind, k, eps, universe, seed);
            for u in &updates {
                let a = spec_built.step(u.site, (u.item, u.delta));
                let b = direct.step(u.site, (u.item, u.delta));
                assert_eq!(
                    a,
                    b,
                    "{} seed {seed}: F1 diverged at t = {}",
                    kind.label(),
                    u.time
                );
                // Spot-check per-item estimates as the run progresses.
                if u.time % 1_000 == 0 {
                    for item in (0..universe as u64).step_by(17) {
                        assert_eq!(
                            spec_built.estimate_item(item),
                            direct.estimate_item(item),
                            "{} seed {seed}: item {item} diverged at t = {}",
                            kind.label(),
                            u.time
                        );
                    }
                }
            }
            assert_eq!(
                spec_built.stats(),
                direct.stats(),
                "{} seed {seed}: CommStats diverged",
                kind.label()
            );
            assert_eq!(spec_built.coord_space_words(), direct.coord_space_words());
            assert_eq!(spec_built.kind(), kind);
        }
    }
}

#[test]
fn driver_report_is_bit_identical_to_tracker_runner() {
    // The unified Driver and the low-level TrackerRunner must produce the
    // same audit on the same tracker and stream.
    let (k, eps) = (4usize, 0.1f64);
    for seed in SEEDS {
        let updates = WalkGen::fair(seed).updates(6_000, RoundRobin::new(k));
        let mut a = RandomizedTracker::sim(k, eps, seed);
        let old = TrackerRunner::new(eps)
            .with_sampling(700)
            .run(&mut a, &updates);
        let mut b = TrackerSpec::new(TrackerKind::Randomized)
            .k(k)
            .eps(eps)
            .seed(seed)
            .deletions(true)
            .build()
            .unwrap();
        let new = Driver::new(eps)
            .unwrap()
            .with_sampling(700)
            .run(&mut b, &updates)
            .unwrap();
        assert_eq!(new.final_f, old.final_f);
        assert_eq!(new.final_estimate, old.final_estimate);
        assert_eq!(new.max_rel_err, old.max_rel_err);
        assert_eq!(new.violations, old.violations);
        assert_eq!(new.estimate_changes, old.estimate_changes);
        assert_eq!(new.stats, old.stats);
        assert_eq!(new.probes, old.probes);
    }
}
