//! The snapshot/restore contract, for **every** `TrackerKind` × seeds:
//!
//! * `snapshot → restore → snapshot` is byte-identical;
//! * a tracker snapshotted mid-stream, resumed via `TrackerSpec::resume`,
//!   and driven over the remaining stream finishes with bit-identical
//!   estimates and `CommStats` to the uninterrupted tracker — including
//!   per-item estimates and RNG streams for the randomized kinds;
//! * mismatched specs and snapshots are typed errors, not panics.

use dsv::core::deterministic::{DetCoord, DetSite};
use dsv::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A deletion-free or mixed counter stream with pseudorandom placement.
fn counter_batch(seed: u64, n: usize, k: usize, deletions: bool) -> Vec<(usize, i64)> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let site = lcg(&mut s) as usize % k;
            let delta = if deletions && lcg(&mut s).is_multiple_of(3) {
                -1
            } else {
                1
            };
            (site, delta)
        })
        .collect()
}

/// An item stream whose per-item counts never go negative.
fn item_batch(seed: u64, n: usize, k: usize, universe: u64) -> Vec<(usize, (u64, i64))> {
    let mut s = seed;
    let mut counts = vec![0i64; universe as usize];
    (0..n)
        .map(|_| {
            let site = lcg(&mut s) as usize % k;
            let item = lcg(&mut s) % universe;
            let delta = if counts[item as usize] > 0 && lcg(&mut s).is_multiple_of(3) {
                -1
            } else {
                1
            };
            counts[item as usize] += delta;
            (site, (item, delta))
        })
        .collect()
}

fn counter_spec(kind: TrackerKind, k: usize, seed: u64) -> TrackerSpec {
    TrackerSpec::new(kind)
        .k(k)
        .eps(0.15)
        .seed(seed)
        .deletions(kind.supports_deletions())
}

fn item_spec(kind: TrackerKind, k: usize, seed: u64, universe: usize) -> TrackerSpec {
    TrackerSpec::new(kind)
        .k(k)
        .eps(0.25)
        .seed(seed)
        .universe(universe)
}

#[test]
fn counter_kinds_roundtrip_and_resume_bit_identically() {
    let n = 4_000;
    let cut = 1_700; // deliberately not a round number
    for kind in TrackerKind::COUNTERS {
        for seed in [3u64, 77, 20_001] {
            let k = if kind == TrackerKind::SingleSite {
                1
            } else {
                4
            };
            let spec = counter_spec(kind, k, seed);
            let batch = counter_batch(seed ^ 0xD5, n, k, kind.supports_deletions());

            // The uninterrupted reference.
            let mut straight = spec.build().unwrap();
            for &(site, delta) in &batch {
                straight.step(site, delta);
            }

            // Snapshot mid-stream, resume through the spec front door.
            let mut first = spec.build().unwrap();
            for &(site, delta) in &batch[..cut] {
                first.step(site, delta);
            }
            let state = first.snapshot().unwrap();

            // Byte-identity of the round trip.
            let mut copy = spec.build().unwrap();
            copy.restore(&state).unwrap();
            assert_eq!(
                copy.snapshot().unwrap().to_bytes(),
                state.to_bytes(),
                "{} seed {seed}: snapshot→restore→snapshot changed bytes",
                kind.label()
            );

            // Wire round trip + continuation equivalence.
            let wire = state.to_bytes();
            let decoded = TrackerState::from_bytes(&wire).unwrap();
            let mut resumed = spec.resume(&decoded).unwrap();
            assert_eq!(resumed.kind(), kind);
            assert_eq!(resumed.estimate(), first.estimate());
            for &(site, delta) in &batch[cut..] {
                let a = first.step(site, delta);
                let b = resumed.step(site, delta);
                assert_eq!(a, b, "{} seed {seed}: estimates diverged", kind.label());
            }
            assert_eq!(resumed.estimate(), straight.estimate(), "{}", kind.label());
            assert_eq!(resumed.stats(), straight.stats(), "{}", kind.label());
            assert_eq!(first.stats(), straight.stats(), "{}", kind.label());
        }
    }
}

#[test]
fn frequency_kinds_roundtrip_and_resume_bit_identically() {
    let n = 3_000;
    let cut = 1_234;
    let universe = 48usize;
    for kind in TrackerKind::FREQUENCIES {
        for seed in [5u64, 91] {
            let k = 3;
            let spec = item_spec(kind, k, seed, universe);
            let batch = item_batch(seed ^ 0xA7, n, k, universe as u64);

            let mut straight = spec.build_item().unwrap();
            for &(site, input) in &batch {
                straight.step(site, input);
            }

            let mut first = spec.build_item().unwrap();
            for &(site, input) in &batch[..cut] {
                first.step(site, input);
            }
            let state = first.snapshot().unwrap();

            let mut copy = spec.build_item().unwrap();
            copy.restore(&state).unwrap();
            assert_eq!(
                copy.snapshot().unwrap().to_bytes(),
                state.to_bytes(),
                "{} seed {seed}",
                kind.label()
            );

            let decoded = TrackerState::from_bytes(&state.to_bytes()).unwrap();
            let mut resumed = spec.resume_item(&decoded).unwrap();
            for &(site, input) in &batch[cut..] {
                let a = first.step(site, input);
                let b = resumed.step(site, input);
                assert_eq!(a, b, "{} seed {seed}: F1 diverged", kind.label());
            }
            assert_eq!(resumed.estimate(), straight.estimate(), "{}", kind.label());
            assert_eq!(resumed.stats(), straight.stats(), "{}", kind.label());
            for item in 0..universe as u64 {
                assert_eq!(
                    resumed.estimate_item(item),
                    straight.estimate_item(item),
                    "{} seed {seed}: item {item}",
                    kind.label()
                );
            }
            assert_eq!(
                resumed.coord_space_words(),
                straight.coord_space_words(),
                "{}",
                kind.label()
            );
        }
    }
}

#[test]
fn snapshot_through_batched_ingestion_matches_per_update_snapshots() {
    // The batched paths must leave the tracker in the same serializable
    // state as per-update stepping — snapshots are the sharpest equality
    // oracle there is (they cover fields estimates don't reach).
    for kind in TrackerKind::COUNTERS {
        let k = if kind == TrackerKind::SingleSite {
            1
        } else {
            3
        };
        let spec = counter_spec(kind, k, 11);
        let batch = counter_batch(99, 2_500, k, kind.supports_deletions());
        let mut stepped = spec.build().unwrap();
        for &(site, delta) in &batch {
            stepped.step(site, delta);
        }
        let mut batched = spec.build().unwrap();
        batched.update_batch(&batch);
        assert_eq!(
            batched.snapshot().unwrap().to_bytes(),
            stepped.snapshot().unwrap().to_bytes(),
            "{}",
            kind.label()
        );
    }
    for kind in TrackerKind::FREQUENCIES {
        let spec = item_spec(kind, 2, 13, 32);
        let batch = item_batch(55, 2_500, 2, 32);
        let mut stepped = spec.build_item().unwrap();
        for &(site, input) in &batch {
            stepped.step(site, input);
        }
        let mut batched = spec.build_item().unwrap();
        batched.update_batch(&batch);
        assert_eq!(
            batched.snapshot().unwrap().to_bytes(),
            stepped.snapshot().unwrap().to_bytes(),
            "{}",
            kind.label()
        );
    }
}

#[test]
fn resume_rejects_mismatched_specs_with_typed_errors() {
    let spec = counter_spec(TrackerKind::Deterministic, 4, 1);
    let mut tracker = spec.build().unwrap();
    for &(site, delta) in &counter_batch(2, 500, 4, true) {
        tracker.step(site, delta);
    }
    let state = tracker.snapshot().unwrap();

    // Wrong kind.
    let err = counter_spec(TrackerKind::Naive, 4, 1)
        .resume(&state)
        .unwrap_err();
    assert!(matches!(
        err,
        ResumeError::Codec(CodecError::Mismatch {
            what: "tracker kind",
            ..
        })
    ));
    // Wrong problem entirely.
    let err = item_spec(TrackerKind::ExactFreq, 4, 1, 16)
        .resume_item(&state)
        .unwrap_err();
    assert!(matches!(
        err,
        ResumeError::Codec(CodecError::Mismatch { .. })
    ));
    // Wrong site count.
    let err = counter_spec(TrackerKind::Deterministic, 8, 1)
        .resume(&state)
        .unwrap_err();
    assert!(matches!(
        err,
        ResumeError::Codec(CodecError::Mismatch {
            what: "site count k",
            ..
        })
    ));
    // An invalid spec is a Build error even with a good snapshot.
    let err = counter_spec(TrackerKind::Deterministic, 4, 1)
        .eps(0.0)
        .resume(&state)
        .unwrap_err();
    assert!(matches!(
        err,
        ResumeError::Build(BuildError::InvalidEps { .. })
    ));
    assert!(!err.to_string().is_empty());

    // Frequency shape mismatch: same kind, different universe — caught by
    // the counter-vector shape check during restore.
    let fspec = item_spec(TrackerKind::ExactFreq, 2, 1, 32);
    let mut ft = fspec.build_item().unwrap();
    for &(site, input) in &item_batch(3, 400, 2, 32) {
        ft.step(site, input);
    }
    let fstate = ft.snapshot().unwrap();
    let err = item_spec(TrackerKind::ExactFreq, 2, 1, 64)
        .resume_item(&fstate)
        .unwrap_err();
    assert!(matches!(
        err,
        ResumeError::Codec(CodecError::Mismatch { .. })
    ));
}

#[test]
fn custom_protocols_without_the_seam_are_a_typed_error() {
    use dsv::net::{CoordOutbox, Outbox, SiteNode as SiteNodeTrait, StarSim};
    use dsv_net::{CoordinatorNode, SiteId, Time};
    #[derive(Debug)]
    struct FwdSite;
    #[derive(Debug)]
    struct SumCoord {
        sum: i64,
    }
    impl SiteNodeTrait for FwdSite {
        type In = i64;
        type Up = i64;
        type Down = ();
        fn on_update(&mut self, _t: Time, d: i64, out: &mut Outbox<i64>) {
            out.send(d);
        }
        fn on_down(&mut self, _t: Time, _m: &(), _r: bool, _o: &mut Outbox<i64>) {}
    }
    impl CoordinatorNode for SumCoord {
        type Up = i64;
        type Down = ();
        fn on_up(&mut self, _t: Time, _s: SiteId, m: i64, _o: &mut CoordOutbox<()>) {
            self.sum += m;
        }
        fn estimate(&self) -> i64 {
            self.sum
        }
    }
    let sim = StarSim::new(vec![FwdSite], SumCoord { sum: 0 });
    let mut enc = dsv::net::codec::Enc::new();
    assert_eq!(
        sim.save_state(&mut enc).unwrap_err(),
        CodecError::UnsupportedNode
    );
}

#[test]
fn spec_built_snapshots_do_not_grow_with_completed_blocks() {
    // The coordinator's block log is opt-in: a spec-built tracker keeps
    // none, so its snapshot is the same size however many blocks a long
    // fair walk completes. A logging twin counts those blocks.
    let k = 4;
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(0.1)
        .deletions(true);
    let mut tracker = spec.build().unwrap();
    let mut twin = StarSim::with_k(k, |_| DetSite::new(0.1), DetCoord::new(k).with_block_log());
    let walk = WalkGen::fair(5).updates(100_000, RoundRobin::new(k));
    let (head, tail) = walk.split_at(1_000);
    for u in head {
        tracker.step(u.site, u.delta);
        twin.step(u.site, u.delta);
    }
    let early_len = tracker.snapshot().unwrap().payload().len();
    let early_blocks = twin.coordinator().blocks().log().unwrap().len();
    for u in tail {
        tracker.step(u.site, u.delta);
        twin.step(u.site, u.delta);
    }
    let blocks = twin.coordinator().blocks().log().unwrap().len();
    assert!(
        blocks > early_blocks + 100,
        "the walk must complete many blocks: {early_blocks} -> {blocks}"
    );
    assert_eq!(tracker.estimate(), twin.estimate());
    assert_eq!(tracker.snapshot().unwrap().payload().len(), early_len);
}

#[test]
fn item_kind_snapshots_do_not_grow_with_completed_blocks() {
    // Both frequency coordinators keep no block log either: after a long
    // item stream (F1 doubles several times, each time completing
    // blocks) a spec-built tracker's snapshot is as large as early on.
    for kind in [TrackerKind::ExactFreq, TrackerKind::RandFreq] {
        let mut tracker = item_spec(kind, 3, 11, 32).build_item().unwrap();
        let stream = item_batch(13, 60_000, 3, 32);
        let (head, tail) = stream.split_at(2_000);
        for &(site, input) in head {
            tracker.step(site, input);
        }
        let early_len = tracker.snapshot().unwrap().payload().len();
        for &(site, input) in tail {
            tracker.step(site, input);
        }
        let late_len = tracker.snapshot().unwrap().payload().len();
        assert_eq!(late_len, early_len, "{}", kind.label());
    }
}

#[test]
fn snapshots_carrying_a_block_log_still_restore() {
    // An image whose coordinator logged every block (the format every
    // tracker wrote while logging was unconditional) restores into a
    // spec-built tracker, which drops the log and then continues
    // bit-identically with one that never kept it.
    let k = 3;
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(0.1)
        .deletions(true);
    let walk = WalkGen::fair(9).updates(30_000, RoundRobin::new(k));
    let (head, tail) = walk.split_at(20_000);
    let mut logged = StarSim::with_k(k, |_| DetSite::new(0.1), DetCoord::new(k).with_block_log());
    let mut plain = spec.build().unwrap();
    for u in head {
        logged.step(u.site, u.delta);
        plain.step(u.site, u.delta);
    }
    assert!(logged.coordinator().blocks().log().unwrap().len() > 3);
    let image = Tracker::snapshot(&logged).unwrap();
    let plain_image = plain.snapshot().unwrap();
    assert!(image.payload().len() > plain_image.payload().len());

    let mut resumed = spec.resume(&image).unwrap();
    assert_eq!(resumed.snapshot().unwrap().payload(), plain_image.payload());
    for u in tail {
        assert_eq!(resumed.step(u.site, u.delta), plain.step(u.site, u.delta));
    }
    assert_eq!(resumed.stats(), plain.stats());
    assert_eq!(
        resumed.snapshot().unwrap().payload(),
        plain.snapshot().unwrap().payload()
    );
}
