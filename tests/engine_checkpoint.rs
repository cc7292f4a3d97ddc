//! The engine checkpoint/resume/rescale contract, for **every**
//! `TrackerKind`: a `ShardedEngine` checkpointed at a batch boundary,
//! serialized to bytes, restored (including onto a different worker
//! count), and driven to completion produces **bit-identical** final
//! estimates and `CommStats` ledgers — tracker and merge alike — to the
//! uninterrupted run. Live `rescale` mid-stream is held to the same
//! standard.

use dsv::net::{ItemUpdate, Update};
use dsv::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn counter_stream(seed: u64, n: u64, k: usize, deletions: bool) -> Vec<Update> {
    let mut s = seed;
    (1..=n)
        .map(|t| {
            let site = lcg(&mut s) as usize % k;
            let delta = if deletions && lcg(&mut s).is_multiple_of(3) {
                -1
            } else {
                1
            };
            Update::new(t, site, delta)
        })
        .collect()
}

fn item_stream(seed: u64, n: u64, k: usize, universe: u64) -> Vec<ItemUpdate> {
    let mut s = seed;
    let mut counts = vec![0i64; universe as usize];
    (1..=n)
        .map(|t| {
            let site = lcg(&mut s) as usize % k;
            let item = lcg(&mut s) % universe;
            let delta = if counts[item as usize] > 0 && lcg(&mut s).is_multiple_of(3) {
                -1
            } else {
                1
            };
            counts[item as usize] += delta;
            ItemUpdate::new(t, site, item, delta)
        })
        .collect()
}

/// Everything the equivalence claim covers, bundled for comparison.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    time: u64,
    estimate: i64,
    shard_estimates: Vec<i64>,
    tracker_stats: dsv::net::CommStats,
    merge_stats: dsv::net::CommStats,
}

fn fingerprint<T: Tracker<In> + Send, In: Copy + Send>(e: &ShardedEngine<T, In>) -> Fingerprint {
    Fingerprint {
        time: e.time(),
        estimate: e.estimate(),
        shard_estimates: e.shard_estimates(),
        tracker_stats: e.tracker_stats(),
        merge_stats: e.merge_stats().clone(),
    }
}

#[test]
fn every_counter_kind_resumes_and_rescales_bit_identically() {
    let shards = 4;
    let batch = 512;
    let n = 16 * batch as u64; // cut at a multiple of the batch size
    let cut = 9 * batch;
    for kind in TrackerKind::COUNTERS {
        let k = if kind == TrackerKind::SingleSite {
            1
        } else {
            4
        };
        let spec = TrackerSpec::new(kind)
            .k(k)
            .eps(0.2)
            .seed(17)
            .deletions(kind.supports_deletions());
        let cfg = EngineConfig::new(shards, batch).eps(0.2);
        let stream = counter_stream(1_000 + kind as u64, n, k, kind.supports_deletions());

        // Uninterrupted reference.
        let mut straight = ShardedEngine::counters(spec, cfg).unwrap();
        straight.run(&stream).unwrap();
        let want = fingerprint(&straight);

        // Checkpoint at a batch boundary, serialize ("kill"), resume onto
        // several different worker counts, finish the stream.
        let mut first = ShardedEngine::counters(spec, cfg).unwrap();
        first.run(&stream[..cut]).unwrap();
        let bytes = first.checkpoint().unwrap().to_bytes();
        drop(first);

        for workers in [shards, 2, 1, 7] {
            let ckpt = EngineCheckpoint::from_bytes(&bytes).unwrap();
            let mut resumed = CounterEngine::resume(spec, cfg.workers(workers), &ckpt).unwrap();
            let report = resumed.run(&stream[cut..]).unwrap();
            assert_eq!(report.workers, workers.min(shards), "{}", kind.label());
            assert_eq!(
                fingerprint(&resumed),
                want,
                "{} resumed onto {workers} workers diverged",
                kind.label()
            );
        }
    }
}

#[test]
fn every_frequency_kind_resumes_and_rescales_bit_identically() {
    let shards = 3;
    let batch = 256;
    let n = 12 * batch as u64;
    let cut = 7 * batch;
    let universe = 64u64;
    for kind in TrackerKind::FREQUENCIES {
        let spec = TrackerSpec::new(kind)
            .k(3)
            .eps(0.25)
            .seed(23)
            .universe(universe as usize);
        let cfg = EngineConfig::new(shards, batch)
            .eps(0.25)
            .partition(Partition::ByItem);
        let stream = item_stream(77, n, 3, universe);

        let mut straight = ShardedEngine::items(spec, cfg).unwrap();
        straight.run(&stream).unwrap();
        let want = fingerprint(&straight);

        let mut first = ShardedEngine::items(spec, cfg).unwrap();
        first.run(&stream[..cut]).unwrap();
        let bytes = first.checkpoint().unwrap().to_bytes();
        drop(first);

        for workers in [1, 2, shards] {
            let ckpt = EngineCheckpoint::from_bytes(&bytes).unwrap();
            let mut resumed = ItemEngine::resume(spec, cfg.workers(workers), &ckpt).unwrap();
            resumed.run(&stream[cut..]).unwrap();
            assert_eq!(
                fingerprint(&resumed),
                want,
                "{} resumed onto {workers} workers diverged",
                kind.label()
            );
            for item in 0..universe {
                assert_eq!(
                    resumed.estimate_item(item),
                    straight.estimate_item(item),
                    "{} item {item}",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn live_rescale_between_runs_is_ledger_identical() {
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(8)
        .eps(0.1)
        .deletions(true);
    let stream = counter_stream(5, 24_000, 8, true);
    let cfg = EngineConfig::new(8, 1_000);

    let mut steady = ShardedEngine::counters(spec, cfg).unwrap();
    steady.run(&stream).unwrap();

    // Scale 8 → 2 → 5 workers across segment boundaries, live.
    let mut elastic = ShardedEngine::counters(spec, cfg).unwrap();
    elastic.run(&stream[..8_000]).unwrap();
    elastic.rescale(2).unwrap();
    elastic.run(&stream[8_000..16_000]).unwrap();
    elastic.rescale(5).unwrap();
    let report = elastic.run(&stream[16_000..]).unwrap();
    assert_eq!(report.workers, 5);
    assert_eq!(fingerprint(&elastic), fingerprint(&steady));

    assert_eq!(elastic.rescale(0).unwrap_err(), EngineError::ZeroWorkers);
}

#[test]
fn run_parted_is_worker_count_invariant() {
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(4)
        .eps(0.1)
        .deletions(true);
    let feeds_data: Vec<(usize, Vec<i64>)> = (0..4)
        .map(|site| {
            let mut s = 100 + site as u64;
            let inputs = (0..6_000)
                .map(|_| if lcg(&mut s).is_multiple_of(4) { -1 } else { 1 })
                .collect();
            (site, inputs)
        })
        .collect();
    let feeds: Vec<(usize, &[i64])> = feeds_data.iter().map(|(s, v)| (*s, v.as_slice())).collect();

    let mut want: Option<Fingerprint> = None;
    for workers in [4usize, 2, 1, 3] {
        let mut engine =
            ShardedEngine::counters(spec, EngineConfig::new(4, 500).workers(workers)).unwrap();
        engine.run_parted(&feeds).unwrap();
        let fp = fingerprint(&engine);
        match &want {
            None => want = Some(fp),
            Some(w) => assert_eq!(&fp, w, "workers={workers} diverged"),
        }
    }
}

#[test]
fn checkpoint_traffic_is_charged_to_its_own_ledger() {
    let spec = TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.1);
    let stream = counter_stream(9, 4_000, 2, false);
    let mut engine = ShardedEngine::counters(spec, EngineConfig::new(2, 500)).unwrap();
    engine.run(&stream).unwrap();
    assert_eq!(engine.checkpoint_stats().total_messages(), 0);
    let ckpt = engine.checkpoint().unwrap();
    // One StateFrame per shard, carrying the snapshot payload in words.
    assert_eq!(engine.checkpoint_stats().total_messages(), 2);
    let payload_words: u64 = ckpt
        .states()
        .iter()
        .map(|s| (s.payload().len() as u64).div_ceil(8))
        .sum();
    assert_eq!(engine.checkpoint_stats().total_words(), payload_words);
    // Checkpointing again with no intervening inputs charges nothing:
    // every shard is provably clean, so its cached serialized state is
    // reused (the dirty-shard skip). The tracker/merge ledgers are
    // untouched either way (that is what keeps resume equivalence exact).
    let tracker_stats = engine.tracker_stats();
    let merge_stats = engine.merge_stats().clone();
    let again = engine.checkpoint().unwrap();
    assert_eq!(engine.checkpoint_stats().total_messages(), 2);
    assert_eq!(again, ckpt);
    assert_eq!(engine.tracker_stats(), tracker_stats);
    assert_eq!(engine.merge_stats(), &merge_stats);
    // New inputs re-dirty the shards they touch, and only those.
    engine.run(&counter_stream(10, 500, 2, false)).unwrap();
    engine.checkpoint().unwrap();
    assert_eq!(engine.checkpoint_stats().total_messages(), 4);
}

#[test]
fn skipped_clean_shards_still_restore_bit_identically() {
    // 4 shards under site-affine routing; after the first checkpoint,
    // feed only sites 0 and 2 so shards 1 and 3 stay clean. The second
    // checkpoint must charge exactly the two dirty shards, and resuming
    // from it (clean shards carried by cached state) must be
    // bit-identical to the uninterrupted run.
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(4)
        .eps(0.1)
        .deletions(true);
    let cfg = EngineConfig::new(4, 250);
    let full = counter_stream(31, 8_000, 4, true);
    let skewed: Vec<Update> = counter_stream(32, 4_000, 2, true)
        .into_iter()
        .map(|u| Update::new(u.time, u.site * 2, u.delta)) // sites {0, 2} only
        .collect();

    let mut straight = ShardedEngine::counters(spec, cfg).unwrap();
    straight.run(&full).unwrap();
    straight.run(&skewed).unwrap();
    let want = fingerprint(&straight);

    let mut engine = ShardedEngine::counters(spec, cfg).unwrap();
    engine.run(&full).unwrap();
    engine.checkpoint().unwrap();
    let base_msgs = engine.checkpoint_stats().total_messages();
    assert_eq!(base_msgs, 4);
    engine.run(&skewed).unwrap();
    let ckpt = engine.checkpoint().unwrap();
    // Only shards 0 and 2 were touched since the first capture.
    assert_eq!(engine.checkpoint_stats().total_messages(), base_msgs + 2);

    // The checkpoint (with two shard states served from cache) restores
    // to the same fingerprint as the uninterrupted engine...
    let restored = EngineCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    let resumed = CounterEngine::resume(spec, cfg, &restored).unwrap();
    assert_eq!(fingerprint(&resumed), want);
    // ...including each per-shard replica state.
    let mut fresh = ShardedEngine::counters(spec, cfg).unwrap();
    fresh.run(&full).unwrap();
    fresh.run(&skewed).unwrap();
    assert_eq!(fresh.checkpoint().unwrap().states(), ckpt.states());
}

#[test]
fn checkpoints_stay_flat_over_many_completed_blocks() {
    // Spec-built replicas keep no block log, so an engine checkpoint is
    // the same size at every boundary of a long fair walk, however many
    // blocks the replicas complete in between.
    for kind in [TrackerKind::Deterministic, TrackerKind::Randomized] {
        let spec = TrackerSpec::new(kind).k(4).eps(0.1).seed(3).deletions(true);
        let mut engine = ShardedEngine::counters(spec, EngineConfig::new(2, 1_000)).unwrap();
        let walk = WalkGen::fair(17).updates(60_000, RoundRobin::new(4));
        let sizes: Vec<usize> = walk
            .chunks(10_000)
            .map(|segment| {
                engine.run(segment).unwrap();
                engine.checkpoint().unwrap().to_bytes().len()
            })
            .collect();
        assert!(
            sizes.iter().all(|&len| len == sizes[0]),
            "{}: checkpoint sizes {sizes:?}",
            kind.label()
        );
    }
}

#[test]
fn parted_and_pipelined_ingest_dirty_only_the_shards_they_feed() {
    // Every ingestion path counts a shard's inputs at the boundary fold,
    // so after a first capture, feeding only sites 0 and 2 (shards 0 and
    // 2 of 4) re-captures and charges exactly those two shards.
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(4)
        .eps(0.1)
        .deletions(true);
    let ones = vec![1i64; 700];
    for pipelined in [false, true] {
        let mut engine = ShardedEngine::counters(spec, EngineConfig::new(4, 100)).unwrap();
        engine.checkpoint().unwrap();
        assert_eq!(engine.checkpoint_stats().total_messages(), 4);
        if pipelined {
            engine
                .run_pipelined(&[2, 0], |handles| {
                    for mut handle in handles {
                        handle.push_batch(&ones[..300]).unwrap();
                    }
                })
                .unwrap();
        } else {
            engine
                .run_parted(&[(2, &ones[..]), (0, &ones[..300])])
                .unwrap();
        }
        engine.checkpoint().unwrap();
        assert_eq!(
            engine.checkpoint_stats().total_messages(),
            6,
            "pipelined: {pipelined}"
        );
    }
}
