//! The pipelined-ingestion contract (ISSUE 5): for every `TrackerKind`,
//! `ShardedEngine::run_pipelined` — bounded per-feed queues, concurrent
//! feeder/worker/coordinator — produces **bit-identical** estimates,
//! per-shard replica states, and `CommStats` ledgers (tracker and merge
//! alike) to `run_parted` over the same per-site feeds: the boundary cut
//! is the same, only the execution overlaps. Plus the backpressure edge
//! cases: feeds closed mid-batch, typed push-after-close errors,
//! zero-capacity rejection, and Error-policy load shedding.

use dsv::net::{ItemUpdate, Update};
use dsv::prelude::*;
use proptest::prelude::*;

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

/// Everything the bit-identity claim covers, bundled for comparison.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    time: u64,
    estimate: i64,
    shard_estimates: Vec<i64>,
    tracker_stats: CommStats,
    merge_stats: CommStats,
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

/// Per-site feeds in site order from a timed counter stream.
fn part_counters(updates: &[Update], k: usize) -> Vec<Vec<i64>> {
    let mut feeds: Vec<Vec<i64>> = (0..k).map(|_| Vec::new()).collect();
    for u in updates {
        feeds[u.site].push(u.delta);
    }
    feeds
}

#[test]
fn every_counter_kind_is_bit_identical_pipelined_vs_parted() {
    let shards = 4;
    let batch = 512;
    for kind in TrackerKind::COUNTERS {
        let k = if kind == TrackerKind::SingleSite {
            1
        } else {
            4
        };
        let spec = TrackerSpec::new(kind)
            .k(k)
            .eps(0.2)
            .seed(23)
            .deletions(kind.supports_deletions());
        let stream = counter_stream(7_000 + kind as u64, 9_000, k, kind.supports_deletions());
        let feeds = part_counters(&stream, k);
        let slices: Vec<(usize, &[i64])> = feeds
            .iter()
            .enumerate()
            .map(|(s, v)| (s, v.as_slice()))
            .collect();
        let sites: Vec<usize> = (0..k).collect();

        let cfg = EngineConfig::new(shards, batch).eps(0.2);
        let mut parted = ShardedEngine::counters(spec, cfg).unwrap();
        let parted_report = parted.run_parted(&slices).unwrap();
        let want = fingerprint(&parted);

        for workers in [shards, 2, 1] {
            let mut piped = ShardedEngine::counters(spec, cfg.workers(workers)).unwrap();
            let report = piped
                .run_pipelined(&sites, |handles| {
                    std::thread::scope(|s| {
                        for (mut handle, data) in handles.into_iter().zip(&feeds) {
                            s.spawn(move || {
                                for chunk in data.chunks(97) {
                                    handle.push_batch(chunk).unwrap();
                                }
                            });
                        }
                    });
                })
                .unwrap();
            assert_eq!(
                fingerprint(&piped),
                want,
                "{} W={workers} diverged from run_parted",
                kind.label()
            );
            assert_eq!(report.n, parted_report.n, "{}", kind.label());
            assert_eq!(report.batches, parted_report.batches, "{}", kind.label());
            assert_eq!(report.final_f, parted_report.final_f, "{}", kind.label());
            assert_eq!(
                report.boundary_violations,
                parted_report.boundary_violations,
                "{}",
                kind.label()
            );
        }
    }
}

#[test]
fn every_frequency_kind_is_bit_identical_pipelined_vs_parted() {
    let k = 3;
    let universe = 128u64;
    for kind in TrackerKind::FREQUENCIES {
        let spec = TrackerSpec::new(kind)
            .k(k)
            .eps(0.15)
            .seed(92)
            .universe(universe as usize);
        let stream = item_stream(40 + kind as u64, 8_000, k, universe);
        let mut feeds: Vec<Vec<(u64, i64)>> = (0..k).map(|_| Vec::new()).collect();
        for u in &stream {
            feeds[u.site].push((u.item, u.delta));
        }
        let slices: Vec<(usize, &[(u64, i64)])> = feeds
            .iter()
            .enumerate()
            .map(|(s, v)| (s, v.as_slice()))
            .collect();
        let sites: Vec<usize> = (0..k).collect();

        let cfg = EngineConfig::new(k, 256).eps(0.15);
        let mut parted = ShardedEngine::items(spec, cfg).unwrap();
        parted.run_parted(&slices).unwrap();
        let want = fingerprint(&parted);

        for workers in [k, 1] {
            let mut piped = ShardedEngine::items(spec, cfg.workers(workers)).unwrap();
            piped
                .run_pipelined(&sites, |handles| {
                    std::thread::scope(|s| {
                        for (mut handle, data) in handles.into_iter().zip(&feeds) {
                            s.spawn(move || {
                                for chunk in data.chunks(61) {
                                    handle.push_batch(chunk).unwrap();
                                }
                            });
                        }
                    });
                })
                .unwrap();
            assert_eq!(
                fingerprint(&piped),
                want,
                "{} W={workers} diverged",
                kind.label()
            );
            for item in 0..universe {
                assert_eq!(
                    piped.estimate_item(item),
                    parted.estimate_item(item),
                    "{} item {item}",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn feeds_closed_mid_batch_match_parted_partial_rounds() {
    // Every feed shape the round loop has an edge for, each run through
    // run_parted and run_pipelined at W = 1, 2, 3 and held bit-identical
    // to run_parted at W = 1. A feed closed mid-batch ends its stream
    // exactly there — the worker runs the final partial round and the
    // cut stays identical to run_parted over the same (truncated) feeds.
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(3)
        .eps(0.1)
        .deletions(true);
    // (name, logical shards, feeds as (site, inputs)); batch is 100.
    type Feeds = Vec<(usize, Vec<i64>)>;
    let shapes: Vec<(&str, usize, Feeds)> = vec![
        (
            "ragged",
            3,
            vec![
                (0, vec![1; 250]),  // 2.5 batches
                (1, vec![1; 399]),  // just under 4
                (2, vec![-1; 101]), // just over 1
                (1, vec![1; 37]),   // a second feed on the same shard
                (0, vec![]),        // closed without a single push
            ],
        ),
        ("no feeds", 3, vec![]),
        (
            "empty mixed with full",
            3,
            vec![
                (0, vec![]),
                (1, vec![1; 300]),
                (2, vec![]),
                (0, vec![-1; 150]),
                (2, vec![]),
            ],
        ),
        (
            "exact multiples of batch",
            3,
            vec![(0, vec![1; 300]), (1, vec![-1; 100]), (2, vec![1; 200])],
        ),
        (
            "several feeds on one site",
            3,
            vec![
                (1, vec![1; 120]),
                (1, vec![-1; 250]),
                (1, vec![1; 99]),
                (0, vec![1; 50]),
                (1, vec![1; 230]), // shares site 1's last round with feed 2
            ],
        ),
        (
            "worker without feeds",
            4,
            vec![(0, vec![1; 230]), (2, vec![-1; 170]), (2, vec![1; 64])],
        ),
    ];

    for (name, shards, feeds) in &shapes {
        let cfg = EngineConfig::new(*shards, 100).eps(0.1);
        let sites: Vec<usize> = feeds.iter().map(|(site, _)| *site).collect();
        let slices: Vec<(usize, &[i64])> = feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();

        let mut reference = ShardedEngine::counters(spec, cfg.workers(1)).unwrap();
        let want_report = reference.run_parted(&slices).unwrap();
        let want = fingerprint(&reference);
        // Independent of the loop: every input counted once, and the
        // merged estimate is exactly the replicas' sum at the end.
        let total: usize = feeds.iter().map(|(_, v)| v.len()).sum();
        let truth: i64 = feeds.iter().flat_map(|(_, v)| v).sum();
        assert_eq!(
            (want_report.n, want_report.final_f),
            (total as u64, truth),
            "{name}"
        );
        assert_eq!(
            want.estimate,
            want.shard_estimates.iter().sum::<i64>(),
            "{name}"
        );

        for workers in [1usize, 2, 3] {
            let mut parted = ShardedEngine::counters(spec, cfg.workers(workers)).unwrap();
            let report = parted.run_parted(&slices).unwrap();
            assert_eq!(fingerprint(&parted), want, "{name}: run_parted W={workers}");
            assert_eq!(report.n, want_report.n, "{name}: run_parted W={workers}");
            assert_eq!(report.batches, want_report.batches, "{name}: W={workers}");

            let mut piped = ShardedEngine::counters(spec, cfg.workers(workers)).unwrap();
            let report = piped
                .run_pipelined(&sites, |handles| {
                    std::thread::scope(|s| {
                        for (mut handle, (_, data)) in handles.into_iter().zip(feeds) {
                            s.spawn(move || {
                                // Push in ragged chunks, closing mid-batch.
                                for chunk in data.chunks(83) {
                                    handle.push_batch(chunk).unwrap();
                                }
                                handle.close();
                            });
                        }
                    });
                })
                .unwrap();
            assert_eq!(
                fingerprint(&piped),
                want,
                "{name}: run_pipelined W={workers}"
            );
            assert_eq!(report.n, want_report.n, "{name}: run_pipelined W={workers}");
            assert_eq!(report.batches, want_report.batches, "{name}: W={workers}");
        }
    }
}

#[test]
fn error_policy_sheds_load_with_typed_errors_and_retries_converge() {
    // Under Backpressure::Error a full queue surfaces FeedError::Full
    // with the enqueued prefix; a producer that re-offers the remainder
    // converges to the same bit-identical result.
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(2)
        .eps(0.1)
        .deletions(true);
    let cfg = EngineConfig::new(2, 64)
        .queue_capacity(32)
        .backpressure(Backpressure::Error);
    let feeds: Vec<Vec<i64>> = vec![vec![1; 2_000], vec![-1; 1_500]];
    let slices: Vec<(usize, &[i64])> = feeds
        .iter()
        .enumerate()
        .map(|(s, v)| (s, v.as_slice()))
        .collect();
    let mut parted = ShardedEngine::counters(spec, cfg).unwrap();
    parted.run_parted(&slices).unwrap();

    let mut piped = ShardedEngine::counters(spec, cfg).unwrap();
    let mut full_errors = 0u64;
    let report = piped
        .run_pipelined(&[0, 1], |handles| {
            std::thread::scope(|s| {
                let errs: Vec<u64> = handles
                    .into_iter()
                    .zip(&feeds)
                    .map(|(mut handle, data)| {
                        s.spawn(move || {
                            let mut errs = 0u64;
                            let mut at = 0usize;
                            while at < data.len() {
                                match handle.push_batch(&data[at..]) {
                                    Ok(()) => at = data.len(),
                                    Err(FeedError::Full { pushed }) => {
                                        errs += 1;
                                        at += pushed;
                                        std::thread::yield_now();
                                    }
                                    Err(e) => panic!("unexpected feed error: {e}"),
                                }
                            }
                            errs
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect();
                full_errors = errs.iter().sum();
            });
        })
        .unwrap();
    assert_eq!(fingerprint(&piped), fingerprint(&parted));
    // 3.5k inputs through 32-slot queues: the policy must have fired.
    assert!(full_errors > 0, "Error policy never reported Full");
    assert!(report.ingest_stats.high_water <= 32);
    assert_eq!(report.ingest_stats.items, 3_500);
}

#[test]
fn push_after_close_and_deletion_pushes_are_typed_errors() {
    let spec = TrackerSpec::new(TrackerKind::CmyMonotone).k(2).eps(0.1);
    let mut engine = ShardedEngine::counters(spec, EngineConfig::new(2, 16).eps(0.1)).unwrap();
    let report = engine
        .run_pipelined(&[0, 1], |mut handles| {
            let mut a = handles.remove(0);
            let mut b = handles.remove(0);
            a.push_batch(&[1, 1, 1]).unwrap();
            a.close();
            assert_eq!(a.push(1), Err(FeedError::Closed { pushed: 0 }));
            assert_eq!(a.push_batch(&[1, 2]), Err(FeedError::Closed { pushed: 0 }));
            // CmyMonotone is insert-only: deletions bounce at the feed
            // boundary — the whole chunk validated before transport, so
            // nothing of the failing call reaches a replica.
            assert_eq!(
                b.push_batch(&[1, 1, -1, 1]),
                Err(FeedError::DeletionUnsupported { at: 2 })
            );
            assert_eq!(
                b.try_push(-1),
                Err(FeedError::DeletionUnsupported { at: 0 })
            );
            b.push(2).unwrap();
        })
        .unwrap();
    // Only the validated pushes landed: 3 at site 0, one `2` at site 1.
    assert_eq!(report.n, 3 + 1);
    assert_eq!(report.final_f, 3 + 2);
    assert_eq!(report.boundary_violations, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings of `push` and `push_batch` across feeds —
    /// a single feeder thread hopping between handles in a random order
    /// with random chunk sizes — land bit-identically on `run_parted`
    /// over the same per-site sequences: the queues are a transport, and
    /// the boundary cut depends only on each feed's sequence and the
    /// batch size, never on the push schedule.
    #[test]
    fn interleaved_push_schedules_are_bit_identical_to_parted(
        n in 50usize..900,
        k in 1usize..4,
        shards in 1usize..5,
        batch in 1usize..80,
        seed in 0u64..100_000,
    ) {
        let mut s = seed ^ 0xd5ad;
        let deltas: Vec<i64> = (0..n)
            .map(|_| if lcg(&mut s).is_multiple_of(3) { -1 } else { 1 })
            .collect();
        let mut feeds: Vec<Vec<i64>> = (0..k).map(|_| Vec::new()).collect();
        for &d in &deltas {
            feeds[lcg(&mut s) as usize % k].push(d);
        }
        let slices: Vec<(usize, &[i64])> = feeds
            .iter()
            .enumerate()
            .map(|(site, v)| (site, v.as_slice()))
            .collect();
        let sites: Vec<usize> = (0..k).collect();
        let spec = TrackerSpec::new(TrackerKind::Deterministic)
            .k(k)
            .eps(0.3)
            .deletions(true);
        // Capacity covers any feed whole, so the single-threaded random
        // schedule can never block against the round-ordered consumers.
        let cfg = EngineConfig::new(shards, batch).eps(0.3).queue_capacity(n + 1);

        let mut parted = ShardedEngine::counters(spec, cfg).unwrap();
        let parted_report = parted.run_parted(&slices).unwrap();

        let mut piped = ShardedEngine::counters(spec, cfg).unwrap();
        let mut sched = seed ^ 0xface;
        let report = piped
            .run_pipelined(&sites, |mut handles| {
                let mut at = vec![0usize; k];
                loop {
                    let open: Vec<usize> =
                        (0..k).filter(|&i| at[i] < feeds[i].len()).collect();
                    let Some(&i) = open.get(lcg(&mut sched) as usize % open.len().max(1))
                    else {
                        break;
                    };
                    let take = (lcg(&mut sched) as usize % 7 + 1).min(feeds[i].len() - at[i]);
                    if take == 1 && lcg(&mut sched).is_multiple_of(2) {
                        handles[i].push(feeds[i][at[i]]).unwrap();
                    } else {
                        handles[i].push_batch(&feeds[i][at[i]..at[i] + take]).unwrap();
                    }
                    at[i] += take;
                }
            })
            .unwrap();
        prop_assert_eq!(piped.estimate(), parted.estimate());
        prop_assert_eq!(piped.shard_estimates(), parted.shard_estimates());
        prop_assert_eq!(piped.tracker_stats(), parted.tracker_stats());
        prop_assert_eq!(piped.merge_stats(), parted.merge_stats());
        prop_assert_eq!(report.n, parted_report.n);
        prop_assert_eq!(report.batches, parted_report.batches);
        prop_assert_eq!(report.final_f, parted_report.final_f);
        prop_assert_eq!(report.ingest_stats.items, n as u64);
    }
}

#[test]
fn zero_capacity_queues_are_rejected_at_config_validation() {
    let spec = TrackerSpec::new(TrackerKind::Deterministic).k(2).eps(0.1);
    let err =
        ShardedEngine::counters(spec, EngineConfig::new(2, 16).queue_capacity(0)).unwrap_err();
    assert_eq!(err, EngineError::ZeroQueueCapacity);
    assert!(err.to_string().contains("capacity"));
    // Any positive capacity is fine, even 1 (it just maximizes stalls).
    let mut one =
        ShardedEngine::counters(spec, EngineConfig::new(2, 8).queue_capacity(1).eps(0.1)).unwrap();
    let report = one
        .run_pipelined(&[0, 1], |handles| {
            std::thread::scope(|s| {
                for mut handle in handles {
                    s.spawn(move || handle.push_batch(&[1i64; 100]).unwrap());
                }
            });
        })
        .unwrap();
    assert_eq!(report.final_f, 200);
    assert!(report.ingest_stats.high_water <= 1);
    // A 100-input chunk can never land in one shot through a 1-slot
    // queue, so the Block policy is *guaranteed* to have stalled.
    assert!(
        report.ingest_stats.push_stalls >= 2,
        "1-slot queues must stall every chunk push: {:?}",
        report.ingest_stats
    );
}
