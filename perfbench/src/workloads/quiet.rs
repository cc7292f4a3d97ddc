//! `quiet-pipelined`: a nearly-monotone stream (Theorem 2.1's class) on
//! `k = 8` sites through `ShardedEngine::run_pipelined`, in segments of
//! whole batches per feed, with the engine's state recorded into a
//! `CheckpointStore` between segments.
//!
//! This is the paper's favourable low-variability case: absorb kernels,
//! run compression, the ingest queues and identity-link delta
//! checkpoints carry the cost, and merge traffic is near zero. A
//! pre-generated block is replayed cyclically to sustain a multi-second
//! run without gigabytes of input.

use super::{
    absorb_probe, capture_probe, check, consolidate_probe, counter_spec, ctx, delta_probe,
    driver_probe, encode_probe, ledgers, report_absorb, variability, Audit, Block, Clock, Counts,
    Setup, EPS, SETUP_REPS, SETUP_SECONDS, SHARDS, WORKERS,
};
use crate::trace::{self, Tracer};
use crate::{Measured, Params, Scale};
use dsv_core::api::TrackerSpec;
use dsv_engine::{
    CheckpointStore, CounterEngine, DeltaStats, EngineCheckpoint, EngineConfig, ShardedEngine,
};
use dsv_gen::{DeltaGen, NearlyMonotoneGen};
use std::time::Instant;

const K: usize = 8;
/// Theorem 2.1's β: total deletions never exceed `f`.
const BETA: f64 = 1.0;
/// Target deletion probability: a low deletion rate.
const DELETE_PROB: f64 = 0.05;

struct Size {
    batch: usize,
    segment_rounds: usize,
    measure_segments: usize,
    block_rounds: usize,
    driver_rounds: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        // 4.2 M inputs (32 MiB) per block: two segments of 32 rounds,
        // thousands of latency samples a run. Segments this long keep
        // the per-call thread start-up and the checkpoint a small share
        // of a segment, which keeps the figures steady on a loaded host.
        Scale::Full => Size {
            batch: 8192,
            segment_rounds: 32,
            measure_segments: 128,
            block_rounds: 64,
            driver_rounds: 16,
        },
        Scale::Tiny => Size {
            batch: 64,
            segment_rounds: 4,
            measure_segments: 4,
            block_rounds: 8,
            driver_rounds: 2,
        },
    }
}

/// The traced pass's state at its measure point.
struct MeasureImage {
    capture_ms: f64,
    image: EngineCheckpoint,
    stats: DeltaStats,
}

struct Pass {
    engine: CounterEngine,
    store: CheckpointStore,
    /// Taken in the traced pass only.
    at: Option<MeasureImage>,
    clock: Clock,
    /// Per segment: `run_pipelined` alone.
    call_ns: Vec<u64>,
    audit: Audit,
    final_f: i64,
    counts: Counts,
}

impl Pass {
    fn segments(&self) -> usize {
        self.clock.calls()
    }

    /// Ground truth matches the input, and the store's latest boundary
    /// materializes to the engine's own checkpoint.
    fn check(&mut self, sz: &Size, block: &Block) -> Result<(), String> {
        let expected = block.prefix_sum(self.segments() * sz.segment_rounds);
        check(self.final_f == expected, || {
            format!("quiet: final f {} != input sum {expected}", self.final_f)
        })?;
        let n = self.clock.total_updates();
        check(self.engine.time() == n, || {
            format!("quiet: engine time {} != {n} inputs", self.engine.time())
        })?;
        let latest = self
            .store
            .materialize_latest()
            .map_err(ctx("materialize"))?;
        let now = self.engine.checkpoint().map_err(ctx("checkpoint"))?;
        check(latest == now, || {
            "quiet: materialize_latest() != checkpoint()".into()
        })
    }
}

fn pass(
    (mut engine, mut store): (CounterEngine, CheckpointStore),
    block: &Block,
    sz: &Size,
    p: &Params,
    trace: bool,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let sites: Vec<usize> = (0..K).collect();
    let batch = block.batch();
    let seg_updates = (sz.segment_rounds * block.updates_per_round()) as u64;
    let mut clock = Clock::start(p.seconds, trace, sz.measure_segments);
    let (mut call_ns, mut audit, mut counts) = (Vec::new(), Audit::default(), Counts::default());
    let mut final_f;
    let mut at = None;
    loop {
        let slices = block.slices(clock.calls() * sz.segment_rounds, sz.segment_rounds);
        let mut pushed = Ok(());
        let t = Instant::now();
        let open = tr.enter("engine.run_pipelined");
        let rep = engine
            .run_pipelined(&sites, |mut feeds| {
                // One span for the whole feeder: nearly all of it is
                // time inside `push_batch`.
                let feeding = tr.enter("engine.ingest.feed");
                'rounds: for r in 0..sz.segment_rounds {
                    for (feed, (_, inputs)) in feeds.iter_mut().zip(&slices) {
                        let chunk = &inputs[r * batch..(r + 1) * batch];
                        if let Err(e) = feed.push_batch(chunk) {
                            pushed = Err(e);
                            break 'rounds;
                        }
                    }
                }
                tr.exit(feeding);
            })
            .map_err(ctx("run_pipelined"))?;
        tr.exit(open);
        pushed.map_err(ctx("push_batch"))?;
        call_ns.push(t.elapsed().as_nanos() as u64);
        let open = tr.enter("engine.checkpoint_into");
        engine
            .checkpoint_into(&mut store)
            .map_err(ctx("checkpoint_into"))?;
        tr.exit(open);
        clock.round(t.elapsed().as_nanos() as f64 / sz.segment_rounds as f64);
        audit.add(&rep);
        final_f = rep.final_f;
        if clock.call(seg_updates) {
            let (t, m) = ledgers(&engine);
            counts = Counts::read(t + m, clock.total_updates());
            if tr.enabled() {
                let (capture_ms, image) = capture_probe(&mut engine, tr)?;
                let stats = *store.stats();
                at = Some(MeasureImage {
                    capture_ms,
                    image,
                    stats,
                });
            }
        }
        if clock.done() {
            break;
        }
    }
    Ok(Pass {
        engine,
        store,
        at,
        clock,
        call_ns,
        audit,
        final_f,
        counts,
    })
}

pub(crate) fn run(p: &Params, trace: bool) -> Result<Measured, String> {
    let sz = size(p.scale);
    let spec = counter_spec(K, p.seed);
    let cfg = EngineConfig::new(SHARDS, sz.batch)
        .workers(WORKERS)
        .eps(EPS);
    let build = || {
        ShardedEngine::counters(spec, cfg)
            .map(|e| (e, CheckpointStore::new(cfg.delta_rebase_period())))
    };

    // The first burst of constructions is timed before the input is
    // generated.
    let mut setup = Setup::new(build, SETUP_REPS, 1, SETUP_SECONDS);
    let built = setup.burst()?;
    let total = sz.block_rounds * K * sz.batch;
    let global = NearlyMonotoneGen::new(p.seed, BETA, DELETE_PROB).deltas(total as u64);
    let block = Block::deal(&global, K, sz.batch);
    drop(global);

    let mut out = Measured::default();
    let mut a = pass(built, &block, &sz, p, trace, &mut Tracer::off())?;
    a.check(&sz, &block)?;
    out.details.push(("block_updates", total.to_string()));
    out.details.push(("segments", a.segments().to_string()));

    if !trace {
        let v = &mut out.values;
        setup.burst()?;
        v.set("setup_s", setup.median_s());
        a.clock.report(v, &mut out.details);
        a.counts.report(v);
        out.attempted = a.audit.boundaries + 2;
        out.failed = a.audit.violations;
        return Ok(out);
    }

    let untraced = a.clock.throughput();
    a.clock.report_wall(&mut out.values, &mut out.details);
    drop(a);
    let mut tr = Tracer::on();
    let built = setup.burst()?;
    let mut b = pass(built, &block, &sz, p, trace, &mut tr)?;
    b.check(&sz, &block)?;
    traced_probes(spec, &block, &sz, &mut b, &mut out, &mut tr)?;
    out.values
        .set("trace.overhead_frac", 1.0 - b.clock.throughput() / untraced);
    out.attempted = b.audit.boundaries + 5;
    out.failed = b.audit.violations;
    out.spans = tr.spans().to_vec();
    Ok(out)
}

fn traced_probes(
    spec: TrackerSpec,
    block: &Block,
    sz: &Size,
    b: &mut Pass,
    out: &mut Measured,
    tr: &mut Tracer,
) -> Result<(), String> {
    let v = &mut out.values;
    let n = b.clock.total_updates() as f64;
    let spans = tr.spans().to_vec();

    let ingest = b.engine.ingest_stats();
    let push_ns = trace::total_ns(&spans, "engine.ingest.feed");
    v.set(
        "engine.ingest.push_ns_per_upd",
        push_ns as f64 / ingest.items.max(1) as f64,
    );
    v.set(
        "engine.ingest.push_stalls_per_kframe",
        ingest.push_stalls as f64 * 1e3 / ingest.frames.max(1) as f64,
    );
    v.set(
        "engine.ingest.pop_waits_per_kround",
        ingest.pop_waits as f64 * 1e3 / b.audit.boundaries.max(1) as f64,
    );
    v.set(
        "engine.ingest.mean_occupancy",
        ingest.occupancy_sum as f64 / ingest.occupancy_samples.max(1) as f64,
    );
    v.set("engine.ingest.high_water", ingest.high_water as f64);

    let probe = absorb_probe(spec, block, b.segments(), sz.segment_rounds, tr)?;
    let shard_estimates = b.engine.shard_estimates();
    check(probe.estimates == shard_estimates, || {
        format!(
            "quiet: replicas {:?} != shard estimates {shard_estimates:?}",
            probe.estimates
        )
    })?;
    report_absorb(v, &probe, &b.call_ns, sz.segment_rounds);
    consolidate_probe(block, v, tr);
    driver_probe(spec, block, sz.driver_rounds, v, tr)?;
    let (t, m) = ledgers(&b.engine);
    let measured = sz.measure_segments * sz.segment_rounds;
    variability(block, measured, b.counts.messages, v);
    v.set("core.tracker.msgs_per_kupd", t as f64 * 1e3 / n);
    v.set("engine.merge.msgs_per_kupd", m as f64 * 1e3 / n);
    b.audit.report(v);
    let at = b.at.as_ref().ok_or("quiet: no measure-point image")?;
    v.set("engine.checkpoint.capture_ms", at.capture_ms);
    encode_probe(&at.image, v, tr);
    delta_probe(&at.image, &b.store, &at.stats, v, tr)
}
