//! `remote-tcp`: `RemoteEngine::counters` with `RemoteConfig::default()`
//! — TCP loopback, two thread workers — over a moderate-drift walk on
//! `k = 4` sites, with `checkpoint_every` commits. The input runs in
//! equal `run_parted` segments, and one segment ([`FAULT_AT`]) carries
//! a `FaultPlan` worker kill.
//!
//! The only workload with frame assembly, socket I/O, remote checkpoint
//! pulls and failover replay on the critical path. Every run is checked
//! bit-identical to an in-process `ShardedEngine` over the same calls.

use super::{
    absorb_probe, check, counter_spec, ctx, driver_probe, encode_probe, report_overhead,
    variability, Audit, Block, Clock, Counts, Setup, EPS, SHARDS, WORKERS,
};
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::{stats, Measured, Params, Scale};
use dsv_core::api::TrackerSpec;
use dsv_engine::remote::{FaultKind, FaultPlan, FaultPoint, RemoteConfig, RemoteEngine};
use dsv_engine::{EngineConfig, EngineReport, ShardedEngine};
use dsv_gen::{DeltaGen, WalkGen};
use std::time::Instant;

const K: usize = 4;
/// Drift of the walk: `P(+1) = (1 + MU) / 2`.
const MU: f64 = 0.5;
/// The segment that carries the worker kill. One kill per engine keeps
/// every run inside `RemoteConfig::default()`'s failover budget.
const FAULT_AT: usize = 2;
/// Rounds per checkpoint commit: one commit per segment.
const COMMIT_EVERY: u64 = 2;

struct Size {
    batch: usize,
    segment_rounds: usize,
    measure_segments: usize,
    /// Timed spawns for `setup_s`.
    spawns: usize,
    block_rounds: usize,
    driver_rounds: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        // 4 M inputs (32 MiB) per block: 8 segments of 2 rounds. A round
        // carries 256 Ki inputs, so the CPU work of a round outweighs
        // the wake-ups around its delayed-ACK waits, whose cost follows
        // what else the host runs.
        Scale::Full => Size {
            batch: 65_536,
            segment_rounds: 2,
            measure_segments: 16,
            spawns: 5,
            block_rounds: 16,
            driver_rounds: 16,
        },
        Scale::Tiny => Size {
            batch: 50,
            segment_rounds: 2,
            measure_segments: 2,
            spawns: 2,
            block_rounds: 16,
            driver_rounds: 16,
        },
    }
}

/// One `run_parted` call: its first global round and round count.
#[derive(Debug, Clone, Copy)]
struct Call {
    first: usize,
    rounds: usize,
}

struct Pass {
    engine: RemoteEngine<i64>,
    /// Every call made, in order (the pull probes' included).
    calls: Vec<Call>,
    /// The timed loop: one call per segment.
    clock: Clock,
    segment_ns: Vec<u64>,
    faulted: Vec<bool>,
    audit: Audit,
    counts: Counts,
    /// Shard estimates right after the timed loop.
    shard_estimates: Vec<i64>,
}

impl Pass {
    fn segments(&self) -> usize {
        self.clock.calls()
    }

    fn split_ns(&self, faulted: bool) -> Vec<f64> {
        self.segment_ns
            .iter()
            .zip(&self.faulted)
            .filter(|(_, &f)| f == faulted)
            .map(|(&ns, _)| ns as f64)
            .collect()
    }
}

fn call(engine: &mut RemoteEngine<i64>, block: &Block, c: Call) -> Result<EngineReport, String> {
    engine
        .run_parted(&block.slices(c.first, c.rounds))
        .map_err(ctx("remote run_parted"))
}

fn pass(
    mut engine: RemoteEngine<i64>,
    block: &Block,
    sz: &Size,
    p: &Params,
    trace: bool,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let r = sz.segment_rounds;
    let seg_updates = (r * block.updates_per_round()) as u64;
    // At least one faulted segment in every pass.
    let mut clock = Clock::start(p.seconds, trace, sz.measure_segments.max(FAULT_AT + 1));
    let (mut calls, mut segment_ns, mut faulted) = (Vec::new(), Vec::new(), Vec::new());
    let (mut audit, mut counts) = (Audit::default(), Counts::default());
    loop {
        let seg = calls.len();
        let c = Call {
            first: seg * r,
            rounds: r,
        };
        let kill = seg == FAULT_AT;
        if kill {
            // Worker 1 dies after the coordinator sends the last round.
            let at = FaultPoint::MidRound((r - 1) as u64);
            engine.set_fault_plan(FaultPlan::new().inject(at, 1, FaultKind::Kill));
        }
        let name = if kill {
            "engine.remote.faulted_segment"
        } else {
            "engine.remote.segment"
        };
        let open = tr.enter(name);
        let t = Instant::now();
        let rep = call(&mut engine, block, c)?;
        let ns = t.elapsed().as_nanos() as u64;
        tr.exit(open);
        audit.add(&rep);
        calls.push(c);
        faulted.push(kill);
        segment_ns.push(ns);
        if !kill {
            clock.round(ns as f64 / r as f64);
        }
        if clock.call(seg_updates) {
            let (t, m) = messages(&engine)?;
            counts = Counts::read(t + m, clock.total_updates());
        }
        if clock.done() {
            break;
        }
    }
    let shard_estimates = engine.shard_estimates().map_err(ctx("shard estimates"))?;
    Ok(Pass {
        engine,
        calls,
        clock,
        segment_ns,
        faulted,
        audit,
        counts,
        shard_estimates,
    })
}

/// Replay every call on an in-process engine and require the remote
/// engine to be bit-identical: estimate, both ledgers, audits, shard
/// estimates, and the checkpoint image.
fn check_against_local(
    spec: TrackerSpec,
    cfg: EngineConfig,
    block: &Block,
    b: &mut Pass,
) -> Result<(), String> {
    let mut local = ShardedEngine::counters(spec, cfg).map_err(ctx("local engine"))?;
    let mut violations = 0;
    for &c in &b.calls {
        let rep = local
            .run_parted(&block.slices(c.first, c.rounds))
            .map_err(ctx("local run_parted"))?;
        violations += rep.boundary_violations;
    }
    let remote = &mut b.engine;
    check(remote.estimate() == local.estimate(), || {
        format!(
            "remote: estimate {} != in-process {}",
            remote.estimate(),
            local.estimate()
        )
    })?;
    let tracker = remote
        .tracker_stats()
        .map_err(ctx("remote tracker stats"))?;
    check(tracker == local.tracker_stats(), || {
        "remote: tracker ledger differs".into()
    })?;
    check(remote.merge_stats() == local.merge_stats(), || {
        "remote: merge ledger differs".into()
    })?;
    let shards = remote
        .shard_estimates()
        .map_err(ctx("remote shard estimates"))?;
    check(shards == local.shard_estimates(), || {
        "remote: shard estimates differ".into()
    })?;
    let image = remote.checkpoint().map_err(ctx("remote checkpoint"))?;
    check(
        image == local.checkpoint().map_err(ctx("local checkpoint"))?,
        || "remote: checkpoint image differs".into(),
    )?;
    check(violations == b.audit.violations, || {
        format!(
            "remote: {} violations, in-process {violations}",
            b.audit.violations
        )
    })?;
    let kills = b.faulted.iter().filter(|&&f| f).count();
    check(remote.events().len() == kills, || {
        format!(
            "remote: {} failovers for {kills} kills",
            remote.events().len()
        )
    })
}

fn messages(engine: &RemoteEngine<i64>) -> Result<(u64, u64), String> {
    let tracker = engine.tracker_stats().map_err(ctx("tracker stats"))?;
    Ok((
        tracker.total_messages(),
        engine.merge_stats().total_messages(),
    ))
}

pub(crate) fn run(p: &Params, trace: bool) -> Result<Measured, String> {
    let sz = size(p.scale);
    let spec = counter_spec(K, p.seed);
    let cfg = EngineConfig::new(SHARDS, sz.batch)
        .workers(WORKERS)
        .eps(EPS)
        .checkpoint_every(COMMIT_EVERY);
    let build = || RemoteEngine::counters(spec, cfg, RemoteConfig::default());

    // The first burst of spawns is timed before the input is generated.
    let mut setup = Setup::new(build, 1, sz.spawns, 0.0);
    let engine = setup.burst()?;
    let total = sz.block_rounds * K * sz.batch;
    let global = WalkGen::biased(p.seed, MU).deltas(total as u64);
    let block = Block::deal(&global, K, sz.batch);
    drop(global);

    let mut out = Measured::default();
    let mut a = pass(engine, &block, &sz, p, trace, &mut Tracer::off())?;
    check_against_local(spec, cfg, &block, &mut a)?;
    out.details.push(("segments", a.segments().to_string()));
    out.details
        .push(("failovers", a.engine.events().len().to_string()));
    let untraced = a.clock.throughput();
    if trace {
        a.clock.report_wall(&mut out.values, &mut out.details);
    }

    if !trace {
        let v = &mut out.values;
        setup.burst()?;
        v.set("setup_s", setup.median_s());
        a.clock.report(v, &mut out.details);
        a.counts.report(v);
        out.attempted = a.audit.boundaries + 5;
        out.failed = a.audit.violations;
        return Ok(out);
    }

    drop(a);
    let mut tr = Tracer::on();
    let engine = setup.burst()?;
    let mut b = pass(engine, &block, &sz, p, trace, &mut tr)?;
    let pull = pull_probe(&mut b, &block, &sz, &mut tr)?;
    check_against_local(spec, cfg, &block, &mut b)?;
    let v = &mut out.values;
    v.set("engine.remote.spawn_ms", setup.median_s() * 1e3);
    v.set("engine.remote.ckpt_pull_ms", pull);
    traced_probes(spec, &block, &sz, &mut b, v, &mut tr)?;
    v.set("trace.overhead_frac", 1.0 - b.clock.throughput() / untraced);
    out.attempted = b.audit.boundaries + 5;
    out.failed = b.audit.violations;
    out.spans = tr.spans().to_vec();
    Ok(out)
}

/// The cost of one checkpoint commit, from calls of one and two rounds.
/// A call ends with a commit, and an auto-commit at its last boundary
/// leaves that commit nothing to pull, so each call commits once: `T(1) = round + commit` and `T(2) = 2·round + commit`, and
/// the commit costs `2·T(1) − T(2)` (medians of five calls each).
fn pull_probe(b: &mut Pass, block: &Block, sz: &Size, tr: &mut Tracer) -> Result<f64, String> {
    let mut next = b.segments() * sz.segment_rounds;
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (rounds, out) in [(1, &mut one), (2, &mut two)] {
            if next % block.rounds() + rounds > block.rounds() {
                next = next.div_ceil(block.rounds()) * block.rounds();
            }
            let c = Call {
                first: next,
                rounds,
            };
            let open = tr.enter("engine.remote.pull_probe");
            let t = Instant::now();
            let rep = call(&mut b.engine, block, c)?;
            out.push(t.elapsed().as_secs_f64() * 1e3);
            tr.exit(open);
            b.audit.add(&rep);
            b.calls.push(c);
            next += rounds;
        }
    }
    Ok(2.0 * stats::median(&one) - stats::median(&two))
}

fn traced_probes(
    spec: TrackerSpec,
    block: &Block,
    sz: &Size,
    b: &mut Pass,
    v: &mut Values,
    tr: &mut Tracer,
) -> Result<(), String> {
    let r = sz.segment_rounds;
    let probe = absorb_probe(spec, block, b.segments(), r, tr)?;
    check(probe.estimates == b.shard_estimates, || {
        format!(
            "remote: replicas {:?} != shard estimates {:?}",
            probe.estimates, b.shard_estimates
        )
    })?;
    v.set(
        "core.absorb.ns_per_upd",
        probe.total_ns as f64 / probe.updates as f64,
    );
    let clean: Vec<(u64, u64)> = b
        .segment_ns
        .iter()
        .zip(&probe.call_absorb_ns)
        .zip(&b.faulted)
        .filter(|(_, &f)| !f)
        .map(|((&call, &absorb), _)| (call, absorb))
        .collect();
    let (calls, absorbs): (Vec<u64>, Vec<u64>) = clean.into_iter().unzip();
    report_overhead(v, &absorbs, &calls, r);
    driver_probe(spec, block, sz.driver_rounds, v, tr)?;

    // The ledgers cover every call, the pull probe's included.
    let (t, m) = messages(&b.engine)?;
    let all_rounds: usize = b.calls.iter().map(|c| c.rounds).sum();
    let n = (all_rounds * block.updates_per_round()) as f64;
    variability(block, sz.measure_segments * r, b.counts.messages, v);
    v.set("core.tracker.msgs_per_kupd", t as f64 * 1e3 / n);
    v.set("engine.merge.msgs_per_kupd", m as f64 * 1e3 / n);
    b.audit.report(v);

    let clean_ms: Vec<f64> = b.split_ns(false).iter().map(|ns| ns / 1e6).collect();
    let median_clean = stats::median(&clean_ms);
    v.set("engine.remote.round_ms", median_clean / r as f64);
    let recovery: Vec<f64> = b
        .split_ns(true)
        .iter()
        .map(|ns| ns / 1e6 - median_clean)
        .collect();
    let events = b.engine.events();
    if recovery.is_empty() || events.is_empty() {
        return Err("remote: the traced pass ran no faulted segment; give it more seconds".into());
    }
    v.set("engine.remote.recovery_ms", stats::median(&recovery));
    let replayed: u64 = events.iter().map(|e| e.replayed_rounds).sum();
    v.set(
        "engine.remote.replayed_rounds",
        replayed as f64 / events.len() as f64,
    );

    let ckpt = b.engine.checkpoint_stats();
    let commits = (ckpt.total_messages() as f64 / SHARDS as f64).max(1.0);
    v.set(
        "engine.remote.ckpt_bytes_per_commit",
        ckpt.total_words() as f64 * 8.0 / commits,
    );
    let wire = b.engine.wire_stats();
    v.set(
        "net.wire.frames_per_round",
        (wire.frames_sent + wire.frames_received) as f64 / all_rounds as f64,
    );
    v.set("net.wire.bytes_per_upd", wire.bytes_sent as f64 / n);

    let open = tr.enter("engine.checkpoint.capture");
    let started = Instant::now();
    let image = b.engine.checkpoint().map_err(ctx("remote checkpoint"))?;
    v.set(
        "engine.checkpoint.capture_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    tr.exit(open);
    encode_probe(&image, v, tr);
    Ok(())
}
