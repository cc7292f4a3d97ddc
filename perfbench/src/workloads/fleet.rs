//! `fleet-zipf`: a `CounterFleet` that admits every key once, then takes
//! Zipf-skewed bursty traffic with a `top_k(10)` read at a fixed boundary
//! cadence, and ends with `checkpoint()` and `checkpoint_delta`.
//!
//! The only workload on the key index, slab admission, hot-cache
//! evict/restore, per-key audits and the `DSVF` codec, with reads beside
//! writes. Cold admission is timed apart from the steady phase.

use super::{check, ctx, Clock, Counts, Setup, EPS, SETUP_REPS, SETUP_SECONDS, SHARDS, WORKERS};
use crate::metrics::Values;
use crate::trace::{self, Tracer};
use crate::{stats, Measured, Params, Scale};
use dsv_core::api::{Tracker, TrackerKind, TrackerSpec};
use dsv_engine::{CounterFleet, EngineConfig, FleetCheckpoint, FleetMemory};
use dsv_gen::ZipfSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.1;
/// Updates per burst: one key at a time.
const BURST: u32 = 32;
/// A `top_k(10)` read every this many boundaries.
const TOPK_EVERY: u64 = 16;
/// Boundaries of traffic between the closing checkpoint and its delta.
const DELTA_BOUNDARIES: u64 = 8;

struct Size {
    keys: u64,
    batch: usize,
    measure_boundaries: usize,
    bursts: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        // 2^18 keys; 2^20 bursts (16 MiB) = 33.5 M updates per block.
        Scale::Full => Size {
            keys: 1 << 18,
            batch: 16_384,
            measure_boundaries: 512,
            bursts: 1 << 20,
        },
        Scale::Tiny => Size {
            keys: 1 << 10,
            batch: 256,
            measure_boundaries: 4,
            bursts: 1 << 9,
        },
    }
}

/// The pre-generated inputs: cold admission order, and a block of
/// `(key, +1 × BURST)` bursts replayed cyclically.
struct Inputs {
    cold: Vec<u64>,
    bursts: Vec<u64>,
}

impl Inputs {
    fn new(seed: u64, sz: &Size) -> Inputs {
        // A stride coprime to the power-of-two key count visits every key.
        let stride = 1_000_003u64;
        let cold = (0..sz.keys)
            .map(|i| i.wrapping_mul(stride) % sz.keys)
            .collect();
        let zipf = ZipfSampler::new(sz.keys as usize, ZIPF_S);
        let mut rng = SmallRng::seed_from_u64(seed);
        let bursts = (0..sz.bursts).map(|_| zipf.sample(&mut rng)).collect();
        Inputs { cold, bursts }
    }

    /// Key of the `i`-th update of the steady stream.
    fn key(&self, i: u64) -> u64 {
        self.bursts[(i / BURST as u64) as usize % self.bursts.len()]
    }
}

struct Pass {
    fleet: CounterFleet,
    cold_secs: f64,
    /// The steady phase: one call per boundary.
    clock: Clock,
    /// Steady updates consumed, the closing delta's tail included.
    steady: u64,
    /// Steady-phase messages and inputs at the measure point.
    counts: Counts,
    /// Memory accounting at the measure point.
    memory: FleetMemory,
    topk_ns: Vec<f64>,
    checkpoint_ms: f64,
    delta_ms: f64,
    delta_bytes: usize,
}

fn pass(
    mut fleet: CounterFleet,
    inputs: &Inputs,
    sz: &Size,
    p: &Params,
    trace: bool,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let open = tr.enter("engine.fleet.cold");
    let started = Instant::now();
    for &key in &inputs.cold {
        fleet.update(key, 1).map_err(ctx("cold update"))?;
    }
    fleet.flush().map_err(ctx("cold flush"))?;
    let cold_secs = started.elapsed().as_secs_f64();
    tr.exit(open);

    let msgs_before = fleet.comm_stats().total_messages();
    let batch = sz.batch as u64;
    let (mut topk_ns, mut counts) = (Vec::new(), Counts::default());
    let mut memory = FleetMemory::default();
    let mut i = 0u64;
    let mut clock = Clock::start(p.seconds, trace, sz.measure_boundaries);
    let mut batch_start = Instant::now();
    loop {
        // The update completing a batch cuts the boundary inside
        // `update`; its span is the boundary's flush.
        let key = inputs.key(i);
        let cuts = (i + 1).is_multiple_of(batch);
        let open = tr.enter_if(cuts, "engine.fleet.flush");
        fleet.update(key, 1).map_err(ctx("update"))?;
        tr.exit(open);
        i += 1;
        if cuts {
            clock.round(batch_start.elapsed().as_nanos() as f64);
            if fleet.boundaries().is_multiple_of(TOPK_EVERY) {
                let open = tr.enter("engine.fleet.top_k");
                let t = Instant::now();
                std::hint::black_box(fleet.top_k(10));
                topk_ns.push(t.elapsed().as_nanos() as f64);
                tr.exit(open);
            }
            if clock.call(batch) {
                let msgs = fleet.comm_stats().total_messages() - msgs_before;
                counts = Counts::read(msgs, i);
                memory = fleet.memory();
            }
            if clock.done() {
                break;
            }
            batch_start = Instant::now();
        }
    }

    let open = tr.enter("engine.fleet.checkpoint");
    let t = Instant::now();
    let parent = fleet.checkpoint().map_err(ctx("fleet checkpoint"))?;
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.exit(open);
    for _ in 0..DELTA_BOUNDARIES * batch {
        fleet.update(inputs.key(i), 1).map_err(ctx("update"))?;
        i += 1;
    }
    let open = tr.enter("engine.fleet.checkpoint_delta");
    let t = Instant::now();
    let delta = fleet
        .checkpoint_delta(&parent)
        .map_err(ctx("checkpoint_delta"))?;
    let delta_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.exit(open);
    let rebuilt: FleetCheckpoint = delta.apply(&parent).map_err(ctx("delta apply"))?;
    drop(parent);
    let child = fleet.checkpoint().map_err(ctx("fleet checkpoint"))?;
    check(rebuilt == child, || {
        "fleet: delta.apply(parent) != checkpoint()".into()
    })?;
    Ok(Pass {
        fleet,
        cold_secs,
        clock,
        steady: i,
        counts,
        memory,
        topk_ns,
        checkpoint_ms,
        delta_ms,
        delta_bytes: delta.to_bytes().len(),
    })
}

/// Spot keys — the hottest, a mid-rank key, the coldest — must equal
/// standalone twin trackers fed the same substreams.
fn check_twins(spec: TrackerSpec, inputs: &Inputs, b: &Pass, sz: &Size) -> Result<u64, String> {
    let spot = [0, sz.keys / 64, sz.keys - 1];
    let mut twins = spot
        .iter()
        .map(|_| spec.build())
        .collect::<Result<Vec<_>, _>>()
        .map_err(ctx("twin build"))?;
    for key in inputs
        .cold
        .iter()
        .copied()
        .chain((0..b.steady).map(|i| inputs.key(i)))
    {
        if let Some(j) = spot.iter().position(|&s| s == key) {
            twins[j].step(0, 1);
        }
    }
    for (key, twin) in spot.iter().zip(&twins) {
        let got = b.fleet.estimate(*key);
        check(got == Some(twin.estimate()), || {
            format!(
                "fleet: key {key} estimate {got:?} != twin {}",
                twin.estimate()
            )
        })?;
    }
    Ok(spot.len() as u64)
}

pub(crate) fn run(p: &Params, trace: bool) -> Result<Measured, String> {
    let sz = size(p.scale);
    let spec = TrackerSpec::new(TrackerKind::Deterministic)
        .k(1)
        .eps(EPS)
        .seed(p.seed);
    let cfg = EngineConfig::new(SHARDS, sz.batch)
        .workers(WORKERS)
        .eps(EPS);
    let build = || CounterFleet::counters(spec, cfg);

    // The first burst of constructions is timed before the input is
    // generated.
    let mut setup = Setup::new(build, SETUP_REPS, 1, SETUP_SECONDS);
    let fleet = setup.burst()?;
    let inputs = Inputs::new(p.seed, &sz);

    let mut out = Measured::default();
    let a = pass(fleet, &inputs, &sz, p, trace, &mut Tracer::off())?;
    let spots = check_twins(spec, &inputs, &a, &sz)?;
    out.details.push(("keys", sz.keys.to_string()));
    out.details
        .push(("steady_updates", a.clock.total_updates().to_string()));

    if !trace {
        let v = &mut out.values;
        setup.burst()?;
        v.set("setup_s", setup.median_s());
        a.clock.report(v, &mut out.details);
        a.counts.report(v);
        account(&mut out, &a, spots);
        return Ok(out);
    }

    let untraced = a.clock.throughput();
    a.clock.report_wall(&mut out.values, &mut out.details);
    drop(a);
    let mut tr = Tracer::on();
    let fleet = setup.burst()?;
    let b = pass(fleet, &inputs, &sz, p, trace, &mut tr)?;
    let spots = check_twins(spec, &inputs, &b, &sz)?;
    let v = &mut out.values;
    report_layers(v, &b, &sz, &tr);
    v.set("trace.overhead_frac", 1.0 - b.clock.throughput() / untraced);
    account(&mut out, &b, spots);
    out.spans = tr.spans().to_vec();
    Ok(out)
}

/// Operations: every boundary (each audits its touched keys and the
/// aggregate), every `top_k` read, every spot-key comparison. Failures:
/// per-key and aggregate ε-violations.
fn account(out: &mut Measured, pass: &Pass, spots: u64) {
    out.attempted = pass.fleet.boundaries() + pass.topk_ns.len() as u64 + spots;
    out.failed = pass.fleet.key_violations() + pass.fleet.aggregate_violations();
}

fn report_layers(v: &mut Values, b: &Pass, sz: &Size, tr: &Tracer) {
    let ms = |ns: &[u64]| ns.iter().map(|&x| x as f64 / 1e6).collect::<Vec<_>>();
    let flush_ms = ms(&trace::durations(tr.spans(), "engine.fleet.flush"));
    v.set(
        "engine.fleet.cold_ns_per_key",
        b.cold_secs * 1e9 / sz.keys as f64,
    );
    v.set(
        "engine.fleet.cold_insert_upd_s",
        sz.keys as f64 / b.cold_secs,
    );
    v.set("engine.fleet.run_ns_per_upd", 1e9 / b.clock.throughput());
    v.set("engine.fleet.flush_ms", stats::median(&flush_ms));
    let topk_us: Vec<f64> = b.topk_ns.iter().map(|x| x / 1e3).collect();
    v.set("engine.fleet.topk_us", stats::median(&topk_us));
    v.set("engine.fleet.checkpoint_ms", b.checkpoint_ms);
    v.set("engine.fleet.delta_ms", b.delta_ms);
    v.set(
        "engine.fleet.delta_bytes_per_boundary",
        b.delta_bytes as f64 / DELTA_BOUNDARIES as f64,
    );
    v.set(
        "engine.fleet.msgs_per_kupd",
        b.counts.messages as f64 * 1e3 / b.counts.updates as f64,
    );
    let mem = &b.memory;
    v.set("engine.fleet.arena_bytes", mem.arena_bytes as f64);
    v.set("engine.fleet.slot_bytes", mem.slot_bytes as f64);
    v.set("engine.fleet.index_bytes", mem.index_bytes as f64);
    v.set(
        "engine.audit.violations",
        (b.fleet.key_violations() + b.fleet.aggregate_violations()) as f64,
    );
    v.set("engine.audit.max_rel_err", b.fleet.max_rel_err());
    v.set("engine.audit.eps_headroom", b.fleet.max_rel_err() / EPS);
}
