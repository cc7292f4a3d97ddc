//! Workload drivers, and the pieces they share: the pass clock and its
//! windowed timings, setup timing, the replayed input block, the
//! boundary audit, and the standalone per-layer probes of a traced run.

pub(crate) mod fleet;
pub(crate) mod quiet;
pub(crate) mod remote;

use crate::metrics::Values;
use crate::stats::{self, floored_rel_err};
use crate::trace::Tracer;
use dsv_core::api::{Driver, Tracker, TrackerKind, TrackerSpec};
use dsv_core::Variability;
use dsv_engine::{
    CheckpointStore, Consolidator, CounterEngine, DeltaStats, EngineCheckpoint, EngineReport,
};
use dsv_net::Update;
use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Relative error every workload tracks and audits.
pub(crate) const EPS: f64 = 0.1;
/// Logical shards of every engine.
pub(crate) const SHARDS: usize = 2;
/// Worker threads of every engine. The whole run is pinned to one CPU
/// ([`crate::host::pin_to_one_cpu`]), so the workers and the coordinator
/// share it.
pub(crate) const WORKERS: usize = 2;

/// Prefix an error from the system under test with its context.
pub(crate) fn ctx<E: Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Fail the run unless `ok`.
pub(crate) fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness check failed: {}", what()))
    }
}

/// The counter spec shared by the engine workloads: deterministic
/// tracker, deletions allowed.
pub(crate) fn counter_spec(k: usize, seed: u64) -> TrackerSpec {
    TrackerSpec::new(TrackerKind::Deterministic)
        .k(k)
        .eps(EPS)
        .seed(seed)
        .deletions(true)
}

/// Constructions per setup sample for in-process constructors.
pub(crate) const SETUP_REPS: usize = 16;
/// Seconds of setup samples for in-process constructors: long enough
/// that their median does not hinge on one moment of outside load.
pub(crate) const SETUP_SECONDS: f64 = 0.5;

/// Shortest window a throughput rate is taken over, in seconds.
const WINDOW_S: f64 = 1.0;
/// Rounds per latency window: a window's p99 leaves exactly
/// [`stats::TAIL_BEYOND`] samples beyond it, its p90 leaves 100.
const ROUND_WINDOW: usize = 1000;
/// The quartile of the window figures a wall-clock figure reports, on
/// its better side.
const BETTER_QUARTILE: f64 = 0.25;

/// The clock of one timed pass: it runs until the pass's seconds are up
/// *and* the workload has made its measure-point call count, recording
/// each call's end time, input count, process CPU time and per-round
/// latency samples.
///
/// The end-to-end cost is that CPU time per update: the host is a shared
/// VM, and the kernel charges no thread for time the hypervisor steals,
/// while every wall-clock figure follows the steal. It is read per
/// consecutive window of at least [`WINDOW_S`] and reported at the better
/// quartile across the windows — the lower quartile, so that neither a
/// stretch of outside cache and memory traffic nor the one faulted
/// segment of a remote pass sets it. The wall-clock figures are per-layer
/// context under the same rule: throughput is the upper quartile of the
/// windows' rates, and a round-latency figure (p50, p90, p99) is the
/// lower quartile, over consecutive [`ROUND_WINDOW`]-round windows, of
/// each window's figure by [`stats::tail`] (one window when the sample
/// holds fewer than two).
/// Outside load only ever slows a window or adds to its CPU time, so the
/// better quartile reads what the program does when the host lets it
/// run, while a quarter of the windows must still be as good — one lucky
/// window cannot set the figure.
pub(crate) struct Clock {
    started: Instant,
    deadline: Instant,
    measure_at: usize,
    ends_s: Vec<f64>,
    updates: Vec<u64>,
    round_ns: Vec<f64>,
    /// Process CPU seconds at the pass's start and at each call's end.
    cpu_start_s: Option<f64>,
    cpu_ends_s: Vec<Option<f64>>,
}

impl Clock {
    /// Start a pass of `seconds` (halved for each pass of a traced run)
    /// that makes at least `measure_at` calls.
    pub fn start(seconds: f64, trace: bool, measure_at: usize) -> Clock {
        let secs = if trace { seconds / 2.0 } else { seconds };
        let cpu_start_s = crate::host::process_cpu_s();
        let started = Instant::now();
        Clock {
            started,
            deadline: started + Duration::from_secs_f64(secs),
            measure_at,
            ends_s: Vec::new(),
            updates: Vec::new(),
            round_ns: Vec::new(),
            cpu_start_s,
            cpu_ends_s: Vec::new(),
        }
    }

    /// Record a finished call of `updates` inputs. True exactly when this
    /// call is the measure point, where counts are read.
    pub fn call(&mut self, updates: u64) -> bool {
        self.cpu_ends_s.push(crate::host::process_cpu_s());
        self.ends_s.push(self.started.elapsed().as_secs_f64());
        self.updates.push(updates);
        self.ends_s.len() == self.measure_at
    }

    /// Record one round's latency.
    pub fn round(&mut self, ns: f64) {
        self.round_ns.push(ns);
    }

    /// Whether the pass is over.
    pub fn done(&self) -> bool {
        self.ends_s.len() >= self.measure_at && Instant::now() >= self.deadline
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> usize {
        self.ends_s.len()
    }

    /// Wall seconds from the start to the last call's end.
    pub fn secs(&self) -> f64 {
        self.ends_s.last().copied().unwrap_or(0.0)
    }

    /// Inputs over every call.
    pub fn total_updates(&self) -> u64 {
        self.updates.iter().sum()
    }

    /// The call indices that close consecutive windows of at least
    /// [`WINDOW_S`] wall seconds each.
    fn window_ends(&self) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut from = 0.0;
        for (i, &end) in self.ends_s.iter().enumerate() {
            if end - from >= WINDOW_S {
                ends.push(i);
                from = end;
            }
        }
        ends
    }

    /// `(wall seconds, CPU seconds, inputs)` of each window; the CPU
    /// seconds are `None` where the CPU clock is unavailable.
    fn windows(&self) -> Vec<(f64, Option<f64>, u64)> {
        let mut out = Vec::new();
        let (mut wall, mut cpu, mut first) = (0.0, self.cpu_start_s, 0);
        for i in self.window_ends() {
            let n = self.updates[first..=i].iter().sum();
            let cpu_end = self.cpu_ends_s[i];
            let cpu_s = cpu.zip(cpu_end).map(|(a, b)| b - a);
            out.push((self.ends_s[i] - wall, cpu_s, n));
            (wall, cpu, first) = (self.ends_s[i], cpu_end, i + 1);
        }
        out
    }

    /// Upper quartile of the per-window rates (the whole pass when it is
    /// shorter than two windows).
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows()
            .iter()
            .map(|&(wall, _, n)| n as f64 / wall)
            .collect();
        if rates.len() < 2 {
            return self.total_updates() as f64 / self.secs();
        }
        stats::quantile(&rates, 1.0 - BETTER_QUARTILE)
    }

    /// Lower quartile over the windows of process CPU nanoseconds per
    /// input (the whole pass when it is shorter than two windows). `None`
    /// where the CPU clock is unavailable.
    pub fn cpu_ns_per_upd(&self) -> Option<f64> {
        let mut costs = self
            .windows()
            .iter()
            .map(|&(_, cpu, n)| cpu.map(|c| c * 1e9 / n as f64))
            .collect::<Option<Vec<f64>>>()?;
        if costs.len() < 2 {
            let cpu = self.cpu_ends_s.last().copied().flatten()? - self.cpu_start_s?;
            costs = vec![cpu * 1e9 / self.total_updates() as f64];
        }
        Some(stats::quantile(&costs, BETTER_QUARTILE))
    }

    /// Lower quartile, over round windows, of each window's latency at
    /// percentile `cap` (in microseconds), and the percentile the first
    /// window supports.
    fn round_us(&self, cap: f64) -> (f64, f64) {
        let us: Vec<f64> = self.round_ns.iter().map(|x| x / 1e3).collect();
        let windows: Vec<stats::Tail> = if us.len() < 2 * ROUND_WINDOW {
            vec![stats::tail(&us, cap)]
        } else {
            us.chunks_exact(ROUND_WINDOW)
                .map(|w| stats::tail(w, cap))
                .collect()
        };
        let values: Vec<f64> = windows.iter().map(|t| t.value).collect();
        (
            stats::quantile(&values, BETTER_QUARTILE),
            windows[0].percentile,
        )
    }

    /// Record the end-to-end CPU cost, [`Clock::cpu_ns_per_upd`] (omitted
    /// where the CPU time is unavailable, which fails the run).
    pub fn report(&self, v: &mut Values, details: &mut Vec<(&'static str, String)>) {
        if let Some(cost) = self.cpu_ns_per_upd() {
            v.set("cpu_ns_per_upd", cost);
        }
        details.push(("updates", self.total_updates().to_string()));
        details.push(("cpu_windows", self.window_ends().len().to_string()));
    }

    /// Record the untraced pass's wall-clock figures beside the per-layer
    /// metrics, with the percentiles the round windows support.
    pub fn report_wall(&self, v: &mut Values, details: &mut Vec<(&'static str, String)>) {
        let (p90, p90_pct) = self.round_us(0.90);
        let (p99, p99_pct) = self.round_us(0.99);
        v.set("wall.throughput_upd_s", self.throughput());
        v.set("wall.round_p50_us", self.round_us(0.50).0);
        v.set("wall.round_p90_us", p90);
        v.set("wall.round_p99_us", p99);
        details.push(("round_samples", self.round_ns.len().to_string()));
        details.push(("tail_percentiles", format!("{p90_pct:.4}/{p99_pct:.4}")));
    }
}

/// Counts read at a workload's measure point — a fixed amount of input
/// reached in every run — so that they repeat for a given seed however
/// fast the host ran.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counts {
    pub messages: u64,
    pub updates: u64,
    pub rss_mib: f64,
}

impl Counts {
    /// Read the counts now, given the message ledger and inputs so far.
    pub fn read(messages: u64, updates: u64) -> Counts {
        Counts {
            messages,
            updates,
            rss_mib: crate::host::peak_rss_mib().unwrap_or(0.0),
        }
    }

    /// Record `messages_per_kupd` and `peak_rss_mib`.
    pub fn report(&self, v: &mut Values) {
        v.set(
            "messages_per_kupd",
            self.messages as f64 * 1e3 / self.updates as f64,
        );
        v.set("peak_rss_mib", self.rss_mib);
    }
}

/// Tracker and merge message totals of an in-process engine.
pub(crate) fn ledgers(engine: &CounterEngine) -> (u64, u64) {
    (
        engine.tracker_stats().total_messages(),
        engine.merge_stats().total_messages(),
    )
}

/// Times the system's constructor outside the timed loop, in bursts:
/// one before the input is generated and one after the timed pass, so
/// that `setup_s` — the median over every sample — spans the run rather
/// than one moment of outside load. A burst takes at least `samples`
/// samples, and more until `seconds` have passed; each sample times
/// `reps` back-to-back constructions (so a sub-microsecond constructor
/// still reads well above the clock's resolution) and tears them down
/// untimed.
pub(crate) struct Setup<F> {
    make: F,
    reps: usize,
    samples: usize,
    seconds: f64,
    times: Vec<f64>,
}

impl<T, E: Display, F: FnMut() -> Result<T, E>> Setup<F> {
    pub fn new(make: F, reps: usize, samples: usize, seconds: f64) -> Self {
        Setup {
            make,
            reps: reps.max(1),
            samples: samples.max(1),
            seconds,
            times: Vec::new(),
        }
    }

    /// Take one burst of samples and return the last instance built.
    pub fn burst(&mut self) -> Result<T, String> {
        let until = Instant::now() + Duration::from_secs_f64(self.seconds);
        let mut last = None;
        for i in 0.. {
            if i >= self.samples && Instant::now() >= until {
                break;
            }
            let mut made = Vec::with_capacity(self.reps);
            let started = Instant::now();
            for _ in 0..self.reps {
                made.push((self.make)().map_err(ctx("setup"))?);
            }
            self.times
                .push(started.elapsed().as_secs_f64() / self.reps as f64);
            last = made.pop();
        }
        Ok(last.expect("at least one construction"))
    }

    /// Median seconds per construction over every burst.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times)
    }
}

/// A block of pre-generated rounds, dealt round-robin from one global
/// stream into `k` per-site feeds and replayed cyclically. Global round
/// `g` is block round `g mod rounds`: `batch` inputs per feed.
pub(crate) struct Block {
    feeds: Vec<Vec<i64>>,
    batch: usize,
    rounds: usize,
}

impl Block {
    /// Deal `global` (a whole number of rounds) round-robin over `k` sites.
    pub fn deal(global: &[i64], k: usize, batch: usize) -> Block {
        assert_eq!(global.len() % (k * batch), 0, "block must be whole rounds");
        let mut feeds = vec![Vec::with_capacity(global.len() / k); k];
        for (i, &d) in global.iter().enumerate() {
            feeds[i % k].push(d);
        }
        Block {
            rounds: global.len() / (k * batch),
            feeds,
            batch,
        }
    }

    pub fn k(&self) -> usize {
        self.feeds.len()
    }

    pub fn batch(&self) -> usize {
        self.batch
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    pub fn updates_per_round(&self) -> usize {
        self.k() * self.batch
    }

    /// Feed `site`'s inputs for global round `g`.
    pub fn chunk(&self, site: usize, g: usize) -> &[i64] {
        let lo = (g % self.rounds) * self.batch;
        &self.feeds[site][lo..lo + self.batch]
    }

    /// Per-feed slices for global rounds `g .. g + n`, which must not
    /// straddle the end of the block.
    pub fn slices(&self, g: usize, n: usize) -> Vec<(usize, &[i64])> {
        let lo = (g % self.rounds) * self.batch;
        let hi = lo + n * self.batch;
        assert!(
            hi <= self.rounds * self.batch,
            "call straddles the block end"
        );
        self.feeds
            .iter()
            .enumerate()
            .map(|(s, f)| (s, &f[lo..hi]))
            .collect()
    }

    /// Sum of global round `g`'s inputs.
    pub fn round_sum(&self, g: usize) -> i64 {
        (0..self.k())
            .map(|s| self.chunk(s, g).iter().sum::<i64>())
            .sum()
    }

    /// Sum of global rounds `0 .. rounds`, the block replayed cyclically.
    pub fn prefix_sum(&self, rounds: usize) -> i64 {
        let whole = (rounds / self.rounds) as i64;
        let block: i64 = (0..self.rounds).map(|g| self.round_sum(g)).sum();
        let tail: i64 = (0..rounds % self.rounds).map(|g| self.round_sum(g)).sum();
        whole * block + tail
    }

    /// Global round `g` in the order the stream was generated.
    pub fn global_round(&self, g: usize) -> impl Iterator<Item = i64> + '_ {
        let lo = (g % self.rounds) * self.batch;
        (lo..lo + self.batch).flat_map(move |j| self.feeds.iter().map(move |f| f[j]))
    }
}

/// Boundary audit folded over engine reports, with the relative error
/// floored at `|f| = 1` so a boundary exactly at `f = 0` stays finite.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Audit {
    pub boundaries: u64,
    pub violations: u64,
    pub max_err: f64,
}

impl Audit {
    pub fn add(&mut self, rep: &EngineReport) {
        self.boundaries += rep.batches;
        self.violations += rep.boundary_violations;
        for p in &rep.probes {
            self.max_err = self.max_err.max(floored_rel_err(p.f, p.fhat));
        }
    }

    /// Record the audit's per-layer metrics.
    pub fn report(&self, v: &mut Values) {
        v.set("engine.audit.violations", self.violations as f64);
        v.set("engine.audit.max_rel_err", self.max_err);
        v.set("engine.audit.eps_headroom", self.max_err / EPS);
    }
}

/// Standalone shard replicas fed the rounds an engine consumed.
pub(crate) struct AbsorbProbe {
    /// Total absorb time over every replica call.
    pub total_ns: u64,
    /// Updates absorbed.
    pub updates: u64,
    /// Per engine call: absorb time of every shard. The run is pinned to
    /// one CPU, so the workers' absorbs run one after another and the call
    /// cannot take less than their sum.
    pub call_absorb_ns: Vec<u64>,
    /// The replicas' final estimates, in shard order.
    pub estimates: Vec<i64>,
}

/// Replay global rounds `0 .. calls × rounds_per_call` into standalone
/// `spec.shard(s)` replicas through `update_run`, feeding each shard its
/// sites' chunks in feed order — the engine's own per-round order — and
/// timing each shard's round.
pub(crate) fn absorb_probe(
    spec: TrackerSpec,
    block: &Block,
    calls: usize,
    rounds_per_call: usize,
    tr: &mut Tracer,
) -> Result<AbsorbProbe, String> {
    let mut replicas = (0..SHARDS)
        .map(|s| spec.shard(s).build())
        .collect::<Result<Vec<_>, _>>()
        .map_err(ctx("replica build"))?;
    let mut probe = AbsorbProbe {
        total_ns: 0,
        updates: 0,
        call_absorb_ns: Vec::with_capacity(calls),
        estimates: Vec::new(),
    };
    let root = tr.enter("probe.absorb");
    for c in 0..calls {
        let rounds = c * rounds_per_call..(c + 1) * rounds_per_call;
        let mut call_ns = 0;
        // Replicas are independent, so each takes the call's rounds in
        // one stretch; its own input order is the engine's.
        for (s, replica) in replicas.iter_mut().enumerate() {
            let open = tr.enter("core.absorb.update_run");
            let started = Instant::now();
            for g in rounds.clone() {
                for site in (s..block.k()).step_by(SHARDS) {
                    black_box(replica.update_run(site, block.chunk(site, g)));
                }
            }
            let ns = started.elapsed().as_nanos() as u64;
            tr.exit(open);
            call_ns += ns;
        }
        probe.total_ns += call_ns;
        probe.updates += (rounds.len() * block.updates_per_round()) as u64;
        probe.call_absorb_ns.push(call_ns);
    }
    tr.exit(root);
    probe.estimates = replicas.iter().map(|r| r.estimate()).collect();
    Ok(probe)
}

/// Record the absorb metrics and the per-round engine overhead: each
/// call's wall time minus the standalone absorb time of its rounds,
/// averaged per round.
pub(crate) fn report_absorb(
    v: &mut Values,
    probe: &AbsorbProbe,
    call_ns: &[u64],
    rounds_per_call: usize,
) {
    v.set(
        "core.absorb.ns_per_upd",
        probe.total_ns as f64 / probe.updates as f64,
    );
    report_overhead(v, &probe.call_absorb_ns, call_ns, rounds_per_call);
}

/// Record `engine.round.overhead_us` from per-call wall times and the
/// matching standalone absorb times.
pub(crate) fn report_overhead(
    v: &mut Values,
    absorb_ns: &[u64],
    call_ns: &[u64],
    rounds_per_call: usize,
) {
    let overhead: f64 = call_ns
        .iter()
        .zip(absorb_ns)
        .map(|(&call, &absorb)| call as f64 - absorb as f64)
        .sum();
    let rounds = (call_ns.len() * rounds_per_call).max(1);
    v.set("engine.round.overhead_us", overhead / rounds as f64 / 1e3);
}

/// `Consolidator::compress_runs` over every feed chunk of one block
/// pass: time per input and run-length segments per input.
pub(crate) fn consolidate_probe(block: &Block, v: &mut Values, tr: &mut Tracer) {
    let mut c = Consolidator::new();
    let mut segs = 0u64;
    let mut ns = 0u64;
    let root = tr.enter("probe.consolidate");
    for g in 0..block.rounds() {
        let open = tr.enter("engine.consolidate.compress_runs");
        let started = Instant::now();
        for site in 0..block.k() {
            segs += black_box(c.compress_runs(block.chunk(site, g))).len() as u64;
        }
        ns += started.elapsed().as_nanos() as u64;
        tr.exit(open);
    }
    tr.exit(root);
    let n = (block.rounds() * block.updates_per_round()) as f64;
    v.set("engine.consolidate.ns_per_upd", ns as f64 / n);
    v.set("engine.consolidate.segs_per_upd", segs as f64 / n);
}

/// The sequential audited `Driver` over the first `rounds` block rounds
/// in generation order — the single-thread baseline. Checks its ground
/// truth against the input.
pub(crate) fn driver_probe(
    spec: TrackerSpec,
    block: &Block,
    rounds: usize,
    v: &mut Values,
    tr: &mut Tracer,
) -> Result<(), String> {
    let k = block.k();
    let updates: Vec<Update> = (0..rounds.min(block.rounds()))
        .flat_map(|g| block.global_round(g))
        .enumerate()
        .map(|(i, d)| Update::new(i as u64 + 1, i % k, d))
        .collect();
    let expected: i64 = updates.iter().map(|u| u.delta).sum();
    let mut tracker = spec.build().map_err(ctx("driver tracker"))?;
    let driver = Driver::new(EPS).map_err(ctx("driver"))?;
    let open = tr.enter("core.driver.run");
    let started = Instant::now();
    let report = driver
        .run(&mut *tracker, &updates)
        .map_err(ctx("driver run"))?;
    let ns = started.elapsed().as_nanos() as f64;
    tr.exit(open);
    check(report.final_f == expected, || {
        format!("driver final f {} != input sum {expected}", report.final_f)
    })?;
    v.set("core.driver.ns_per_upd", ns / updates.len() as f64);
    Ok(())
}

/// `v(n)` of the stream up to the measure point — global rounds
/// `0 .. rounds` in generation order — computed untimed, and the messages
/// sent up to there per unit of it.
pub(crate) fn variability(block: &Block, rounds: usize, messages: u64, v: &mut Values) {
    let var = Variability::of_stream((0..rounds).flat_map(|g| block.global_round(g)));
    v.set("core.v", var);
    v.set(
        "core.msgs_per_v",
        messages as f64 / var.max(f64::MIN_POSITIVE),
    );
}

/// Median capture time of `ShardedEngine::checkpoint`, in milliseconds,
/// and the image. Workloads call it at their measure point — a fixed
/// amount of input in every run — so the state captured does not grow
/// with how far the run got.
pub(crate) fn capture_probe(
    engine: &mut CounterEngine,
    tr: &mut Tracer,
) -> Result<(f64, EngineCheckpoint), String> {
    let mut capture = Vec::new();
    let mut image = None;
    for _ in 0..3 {
        let open = tr.enter("engine.checkpoint.capture");
        let started = Instant::now();
        let ckpt = engine.checkpoint().map_err(ctx("checkpoint"))?;
        capture.push(started.elapsed().as_secs_f64() * 1e3);
        tr.exit(open);
        image = Some(ckpt);
    }
    Ok((stats::median(&capture), image.expect("three captures")))
}

/// Median time of `EngineCheckpoint::to_bytes` on `image`.
pub(crate) fn encode_probe(image: &EngineCheckpoint, v: &mut Values, tr: &mut Tracer) {
    let mut encode = Vec::new();
    for _ in 0..5 {
        let open = tr.enter("engine.checkpoint.encode");
        let started = Instant::now();
        black_box(image.to_bytes());
        encode.push(started.elapsed().as_secs_f64() * 1e3);
        tr.exit(open);
    }
    v.set("engine.checkpoint.encode_ms", stats::median(&encode));
}

/// Delta-chain materialize timing of the boundary `at` (the measure
/// point's image), checked equal to it, and the store's byte accounting
/// as it stood at that boundary.
pub(crate) fn delta_probe(
    at: &EngineCheckpoint,
    store: &CheckpointStore,
    s: &DeltaStats,
    v: &mut Values,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut materialize = Vec::new();
    for _ in 0..3 {
        let open = tr.enter("engine.delta.materialize");
        let started = Instant::now();
        let image = store.materialize(at.time()).map_err(ctx("materialize"))?;
        materialize.push(started.elapsed().as_secs_f64() * 1e3);
        tr.exit(open);
        check(&image == at, || {
            "materialized measure-point boundary != its checkpoint".into()
        })?;
    }
    v.set("engine.delta.materialize_ms", stats::median(&materialize));
    let delta_links = (s.boundaries - s.bases) * SHARDS as u64;
    v.set(
        "engine.delta.bytes_per_boundary",
        s.delta_bytes as f64 / s.boundaries as f64,
    );
    v.set(
        "engine.delta.identity_frac",
        if delta_links == 0 {
            0.0
        } else {
            s.identity_links as f64 / delta_links as f64
        },
    );
    v.set("engine.delta.shrink", s.shrink());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished pass: call `i` ends at
    /// `ends_s[i]` with `updates[i]` inputs and the CPU clock at `cpu[i]`.
    fn clock(ends_s: &[f64], updates: &[u64], cpu: &[f64]) -> Clock {
        let mut c = Clock::start(0.0, false, 0);
        c.ends_s = ends_s.to_vec();
        c.updates = updates.to_vec();
        c.cpu_start_s = Some(0.0);
        c.cpu_ends_s = cpu.iter().map(|&x| Some(x)).collect();
        c
    }

    #[test]
    fn cpu_cost_is_the_better_quartile_of_the_windows() {
        // Windows close at the calls ending at 1.0, 2.0 and 3.5 s; the
        // call at 4.0 s opens a window that never closes and is left out.
        let c = clock(
            &[0.5, 1.0, 2.0, 2.5, 3.5, 4.0],
            &[100, 100, 100, 100, 200, 100],
            &[1e-6, 2e-6, 3e-6, 4e-6, 1e-3, 1.1e-3],
        );
        assert_eq!(c.window_ends(), vec![1, 2, 4]);
        // 10 ns/upd, 10 ns/upd, then an outlier window at ~3300 ns/upd.
        let cost = c.cpu_ns_per_upd().unwrap();
        assert!((cost - 10.0).abs() < 1e-6, "{cost}");
    }

    #[test]
    fn cpu_cost_of_a_short_pass_is_the_whole_pass() {
        let c = clock(&[0.4, 0.8, 1.2], &[100, 100, 200], &[1e-6, 2e-6, 8e-6]);
        assert_eq!(c.window_ends(), vec![2]);
        let cost = c.cpu_ns_per_upd().unwrap();
        assert!((cost - 20.0).abs() < 1e-6, "{cost}");
    }

    #[test]
    fn cpu_cost_needs_the_cpu_clock() {
        let mut c = clock(&[1.0, 2.0], &[100, 100], &[1e-6, 2e-6]);
        c.cpu_ends_s[1] = None;
        assert_eq!(c.cpu_ns_per_upd(), None);
    }
}
