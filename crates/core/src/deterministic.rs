//! The deterministic tracker — Section 3.3.
//!
//! On top of the §3.1 block partitioning, each site tracks its in-block
//! drift `d_i` (sum of updates received this block) and the change `δ_i`
//! since its last drift message. The in-block protocol is:
//!
//! * **condition** — true if `|δ_i| = 1` and `r = 0`, or if `|δ_i| ≥ ε·2^r`;
//! * **message** — the new value of `d_i`;
//! * **update** — the coordinator sets `d̂_i = d_i`.
//!
//! The coordinator's estimate is `f̂(n) = f(n_j) + Σ_i d̂_i`. Because every
//! site keeps `|δ_i| < ε·2^r` at the end of each timestep and `|f(n)| ≥
//! 2^r·k` inside an `r ≥ 1` block, the error `|f − f̂| = |Σ δ_i| < ε·2^r·k
//! ≤ ε·|f(n)|` **always** holds; `r = 0` blocks are tracked exactly.
//!
//! Message cost: at most `2k/ε` in-block messages per block, and each block
//! raises `v` by ≥ 1/5, giving `O((k/ε)·v(n))` in-block messages plus
//! `O(k·v(n))` partition messages.

use crate::blocks::{BlockConfig, BlockCoordinator, BlockSite};
use dsv_net::codec::{restore_seq, CodecError, Dec, Enc};
use dsv_net::{CoordOutbox, CoordinatorNode, Outbox, SiteNode, StarSim, Time, WireSize};

/// Site → coordinator messages of the deterministic tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetUp {
    /// Partition: `c_i` reached the threshold.
    Count(u64),
    /// Partition: reply to a report request.
    Report {
        /// `c_i`: unsent update count at the site.
        c: u64,
        /// `f_i`: the site's drift in `f` since the last broadcast.
        f: i64,
    },
    /// In-block: the new value of `d_i`.
    Drift(i64),
}

impl WireSize for DetUp {
    fn words(&self) -> usize {
        match self {
            DetUp::Count(_) | DetUp::Drift(_) => 1,
            DetUp::Report { .. } => 2,
        }
    }
}

/// Coordinator → site messages of the deterministic tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetDown {
    /// Partition: request `(c_i, f_i)`.
    Request,
    /// Partition: new block with radius `r`.
    NewBlock {
        /// The new block's radius.
        r: u32,
    },
}

impl WireSize for DetDown {
    fn words(&self) -> usize {
        1
    }
}

/// Per-site state of the deterministic tracker.
#[derive(Debug, Clone)]
pub struct DetSite {
    blocks: BlockSite,
    /// Drift `d_i`: sum of updates received this block.
    d: i64,
    /// `δ_i`: change in `d_i` since the last drift message.
    delta: i64,
    /// Radius of the current block.
    r: u32,
    eps: f64,
}

impl DetSite {
    /// Fresh site with error parameter `eps`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        DetSite {
            blocks: BlockSite::new(),
            d: 0,
            delta: 0,
            r: 0,
            eps,
        }
    }

    /// The §3.3 condition given the current radius.
    fn condition(&self) -> bool {
        if self.r == 0 {
            self.delta != 0
        } else {
            self.delta.unsigned_abs() as f64 >= self.eps * (1u64 << self.r) as f64
        }
    }

    /// Largest `|δ_i|` that keeps [`condition`](Self::condition) false —
    /// the integer form of the `ε·2^r` drift band.
    ///
    /// quiet ⟺ (|δ| as f64) < ε·2^r (the exact `condition()` compare).
    /// u64→f64 conversion is exact below 2^53, so the float predicate
    /// equals the integer predicate |δ| ≤ qmax with qmax the largest
    /// integer strictly below the band. (Radii that push the band past
    /// 2^53 would need |f| > 9e15 — unreachable with i64 deltas.)
    fn quiet_qmax(&self) -> u64 {
        if self.r == 0 {
            0 // r = 0 blocks are exact: quiet only while δ_i returns to 0
        } else {
            let band = self.eps * (1u64 << self.r) as f64;
            let trunc = band as u64;
            if (trunc as f64) < band {
                trunc
            } else {
                trunc.saturating_sub(1)
            }
        }
    }
}

impl SiteNode for DetSite {
    type In = i64;
    type Up = DetUp;
    type Down = DetDown;

    fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<DetUp>) {
        if let Some(c) = self.blocks.on_update(delta) {
            out.send(DetUp::Count(c));
        }
        self.d += delta;
        self.delta += delta;
        if self.condition() {
            out.send(DetUp::Drift(self.d));
            self.delta = 0;
        }
    }

    fn on_down(&mut self, _t: Time, msg: &DetDown, _is_request: bool, out: &mut Outbox<DetUp>) {
        match msg {
            DetDown::Request => {
                let (c, f) = self.blocks.report();
                out.send(DetUp::Report { c, f });
            }
            DetDown::NewBlock { r } => {
                self.blocks.start_block(*r);
                self.r = *r;
                self.d = 0;
                self.delta = 0;
            }
        }
    }

    fn absorb_quiet(&mut self, _t0: Time, inputs: &[i64]) -> usize {
        // Both §3.3 thresholds are constant between messages (the radius
        // and the block counter's target only change via `on_down`), so
        // hoist them out of the scan: the partition counter has
        // `until_fire` updates of headroom, and the drift band `ε·2^r` is
        // converted once into the largest integer `|δ_i|` that stays
        // quiet. The scan itself is the shared columnar band kernel —
        // chunked prefix sums with running min/max, so the engine's hot
        // loop autovectorizes — and the absorbed state change is applied
        // in O(1) afterwards.
        let cap = (self.blocks.until_fire() as usize).min(inputs.len());
        if cap == 0 {
            return 0;
        }
        let hi = self.quiet_qmax().min(i64::MAX as u64) as i64;
        let start = self.delta;
        let (n, acc) = crate::columnar::in_band_prefix(start, &inputs[..cap], -hi, hi);
        self.blocks.absorb_run(n as u64, acc - start);
        self.d += acc - start;
        self.delta = acc;
        n
    }

    fn absorb_quiet_run(&mut self, _t0: Time, v: i64, n: u64) -> u64 {
        // Same band as `absorb_quiet`, but for a run of identical deltas
        // the longest quiet prefix is a closed form: O(1) per RLE segment.
        let cap = self.blocks.until_fire().min(n);
        if cap == 0 {
            return 0;
        }
        let hi = self.quiet_qmax().min(i64::MAX as u64) as i64;
        let start = self.delta;
        let (j, acc) = crate::columnar::run_in_band(start, v, cap, -hi, hi);
        self.blocks.absorb_run(j, acc - start);
        self.d += acc - start;
        self.delta = acc;
        j
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        self.blocks.save_state(enc);
        enc.i64(self.d);
        enc.i64(self.delta);
        enc.u32(self.r);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.blocks.load_state(dec)?;
        self.d = dec.i64()?;
        self.delta = dec.i64()?;
        self.r = dec.u32()?;
        Ok(())
    }
}

/// Coordinator state of the deterministic tracker.
#[derive(Debug, Clone)]
pub struct DetCoord {
    blocks: BlockCoordinator,
    /// `d̂_i` per site.
    dhat: Vec<i64>,
    /// Maintained `Σ_i d̂_i`.
    dhat_sum: i64,
}

impl DetCoord {
    /// Fresh coordinator for `k` sites (block log off).
    pub fn new(k: usize) -> Self {
        DetCoord {
            blocks: BlockCoordinator::new(BlockConfig::new(k)),
            dhat: vec![0; k],
            dhat_sum: 0,
        }
    }

    /// Record every completed block ([`BlockCoordinator::log`]) — one
    /// entry per block for the life of the tracker, and in every
    /// snapshot, so only for runs that read the block structure.
    pub fn with_block_log(mut self) -> Self {
        self.blocks.enable_log();
        self
    }

    /// Access the partitioner (radius, sync value, block log).
    pub fn blocks(&self) -> &BlockCoordinator {
        &self.blocks
    }
}

impl CoordinatorNode for DetCoord {
    type Up = DetUp;
    type Down = DetDown;

    fn on_up(&mut self, t: Time, site: usize, msg: DetUp, out: &mut CoordOutbox<DetDown>) {
        match msg {
            DetUp::Count(c) => {
                if self.blocks.on_count(c) {
                    out.request(DetDown::Request);
                }
            }
            DetUp::Report { c, f } => {
                if let Some(r) = self.blocks.on_report(t, c, f) {
                    self.dhat.fill(0);
                    self.dhat_sum = 0;
                    out.broadcast(DetDown::NewBlock { r });
                }
            }
            DetUp::Drift(d) => {
                self.dhat_sum += d - self.dhat[site];
                self.dhat[site] = d;
            }
        }
    }

    fn estimate(&self) -> i64 {
        self.blocks.f_sync() + self.dhat_sum
    }

    fn save_state(&self, enc: &mut Enc) -> bool {
        self.blocks.save_state(enc);
        enc.seq_i64(&self.dhat);
        enc.i64(self.dhat_sum);
        true
    }

    fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.blocks.load_state(dec)?;
        restore_seq(
            "per-site drift estimates",
            &mut self.dhat,
            &dec.seq_i64("dhat")?,
        )?;
        self.dhat_sum = dec.i64()?;
        Ok(())
    }
}

/// Convenience constructors and the paper's message bounds.
#[derive(Debug, Clone, Copy)]
pub struct DeterministicTracker;

impl DeterministicTracker {
    /// A ready-to-run simulator with `k` sites and error `eps`.
    pub fn sim(k: usize, eps: f64) -> StarSim<DetSite, DetCoord> {
        StarSim::with_k(k, |_| DetSite::new(eps), DetCoord::new(k))
    }

    /// §3.1: ≤ `5k` partition messages per block and ≥ 1/10 variability
    /// gain per completed block (see `blocks` module docs for why we use
    /// the conservative 1/10 rather than the paper's 1/5), i.e.
    /// ≤ `50·k·v`, plus one (possibly incomplete) block of slack `5k`.
    pub fn partition_message_bound(k: usize, v: f64) -> f64 {
        50.0 * k as f64 * v + 5.0 * k as f64
    }

    /// §3.3: in-block messages ≤ `2k/ε` per block and ≥ 1/10 variability
    /// per block ⇒ ≤ `20·(k/ε)·v`, plus one block of slack `2k/ε`.
    pub fn inblock_message_bound(k: usize, eps: f64, v: f64) -> f64 {
        let kf = k as f64;
        20.0 * kf * v / eps + 2.0 * kf / eps
    }

    /// Total message bound (partition + in-block).
    pub fn message_bound(k: usize, eps: f64, v: f64) -> f64 {
        Self::partition_message_bound(k, v) + Self::inblock_message_bound(k, eps, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variability::Variability;
    use dsv_gen::{
        AdversarialGen, DeltaGen, MonotoneGen, NearlyMonotoneGen, RandomAssign, RoundRobin, WalkGen,
    };
    use dsv_net::TrackerRunner;

    fn audit(k: usize, eps: f64, updates: Vec<dsv_net::Update>) -> (dsv_net::RunReport, f64) {
        let v = Variability::of_stream(updates.iter().map(|u| u.delta));
        let mut sim = DeterministicTracker::sim(k, eps);
        let report = TrackerRunner::new(eps).run(&mut sim, &updates);
        (report, v)
    }

    #[test]
    fn guarantee_holds_on_fair_walk() {
        for (k, eps) in [(1usize, 0.1f64), (4, 0.1), (8, 0.25), (3, 0.01)] {
            let updates = WalkGen::fair(17).updates(20_000, RoundRobin::new(k));
            let (report, _) = audit(k, eps, updates);
            assert_eq!(
                report.violations, 0,
                "k={k}, eps={eps}: {} violations, max err {}",
                report.violations, report.max_rel_err
            );
        }
    }

    #[test]
    fn guarantee_holds_on_monotone_and_adversarial() {
        let k = 4;
        let eps = 0.1;
        for updates in [
            MonotoneGen::ones().updates(20_000, RoundRobin::new(k)),
            AdversarialGen::hover(1).updates(5_000, RoundRobin::new(k)),
            AdversarialGen::zero_crossing(6).updates(5_000, RandomAssign::new(k, 3)),
            NearlyMonotoneGen::new(5, 2.0, 0.45).updates(20_000, RandomAssign::new(k, 4)),
        ] {
            let (report, _) = audit(k, eps, updates);
            assert_eq!(report.violations, 0, "max err {}", report.max_rel_err);
        }
    }

    #[test]
    fn message_cost_bounded_by_kv_over_eps() {
        for (k, eps) in [(2usize, 0.1f64), (8, 0.05), (4, 0.2)] {
            let updates = WalkGen::fair(23).updates(30_000, RoundRobin::new(k));
            let (report, v) = audit(k, eps, updates);
            let bound = DeterministicTracker::message_bound(k, eps, v);
            assert!(
                (report.stats.total_messages() as f64) <= bound,
                "k={k}, eps={eps}: {} messages > bound {bound} (v={v})",
                report.stats.total_messages()
            );
        }
    }

    #[test]
    fn monotone_stream_is_cheap() {
        // v = O(log n) for the counter, so messages should be tiny
        // relative to n.
        let k = 4;
        let eps = 0.1;
        let n = 100_000u64;
        let updates = MonotoneGen::ones().updates(n, RoundRobin::new(k));
        let (report, v) = audit(k, eps, updates);
        assert!(v < 15.0, "v = {v}");
        assert!(
            report.stats.total_messages() < n / 10,
            "{} messages for a monotone stream of {n}",
            report.stats.total_messages()
        );
    }

    #[test]
    fn hover_stream_costs_linear_when_variability_linear() {
        // hover(1) has v ≈ n/1: the tracker legitimately pays Θ(n).
        let k = 2;
        let eps = 0.1;
        let updates = AdversarialGen::hover(1).updates(4_000, RoundRobin::new(k));
        let (report, v) = audit(k, eps, updates);
        assert!(v > 1_000.0);
        assert!(report.stats.total_messages() > 1_000);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn estimate_is_exact_in_r0_blocks() {
        // While |f| < 4k the radius stays 0 and tracking is exact.
        let k = 8;
        let updates = AdversarialGen::hover(2).updates(2_000, RoundRobin::new(k));
        let (report, _) = audit(k, 0.5, updates);
        assert_eq!(report.max_rel_err, 0.0);
    }

    #[test]
    fn single_site_placement_still_correct() {
        let k = 4;
        let eps = 0.1;
        let updates = WalkGen::biased(9, 0.3).updates(20_000, dsv_gen::SingleSite::new(k, 2));
        let (report, _) = audit(k, eps, updates);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn bounds_are_monotone_in_v_and_k() {
        assert!(
            DeterministicTracker::message_bound(4, 0.1, 100.0)
                > DeterministicTracker::message_bound(4, 0.1, 10.0)
        );
        assert!(
            DeterministicTracker::message_bound(8, 0.1, 10.0)
                > DeterministicTracker::message_bound(4, 0.1, 10.0)
        );
        assert!(
            DeterministicTracker::message_bound(4, 0.05, 10.0)
                > DeterministicTracker::message_bound(4, 0.1, 10.0)
        );
    }
}
