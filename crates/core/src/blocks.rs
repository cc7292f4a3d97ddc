//! Partitioning time into constant-variability blocks — Section 3.1.
//!
//! The coordinator divides time into blocks `B_j = [n_j + 1, n_{j+1}]` such
//! that at each block end it knows `n` and `f(n)` **exactly**, and each
//! block increases the variability by at least 1/5. The machinery:
//!
//! * each site keeps `c_i` (updates since it last sent `c_i`) and `f_i`
//!   (change in `f` since the last broadcast); whenever `c_i = ⌈2^{r−1}⌉`
//!   the site sends `c_i`;
//! * the coordinator accumulates `t̂ += c_i`; when `t̂ ≥ t_j` it requests
//!   all `(c_i, f_i)`, recomputes `f(n_j)` exactly, picks the new radius
//!   `r` (`2^r·2k ≤ |f(n_j)| < 2^r·4k`, or `r = 0` if `|f(n_j)| < 4k`),
//!   sets `t_{j+1} = ⌈2^{r−1}⌉·k`, and broadcasts `r`.
//!
//! Consequences proved in the paper and asserted by our tests/experiments:
//!
//! * `⌈2^{r−1}⌉·k ≤ n_{j+1} − n_j ≤ 2^r·k`;
//! * `r = 0` blocks: `|f(n) − f(n_j)| ≤ k` and `|f(n)| ≤ 5k` inside;
//! * `r ≥ 1` blocks: `|f(n) − f(n_j)| ≤ 2^r·k` and
//!   `2^r·k ≤ |f(n)| ≤ 2^r·5k` inside;
//! * at most `5k` partition messages per block, and every block raises the
//!   variability by a constant. (The paper states `Δv ≥ 1/5` using a block
//!   length of `2^r·k`; its own length lower bound is `⌈2^{r−1}⌉·k`, which
//!   yields the safe constant `Δv ≥ 1/10` — each of the ≥ `2^{r−1}·k`
//!   steps contributes ≥ `1/(2^r·5k)`. We assert `1/10` and report the
//!   measured per-block gains, which land between the two, in E4.)

use dsv_net::codec::{CodecError, Dec, Enc};
use dsv_net::{CoordOutbox, CoordinatorNode, Outbox, SiteNode, Time, WireSize};

/// `⌈2^{r−1}⌉`: the per-site count threshold and the unit of the block
/// quota.
#[inline]
pub fn threshold_for(r: u32) -> u64 {
    if r == 0 {
        1
    } else {
        1u64 << (r - 1)
    }
}

/// The radius for a block starting at `|f| = f_abs` with `k` sites:
/// `r = 0` if `f_abs < 4k`, else the unique `r ≥ 1` with
/// `2^r·2k ≤ f_abs < 2^r·4k`.
#[inline]
pub fn radius_for(f_abs: u64, k: usize) -> u32 {
    let k = k as u64;
    if f_abs < 4 * k {
        0
    } else {
        (f_abs / (2 * k)).ilog2()
    }
}

/// Static configuration of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Number of sites `k`.
    pub k: usize,
}

impl BlockConfig {
    /// Configuration for `k ≥ 1` sites.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        BlockConfig { k }
    }
}

/// Site-side partitioner state (embedded by every tracker's site node).
#[derive(Debug, Clone)]
pub struct BlockSite {
    c: u64,
    f_i: i64,
    threshold: u64,
}

impl Default for BlockSite {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockSite {
    /// Fresh site state for the initial `r = 0` block.
    pub fn new() -> Self {
        BlockSite {
            c: 0,
            f_i: 0,
            threshold: threshold_for(0),
        }
    }

    /// Count one update. Returns `Some(c)` when the count threshold fires
    /// (the site must send `c` to the coordinator; the counter resets).
    pub fn on_update(&mut self, delta: i64) -> Option<u64> {
        self.c += 1;
        self.f_i += delta;
        if self.c == self.threshold {
            let sent = self.c;
            self.c = 0;
            Some(sent)
        } else {
            None
        }
    }

    /// Number of further counted updates guaranteed **not** to fire the
    /// count threshold — the headroom the batched fast path may absorb
    /// before [`on_update`](Self::on_update) must run again.
    pub fn until_fire(&self) -> u64 {
        self.threshold - self.c - 1
    }

    /// Bulk fast path: count `n` updates summing to `sum`, none of which
    /// fires (caller must stay within [`until_fire`](Self::until_fire)).
    /// State change is bit-identical to `n` non-firing
    /// [`on_update`](Self::on_update) calls.
    pub fn absorb_run(&mut self, n: u64, sum: i64) {
        debug_assert!(self.c + n < self.threshold, "absorb_run past headroom");
        self.c += n;
        self.f_i += sum;
    }

    /// Answer a coordinator report request with `(c_i, f_i)`. Sending `c_i`
    /// resets it (it has now been "sent to the coordinator"); `f_i` resets
    /// only at the next block broadcast.
    pub fn report(&mut self) -> (u64, i64) {
        let c = std::mem::take(&mut self.c);
        (c, self.f_i)
    }

    /// Handle the new-block broadcast carrying radius `r`.
    pub fn start_block(&mut self, r: u32) {
        self.f_i = 0;
        self.threshold = threshold_for(r);
    }

    /// Serialize the partitioner's site-side state (snapshot seam).
    pub fn save_state(&self, enc: &mut Enc) {
        enc.u64(self.c);
        enc.i64(self.f_i);
        enc.u64(self.threshold);
    }

    /// Restore state written by [`save_state`](Self::save_state).
    pub fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        self.c = dec.u64()?;
        self.f_i = dec.i64()?;
        self.threshold = dec.u64()?;
        Ok(())
    }

    /// Current unsent update count (diagnostics).
    pub fn pending(&self) -> u64 {
        self.c
    }

    /// Change in `f` at this site since the last broadcast (diagnostics).
    pub fn drift_since_broadcast(&self) -> i64 {
        self.f_i
    }
}

/// Completed-block record, for the E4 experiments and invariant tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block index `j` (0-based).
    pub index: u64,
    /// Radius `r` in force *during* the block.
    pub r: u32,
    /// `n_j`: the timestep at which the block started (exclusive).
    pub start: Time,
    /// `n_{j+1}`: the timestep at which the block ended (inclusive).
    pub end: Time,
    /// `f(n_j)`.
    pub f_start: i64,
    /// `f(n_{j+1})`.
    pub f_end: i64,
}

impl BlockInfo {
    /// `n_{j+1} − n_j`, the number of updates in the block.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the block is degenerate (cannot happen; for clippy's sake).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Coordinator-side partitioner state (embedded by every tracker's
/// coordinator node).
#[derive(Debug, Clone)]
pub struct BlockCoordinator {
    k: usize,
    r: u32,
    t_hat: u64,
    quota: u64,
    f_sync: i64,
    collecting: bool,
    replies: usize,
    reply_f_sum: i64,
    block_index: u64,
    block_start: Time,
    log: Option<Vec<BlockInfo>>,
}

impl BlockCoordinator {
    /// Fresh coordinator state: block 0 starts at time 0 with `f(0) = 0`,
    /// `r = 0`, quota `t_1 = k`.
    pub fn new(cfg: BlockConfig) -> Self {
        BlockCoordinator {
            k: cfg.k,
            r: 0,
            t_hat: 0,
            quota: threshold_for(0) * cfg.k as u64,
            f_sync: 0,
            collecting: false,
            replies: 0,
            reply_f_sum: 0,
            block_index: 0,
            block_start: 0,
            log: None,
        }
    }

    /// Record a [`BlockInfo`] per completed block. Off by default: the
    /// log grows by one entry per block for the life of the coordinator
    /// and rides along in every snapshot, so only runs that read the
    /// block structure (tests, the E04 experiment) turn it on.
    pub fn enable_log(&mut self) {
        if self.log.is_none() {
            self.log = Some(Vec::new());
        }
    }

    /// The completed-block log, if enabled.
    pub fn log(&self) -> Option<&[BlockInfo]> {
        self.log.as_deref()
    }

    /// Radius `r` of the current block.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// `f(n_j)`: the exact value at the last block boundary.
    pub fn f_sync(&self) -> i64 {
        self.f_sync
    }

    /// Index of the current (incomplete) block.
    pub fn block_index(&self) -> u64 {
        self.block_index
    }

    /// Whether a report collection is in flight.
    pub fn collecting(&self) -> bool {
        self.collecting
    }

    /// Number of sites.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Serialize the partitioner's coordinator-side state, including the
    /// completed-block log if enabled (snapshot seam).
    pub fn save_state(&self, enc: &mut Enc) {
        enc.usize(self.k);
        enc.u32(self.r);
        enc.u64(self.t_hat);
        enc.u64(self.quota);
        enc.i64(self.f_sync);
        enc.bool(self.collecting);
        enc.usize(self.replies);
        enc.i64(self.reply_f_sum);
        enc.u64(self.block_index);
        enc.u64(self.block_start);
        match &self.log {
            None => enc.bool(false),
            Some(log) => {
                enc.bool(true);
                enc.seq_len(log.len());
                for b in log {
                    enc.u64(b.index);
                    enc.u32(b.r);
                    enc.u64(b.start);
                    enc.u64(b.end);
                    enc.i64(b.f_start);
                    enc.i64(b.f_end);
                }
            }
        }
    }

    /// Restore state written by [`save_state`](Self::save_state); the
    /// serialized site count must match this coordinator's. The image's
    /// block log is restored only if this coordinator keeps one.
    pub fn load_state(&mut self, dec: &mut Dec) -> Result<(), CodecError> {
        let k = dec.usize()?;
        if k != self.k {
            return Err(CodecError::Mismatch {
                what: "partitioner site count",
                expected: self.k as u64,
                found: k as u64,
            });
        }
        self.r = dec.u32()?;
        self.t_hat = dec.u64()?;
        self.quota = dec.u64()?;
        self.f_sync = dec.i64()?;
        self.collecting = dec.bool()?;
        self.replies = dec.usize()?;
        self.reply_f_sum = dec.i64()?;
        self.block_index = dec.u64()?;
        self.block_start = dec.u64()?;
        let mut log = Vec::new();
        if dec.bool()? {
            let n = dec.seq_len("block log", 44)?;
            log.reserve(n);
            for _ in 0..n {
                log.push(BlockInfo {
                    index: dec.u64()?,
                    r: dec.u32()?,
                    start: dec.u64()?,
                    end: dec.u64()?,
                    f_start: dec.i64()?,
                    f_end: dec.i64()?,
                });
            }
        }
        // The log belongs to the receiver: one that keeps a log takes
        // the image's (empty if the image has none), one that does not
        // decodes and drops it — so a logless replica stays logless
        // whatever image it resumes from.
        if self.log.is_some() {
            self.log = Some(log);
        }
        Ok(())
    }

    /// Process a count message `c_i`. Returns `true` when the block quota
    /// is reached and the caller must issue a report request to all sites.
    pub fn on_count(&mut self, c: u64) -> bool {
        self.t_hat += c;
        if !self.collecting && self.t_hat >= self.quota {
            self.collecting = true;
            true
        } else {
            false
        }
    }

    /// Process one report reply `(c_i, f_i)` at time `t`. When the `k`-th
    /// reply arrives the block is finalized: returns `Some(new_r)` and the
    /// caller must broadcast the new radius.
    pub fn on_report(&mut self, t: Time, c: u64, f_i: i64) -> Option<u32> {
        assert!(self.collecting, "report outside a collection");
        self.t_hat += c;
        self.reply_f_sum += f_i;
        self.replies += 1;
        if self.replies < self.k {
            return None;
        }
        // Block j ends at time t: f(n_{j+1}) = f(n_j) + Σ_i f_i, exactly.
        let f_start = self.f_sync;
        self.f_sync += self.reply_f_sum;
        let new_r = radius_for(self.f_sync.unsigned_abs(), self.k);
        if let Some(log) = self.log.as_mut() {
            log.push(BlockInfo {
                index: self.block_index,
                r: self.r,
                start: self.block_start,
                end: t,
                f_start,
                f_end: self.f_sync,
            });
        }
        self.block_index += 1;
        self.block_start = t;
        self.r = new_r;
        self.t_hat = 0;
        self.quota = threshold_for(new_r) * self.k as u64;
        self.collecting = false;
        self.replies = 0;
        self.reply_f_sum = 0;
        Some(new_r)
    }
}

// ---------------------------------------------------------------------------
// A standalone "blocks only" protocol: runs just the partitioner, with the
// coordinator estimating f by its last sync point. Used by experiment E4 to
// validate the §3.1 facts in isolation.
// ---------------------------------------------------------------------------

/// Site → coordinator messages of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockUp {
    /// `c_i` reached the threshold.
    Count(u64),
    /// Reply to a report request: `(c_i, f_i)`.
    Report {
        /// `c_i`: unsent update count at the site.
        c: u64,
        /// `f_i`: the site's drift in `f` since the last broadcast.
        f: i64,
    },
}

impl WireSize for BlockUp {
    fn words(&self) -> usize {
        match self {
            BlockUp::Count(_) => 1,
            BlockUp::Report { .. } => 2,
        }
    }
}

/// Coordinator → site messages of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDown {
    /// Request `(c_i, f_i)` from every site.
    Request,
    /// New block with radius `r`.
    NewBlock {
        /// The new block's radius.
        r: u32,
    },
}

impl WireSize for BlockDown {
    fn words(&self) -> usize {
        1
    }
}

/// Site node running only the partitioner.
#[derive(Debug, Clone, Default)]
pub struct BlockOnlySite {
    inner: BlockSite,
}

impl BlockOnlySite {
    /// Fresh site.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SiteNode for BlockOnlySite {
    type In = i64;
    type Up = BlockUp;
    type Down = BlockDown;

    fn on_update(&mut self, _t: Time, delta: i64, out: &mut Outbox<BlockUp>) {
        if let Some(c) = self.inner.on_update(delta) {
            out.send(BlockUp::Count(c));
        }
    }

    fn on_down(&mut self, _t: Time, msg: &BlockDown, _is_request: bool, out: &mut Outbox<BlockUp>) {
        match msg {
            BlockDown::Request => {
                let (c, f) = self.inner.report();
                out.send(BlockUp::Report { c, f });
            }
            BlockDown::NewBlock { r } => self.inner.start_block(*r),
        }
    }
}

/// Coordinator node running only the partitioner; estimates `f` by the
/// last block-end sync (no in-block guarantee — trackers add that).
#[derive(Debug, Clone)]
pub struct BlockOnlyCoord {
    inner: BlockCoordinator,
}

impl BlockOnlyCoord {
    /// Fresh coordinator for `k` sites, with block logging enabled.
    pub fn new(k: usize) -> Self {
        let mut inner = BlockCoordinator::new(BlockConfig::new(k));
        inner.enable_log();
        BlockOnlyCoord { inner }
    }

    /// Access the partitioner state (block log, radius, ...).
    pub fn blocks(&self) -> &BlockCoordinator {
        &self.inner
    }
}

impl CoordinatorNode for BlockOnlyCoord {
    type Up = BlockUp;
    type Down = BlockDown;

    fn on_up(&mut self, t: Time, _site: usize, msg: BlockUp, out: &mut CoordOutbox<BlockDown>) {
        match msg {
            BlockUp::Count(c) => {
                if self.inner.on_count(c) {
                    out.request(BlockDown::Request);
                }
            }
            BlockUp::Report { c, f } => {
                if let Some(r) = self.inner.on_report(t, c, f) {
                    out.broadcast(BlockDown::NewBlock { r });
                }
            }
        }
    }

    fn estimate(&self) -> i64 {
        self.inner.f_sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::StarSim;

    #[test]
    fn threshold_and_radius_formulas() {
        assert_eq!(threshold_for(0), 1);
        assert_eq!(threshold_for(1), 1);
        assert_eq!(threshold_for(2), 2);
        assert_eq!(threshold_for(5), 16);
        // r = 0 below 4k.
        assert_eq!(radius_for(0, 4), 0);
        assert_eq!(radius_for(15, 4), 0);
        // 2^r·2k ≤ f < 2^r·4k with k = 4.
        assert_eq!(radius_for(16, 4), 1); // 16 ∈ [16, 32)
        assert_eq!(radius_for(31, 4), 1);
        assert_eq!(radius_for(32, 4), 2); // 32 ∈ [32, 64)
        assert_eq!(radius_for(1 << 20, 4), 17); // 2^20 / 8 = 2^17
    }

    #[test]
    fn radius_invariant_holds_for_all_f() {
        for k in [1usize, 3, 8] {
            for f in 0u64..10_000 {
                let r = radius_for(f, k);
                if f < 4 * k as u64 {
                    assert_eq!(r, 0);
                } else {
                    assert!(r >= 1);
                    let lo = (1u64 << r) * 2 * k as u64;
                    let hi = (1u64 << r) * 4 * k as u64;
                    assert!(
                        (lo..hi).contains(&f),
                        "k={k}, f={f}: r={r} gives [{lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn site_threshold_fires_every_threshold_updates() {
        let mut s = BlockSite::new();
        s.start_block(3); // threshold 4
        let mut fired = 0;
        for i in 0..16 {
            if s.on_update(1).is_some() {
                fired += 1;
                assert_eq!((i + 1) % 4, 0);
            }
        }
        assert_eq!(fired, 4);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.drift_since_broadcast(), 16);
    }

    #[test]
    fn site_report_resets_count_not_drift() {
        let mut s = BlockSite::new();
        s.start_block(4); // threshold 8
        for _ in 0..5 {
            s.on_update(-1);
        }
        let (c, f) = s.report();
        assert_eq!((c, f), (5, -5));
        assert_eq!(s.pending(), 0);
        assert_eq!(s.drift_since_broadcast(), -5);
        s.start_block(0);
        assert_eq!(s.drift_since_broadcast(), 0);
    }

    fn run_blocks(k: usize, deltas: &[i64]) -> (StarSim<BlockOnlySite, BlockOnlyCoord>, Vec<i64>) {
        let mut sim = StarSim::with_k(k, |_| BlockOnlySite::new(), BlockOnlyCoord::new(k));
        let mut values = Vec::with_capacity(deltas.len());
        let mut f = 0i64;
        for (i, &d) in deltas.iter().enumerate() {
            f += d;
            values.push(f);
            sim.step(i % k, d);
        }
        (sim, values)
    }

    #[test]
    fn restore_keeps_the_receivers_log_choice() {
        let deltas: Vec<i64> = (0..3_000)
            .map(|i| if i % 5 == 4 { -1 } else { 1 })
            .collect();
        let (sim, _) = run_blocks(3, &deltas);
        let logged = sim.coordinator().blocks();
        let mut image = Enc::new();
        logged.save_state(&mut image);
        let image = image.into_bytes();
        let mut plain = BlockCoordinator::new(BlockConfig::new(3));
        let mut unlogged_image = Enc::new();
        plain.save_state(&mut unlogged_image);
        let unlogged_image = unlogged_image.into_bytes();

        // A logless receiver decodes the log and drops it.
        plain.load_state(&mut Dec::new(&image)).unwrap();
        assert_eq!(plain.log(), None);
        assert_eq!(plain.block_index(), logged.block_index());
        // A logging receiver takes the image's log, or starts an empty one.
        let mut reader = BlockCoordinator::new(BlockConfig::new(3));
        reader.enable_log();
        reader.load_state(&mut Dec::new(&image)).unwrap();
        assert_eq!(reader.log(), logged.log());
        reader.load_state(&mut Dec::new(&unlogged_image)).unwrap();
        assert_eq!(reader.log(), Some(&[][..]));
    }

    #[test]
    fn block_boundaries_are_exact_syncs() {
        let k = 4;
        let deltas: Vec<i64> = (0..5_000)
            .map(|i| if i % 7 == 3 { -1 } else { 1 })
            .collect();
        let (sim, values) = run_blocks(k, &deltas);
        let log = sim.coordinator().blocks().log().unwrap();
        assert!(!log.is_empty());
        for b in log {
            assert_eq!(
                b.f_end,
                values[(b.end - 1) as usize],
                "block {} must sync exactly at its end",
                b.index
            );
        }
    }

    #[test]
    fn block_length_bounds_hold() {
        let k = 4;
        let deltas: Vec<i64> = (0..20_000).map(|_| 1).collect(); // monotone
        let (sim, _) = run_blocks(k, &deltas);
        let log = sim.coordinator().blocks().log().unwrap();
        assert!(log.len() > 5);
        for b in log {
            let th = threshold_for(b.r);
            assert!(
                b.len() >= th * k as u64 && b.len() <= (1u64 << b.r) * k as u64,
                "block {}: len {} outside [{}k, 2^r k] for r={}",
                b.index,
                b.len(),
                th,
                b.r
            );
        }
    }

    #[test]
    fn f_range_inside_blocks() {
        let k = 2;
        // A walk that grows then shrinks, to exercise several radii.
        let mut deltas: Vec<i64> = vec![1; 3_000];
        deltas.extend(std::iter::repeat_n(-1, 2_500));
        let (sim, values) = run_blocks(k, &deltas);
        let log = sim.coordinator().blocks().log().unwrap();
        for b in log {
            let bound = (1u64 << b.r) * k as u64;
            // The paper's in-block facts: |f(n) − f(n_j)| ≤ 2^r·k, and |f|
            // confined to [2^r·k, 2^r·5k] for r ≥ 1 (≤ 5k for r = 0).
            for t in b.start..b.end {
                let f_n = values[t as usize];
                assert!(
                    (f_n - b.f_start).unsigned_abs() <= bound,
                    "block {}: drift exceeded at t={}",
                    b.index,
                    t + 1
                );
                let abs = f_n.unsigned_abs();
                if b.r >= 1 {
                    assert!(abs >= (1u64 << b.r) * k as u64);
                    assert!(abs <= (1u64 << b.r) * 5 * k as u64);
                } else {
                    assert!(abs <= 5 * k as u64);
                }
            }
        }
    }

    #[test]
    fn per_block_message_cost_at_most_5k() {
        let k = 8;
        let deltas: Vec<i64> = (0..30_000)
            .map(|i| if i % 5 == 4 { -1 } else { 1 })
            .collect();
        let mut sim = StarSim::with_k(k, |_| BlockOnlySite::new(), BlockOnlyCoord::new(k));
        let mut prev = sim.stats().clone();
        let mut prev_blocks = 0usize;
        let mut per_block_msgs: Vec<u64> = Vec::new();
        for (i, &d) in deltas.iter().enumerate() {
            sim.step(i % k, d);
            let nblocks = sim.coordinator().blocks().log().unwrap().len();
            if nblocks > prev_blocks {
                let now = sim.stats().clone();
                per_block_msgs.push(now.since(&prev).total_messages());
                prev = now;
                prev_blocks = nblocks;
            }
        }
        assert!(per_block_msgs.len() > 10);
        for (j, &m) in per_block_msgs.iter().enumerate() {
            assert!(m <= 5 * k as u64, "block {j} used {m} messages > 5k");
        }
    }

    #[test]
    fn per_block_variability_gain_at_least_one_tenth() {
        use crate::variability::VariabilityMeter;
        let k = 4;
        let deltas: Vec<i64> = (0..20_000)
            .map(|i| if i % 3 == 2 { -1 } else { 1 })
            .collect();
        let mut sim = StarSim::with_k(k, |_| BlockOnlySite::new(), BlockOnlyCoord::new(k));
        let mut meter = VariabilityMeter::new();
        let mut v_series = Vec::with_capacity(deltas.len());
        for (i, &d) in deltas.iter().enumerate() {
            meter.observe(d);
            v_series.push(meter.value());
            sim.step(i % k, d);
        }
        let log = sim.coordinator().blocks().log().unwrap();
        assert!(log.len() > 5);
        for b in log {
            let v_start = if b.start == 0 {
                0.0
            } else {
                v_series[(b.start - 1) as usize]
            };
            let v_end = v_series[(b.end - 1) as usize];
            assert!(
                v_end - v_start >= 0.1 - 1e-9,
                "block {}: Δv = {} < 1/10",
                b.index,
                v_end - v_start
            );
        }
    }

    #[test]
    fn k_equals_one_works() {
        let (sim, values) = run_blocks(1, &vec![1i64; 100]);
        let log = sim.coordinator().blocks().log().unwrap();
        assert!(!log.is_empty());
        // Coordinator's estimate equals f at the last sync.
        let last = log.last().unwrap();
        assert_eq!(sim.estimate(), values[(last.end - 1) as usize]);
    }
}
