//! The boundary cut every ingestion path shares: feed validation, the
//! round chunking rule, the one boundary fold, the run audit, and report
//! assembly. Whatever executes a round — the routed dispatcher, the
//! worker loop, shard workers behind sockets — ends it in [`Cut::fold`],
//! which is what keeps the engines bit-identical by construction.

use crate::checkpoint::EngineCheckpoint;
use crate::config::EngineConfig;
use crate::merge::MergeCoordinator;
use crate::partition::InputDelta;
use crate::report::EngineReport;
use dsv_core::api::{RunError, TrackerKind};
use dsv_core::codec::{CodecError, Dec, Enc, TrackerState};
use dsv_net::{relative_error, CommStats, ErrorProbe, IngestStats, SiteId, Time};
use std::time::Instant;

/// Reject a site the replicas do not have.
pub(crate) fn check_site(site: SiteId, k: usize, time: Time) -> Result<(), RunError> {
    if site >= k {
        return Err(RunError::SiteOutOfRange { site, k, time });
    }
    Ok(())
}

/// Validate pre-parted feeds before anything runs: sites in range, and
/// insert-only kinds reject feeds containing deletions (reported at the
/// time the deletion would have been consumed, counting from `time`).
pub(crate) fn validate_feeds<In: InputDelta>(
    feeds: &[(SiteId, &[In])],
    k: usize,
    kind: TrackerKind,
    time: Time,
) -> Result<(), RunError> {
    for &(site, inputs) in feeds {
        check_site(site, k, time)?;
        if !kind.supports_deletions() {
            if let Some(pos) = inputs.iter().position(|&x| x.delta_of() < 0) {
                return Err(RunError::DeletionUnsupported {
                    kind,
                    time: time + pos as Time + 1,
                });
            }
        }
    }
    Ok(())
}

/// The chunking rule: round `round`'s slice of a feed of `len` inputs is
/// `[round·batch, (round+1)·batch)` clipped to the feed, or `None` once
/// the feed is exhausted.
pub(crate) fn chunk_bounds(len: usize, batch: usize, round: usize) -> Option<(usize, usize)> {
    let lo = (round * batch).min(len);
    let hi = ((round + 1) * batch).min(len);
    (lo < hi).then_some((lo, hi))
}

/// One shard's end-of-round report — what every engine folds at a
/// boundary (and what a remote worker sends, as
/// `remote::wire::RoundEntry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRound {
    /// The reporting shard.
    pub sid: usize,
    /// Its local estimate after this round's chunks.
    pub estimate: i64,
    /// Sum of the round's deltas at this shard (ground truth).
    pub sum: i64,
    /// Inputs consumed this round at this shard.
    pub len: u64,
}

/// Per-call audit accumulator: the boundary count, ε-violations, worst
/// error, sampled probes, and where the call started (time and clock).
pub(crate) struct RunAudit {
    eps: f64,
    probe_every: u64,
    batches: u64,
    violations: u64,
    max_err: f64,
    probes: Vec<ErrorProbe>,
    time0: Time,
    started: Instant,
}

impl RunAudit {
    /// Start auditing an ingestion call that begins at `cut`.
    pub(crate) fn start(cfg: &EngineConfig, cut: &Cut) -> Self {
        RunAudit {
            eps: cfg.eps_value(),
            probe_every: cfg.probe_period(),
            batches: 0,
            violations: 0,
            max_err: 0.0,
            probes: Vec::new(),
            time0: cut.time,
            started: Instant::now(),
        }
    }

    /// Audit one batch boundary: global truth `f` vs merged estimate.
    fn boundary(&mut self, time: Time, f: i64, fhat: i64) {
        self.batches += 1;
        let err = relative_error(f, fhat);
        if err > self.max_err {
            self.max_err = err;
        }
        // Same float-slack convention as the sequential Driver.
        if err > self.eps * (1.0 + 1e-12) {
            self.violations += 1;
        }
        if self.probe_every > 0 && self.batches.is_multiple_of(self.probe_every) {
            self.probes.push(ErrorProbe {
                time,
                f,
                fhat,
                rel_err: err,
            });
        }
    }
}

/// The coordinator-side state every boundary advances: the merged
/// estimate, consumed time, ground truth, and per-shard inputs absorbed
/// since each shard's state was last captured.
///
/// Tracker state is a pure function of the inputs a replica consumed, so
/// a zero `dirty` counter proves a shard's snapshot is unchanged — the
/// dirty-shard skip that keeps periodic checkpoints from reserializing
/// quiet shards. Counting *inputs* rather than watching the tracker
/// ledger is deliberate: trackers mutate internal state (round counters,
/// samplers) without sending messages.
#[derive(Debug)]
pub(crate) struct Cut {
    pub(crate) merge: MergeCoordinator,
    pub(crate) time: Time,
    pub(crate) f: i64,
    pub(crate) dirty: Vec<u64>,
}

impl Cut {
    pub(crate) fn new(shards: usize) -> Self {
        Cut {
            merge: MergeCoordinator::new(shards),
            time: 0,
            f: 0,
            dirty: vec![0; shards],
        }
    }

    /// The boundary fold: apply one round's reports (at most one per
    /// shard, any order) — ground truth, time and dirty counters first,
    /// then the shard estimates in ascending shard order — and audit the
    /// boundary. Shards without a report keep their last estimate in the
    /// merge, which is still exact (the delta-reporting rule).
    pub(crate) fn fold(&mut self, audit: &mut RunAudit, reports: &mut [ShardRound]) {
        reports.sort_unstable_by_key(|r| r.sid);
        for r in reports.iter() {
            self.f += r.sum;
            self.time += r.len;
            self.dirty[r.sid] += r.len;
        }
        for r in reports.iter() {
            self.merge.absorb(r.sid, r.estimate);
        }
        audit.boundary(self.time, self.f, self.merge.estimate());
    }

    /// Package the cut with the shards' states as an [`EngineCheckpoint`].
    pub(crate) fn checkpoint(
        &self,
        kind: TrackerKind,
        k: usize,
        states: Vec<TrackerState>,
    ) -> EngineCheckpoint {
        let mut merge = Enc::new();
        self.merge.save_state(&mut merge);
        EngineCheckpoint::new(kind, k, self.time, self.f, merge.into_bytes(), states)
    }

    /// Restore the cut recorded in `ckpt` (shard states are the caller's).
    pub(crate) fn restore(&mut self, ckpt: &EngineCheckpoint) -> Result<(), CodecError> {
        let mut dec = Dec::new(ckpt.merge());
        self.merge.load_state(&mut dec)?;
        dec.finish()?;
        self.time = ckpt.time();
        self.f = ckpt.f();
        Ok(())
    }

    /// The report of the call `audit` covered.
    pub(crate) fn finish(
        &self,
        audit: RunAudit,
        cfg: &EngineConfig,
        workers: usize,
        tracker_stats: CommStats,
        ingest_stats: IngestStats,
    ) -> EngineReport {
        EngineReport {
            n: self.time - audit.time0,
            batches: audit.batches,
            shards: cfg.shards_count(),
            workers,
            batch_size: cfg.batch_size(),
            final_f: self.f,
            final_estimate: self.merge.estimate(),
            boundary_violations: audit.violations,
            max_boundary_rel_err: audit.max_err,
            tracker_stats,
            merge_stats: self.merge.stats().clone(),
            ingest_stats,
            probes: audit.probes,
            elapsed: audit.started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_absorbs_in_shard_order_whatever_the_arrival_order() {
        let cfg = EngineConfig::new(3, 4);
        let mut cut = Cut::new(3);
        let mut audit = RunAudit::start(&cfg, &cut);
        let report = |sid, estimate, len| ShardRound {
            sid,
            estimate,
            sum: estimate,
            len,
        };
        let mut reports = [report(2, 5, 5), report(0, 3, 3)];
        cut.fold(&mut audit, &mut reports);
        assert_eq!(reports.map(|r| r.sid), [0, 2]);
        assert_eq!((cut.time, cut.f, cut.merge.estimate()), (8, 8, 8));
        assert_eq!(cut.dirty, vec![3, 0, 5]);
        let report = cut.finish(audit, &cfg, 1, CommStats::new(), IngestStats::new());
        assert_eq!(
            (report.n, report.batches, report.boundary_violations),
            (8, 1, 0)
        );
    }
}
