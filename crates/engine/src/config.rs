//! Engine configuration and errors.

use crate::ingest::Backpressure;
use crate::Partition;
use dsv_core::api::{BuildError, RunError};
use dsv_net::codec::CodecError;
use dsv_net::Time;

/// Configuration of a [`crate::ShardedEngine`].
///
/// | Parameter | Default | Meaning |
/// |-----------|---------|---------|
/// | `shards`  | —       | Number of shard replicas `S` (worker threads for `S > 1`) |
/// | `batch`   | —       | Updates per ingestion batch (reconciliation period) |
/// | [`partition`](Self::partition) | [`Partition::SiteAffine`] | Stream → shard routing |
/// | [`eps`](Self::eps) | `0.1` | Relative error audited at batch boundaries |
/// | [`probe_every`](Self::probe_every) | `1` | Record an error probe every N boundaries (0 = never) |
/// | [`workers`](Self::workers) | `= shards` | Worker threads executing the shard replicas |
/// | [`backpressure`](Self::backpressure) | [`Backpressure::Block`] | Full-queue policy for pipelined feeds |
/// | [`queue_capacity`](Self::queue_capacity) | `2 × batch` | Bounded capacity of each pipelined feed queue, in inputs |
/// | [`checkpoint_every`](Self::checkpoint_every) | `0` (off) | Auto-checkpoint sink period, in batch boundaries |
/// | [`fleet_cache`](Self::fleet_cache) | `1024` | Live per-key trackers cached per fleet shard (fleet only) |
/// | [`fleet_gc_bytes`](Self::fleet_gc_bytes) | `64 KiB` | Minimum per-shard arena garbage before the fleet compacts (fleet only) |
/// | [`consolidate`](Self::consolidate) | `false` | Pre-aggregate same-site runs (RLE / sort-merge) before ingestion |
/// | [`delta_rebase`](Self::delta_rebase) | `0` (off) | Delta checkpointing: fresh base snapshot every K chained deltas |
/// | [`rounds_per_frame`](Self::rounds_per_frame) | `1` | Remote pipelining: rounds batched per wire frame (≤1 = synchronous ping-pong) |
///
/// **Shards vs workers.** `shards` is the *logical* partitioning: how many
/// tracker replicas the stream is split across. It is part of the engine's
/// checkpointed identity — state lives per shard, and the stream → shard
/// routing is a pure function of the record and the shard count, so
/// changing it would change which replica owns which updates. `workers` is
/// the *physical* parallelism: how many threads drive those replicas
/// (worker `w` owns shards `s ≡ w (mod W)`). It is **not** state — any
/// worker count produces bit-identical estimates and ledgers — which is
/// exactly what makes live rescaling ([`crate::ShardedEngine::rescale`])
/// and resuming a checkpoint onto a different number of workers exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    shards: usize,
    batch: usize,
    partition: Partition,
    eps: f64,
    probe_every: u64,
    workers: usize,
    backpressure: Backpressure,
    queue_capacity: Option<usize>,
    checkpoint_every: u64,
    fleet_cache: Option<usize>,
    fleet_gc_bytes: usize,
    consolidate: bool,
    delta_rebase: u64,
    rounds_per_frame: usize,
}

impl EngineConfig {
    /// A configuration with `shards` replicas ingesting in batches of
    /// `batch` updates, and the documented defaults otherwise.
    pub fn new(shards: usize, batch: usize) -> Self {
        EngineConfig {
            shards,
            batch,
            partition: Partition::SiteAffine,
            eps: 0.1,
            probe_every: 1,
            workers: 0,
            backpressure: Backpressure::Block,
            queue_capacity: None,
            checkpoint_every: 0,
            fleet_cache: None,
            fleet_gc_bytes: 64 * 1024,
            consolidate: false,
            delta_rebase: 0,
            rounds_per_frame: 1,
        }
    }

    /// Rounds batched per wire frame on the remote path (default 1).
    /// Values ≤ 1 keep the PR 6 synchronous ping-pong: the coordinator
    /// ships one `Round` frame per worker and blocks on its report. For
    /// `n > 1` the remote engine switches to pipelined ingestion: round
    /// chunks are staged into per-worker bounded send queues (the same
    /// SPSC rings and [`Backpressure`] policies as
    /// [`crate::ShardedEngine::run_pipelined`]) and a writer thread per
    /// connection drains them into DSVR v3 `Rounds` envelopes carrying up
    /// to `n` rounds per length-prefixed frame, so staging overlaps
    /// socket writes and worker absorption. Purely an execution/transport
    /// knob: workers still answer one `RoundReport` per round, and the
    /// coordinator absorbs reports in round order, so estimates,
    /// ε-audits, `CommStats`, and checkpoint images are bit-identical to
    /// the in-process engine for **any** value. Two observable
    /// differences: `WireStats` counts fewer, fatter frames, and
    /// failover under pipelining always respawns the dead slot
    /// (`Recovery::Reattach` degrades to `Respawn`) — see DESIGN.md §12.
    /// Ignored everywhere outside the remote engine (`remote::RemoteEngine`,
    /// behind the `remote` feature).
    pub fn rounds_per_frame(mut self, n: usize) -> Self {
        self.rounds_per_frame = n;
        self
    }

    /// Delta checkpointing (default 0 = off): when `every > 0`, checkpoint
    /// sinks built on [`crate::CheckpointStore`] record each boundary as a
    /// chain of [`dsv_net::StateDelta`] links against the previous
    /// snapshot, forcing a fresh full base every `every` deltas (so
    /// reconstructing any retained boundary replays at most `every`
    /// links), and the remote engine ships `DSVD` deltas instead of full
    /// snapshots on its `Checkpoint` pulls. Purely a checkpoint-transport
    /// knob: materialized checkpoints, estimates, and the tracker/merge
    /// ledgers are bit-identical with it on or off — only the bytes that
    /// move (and the `checkpoint_stats` words that charge them) shrink.
    pub fn delta_rebase(mut self, every: u64) -> Self {
        self.delta_rebase = every;
        self
    }

    /// Pre-aggregate each same-site run before the shard's tracker sees
    /// it (default off): counter runs are run-length encoded and absorbed
    /// segment-at-a-time, item runs are sorted with duplicate items
    /// merged — see [`crate::Consolidator`]. Purely an execution knob:
    /// estimates, ε-audits, `CommStats`, and checkpoint bytes are
    /// bit-identical with it on or off (held by
    /// `tests/consolidation_equivalence.rs` for all ten kinds); it only
    /// changes how fast a batch is chewed through.
    pub fn consolidate(mut self, on: bool) -> Self {
        self.consolidate = on;
        self
    }

    /// Live per-key trackers a [`crate::TrackerFleet`] keeps materialized
    /// per shard (default 1024). Hot keys stay live across boundaries;
    /// cold keys are frozen back into the shard's state arena on
    /// eviction. Purely an execution knob: fleet estimates, ledgers, and
    /// checkpoints are bit-identical for **any** capacity ≥ 1 (the
    /// snapshot → restore → snapshot round-trip is byte-identical), so
    /// size it for your working set, not for correctness. Zero is
    /// rejected by validation. Ignored by [`crate::ShardedEngine`].
    pub fn fleet_cache(mut self, capacity: usize) -> Self {
        self.fleet_cache = Some(capacity);
        self
    }

    /// Minimum dead bytes in a fleet shard's state arena before it is
    /// compacted (default 64 KiB). Freezing a key appends its fresh
    /// record and strands the old one; a shard compacts when garbage
    /// exceeds both this floor and the live bytes. Another pure execution
    /// knob — compaction moves bytes, never changes them. Ignored by
    /// [`crate::ShardedEngine`].
    pub fn fleet_gc_bytes(mut self, bytes: usize) -> Self {
        self.fleet_gc_bytes = bytes;
        self
    }

    /// Auto-checkpoint each shard every `every` batch boundaries (default
    /// 0 = never). The remote engine uses this as its durability sink:
    /// shard state captured every N boundaries bounds how much stream a
    /// failover has to replay. Checkpoint traffic is charged to the
    /// separate `checkpoint_stats` ledger, so the period never perturbs
    /// tracker/merge equivalence.
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Full-queue policy for pipelined feed pushes (default
    /// [`Backpressure::Block`]); see
    /// [`crate::ShardedEngine::run_pipelined`].
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }

    /// Bounded capacity of each pipelined feed queue, in inputs (default
    /// `2 × batch`, so a feed can stage the next round while the worker
    /// drains the current one). Zero is rejected by validation — a
    /// zero-capacity queue can never carry an input.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Number of worker threads driving the shard replicas (default: one
    /// per shard). Clamped to the shard count at execution time; `0`
    /// restores the default rather than meaning "no workers" (the live
    /// [`crate::ShardedEngine::rescale`], by contrast, rejects 0 with a
    /// typed error). See the struct docs for the shards-vs-workers
    /// distinction.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Stream → shard routing policy (default [`Partition::SiteAffine`]).
    pub fn partition(mut self, partition: Partition) -> Self {
        self.partition = partition;
        self
    }

    /// Relative error audited at batch boundaries (default 0.1).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Record an [`dsv_net::ErrorProbe`] every `every` batch boundaries
    /// (default 1 = every boundary; 0 = never — use for throughput runs).
    pub fn probe_every(mut self, every: u64) -> Self {
        self.probe_every = every;
        self
    }

    /// Number of shard replicas `S`.
    pub fn shards_count(&self) -> usize {
        self.shards
    }

    /// Number of worker threads (`= shards` unless overridden, and never
    /// more than the shard count).
    pub fn workers_count(&self) -> usize {
        if self.workers == 0 {
            self.shards
        } else {
            self.workers.min(self.shards)
        }
    }

    /// Updates per ingestion batch.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// The routing policy.
    pub fn partition_policy(&self) -> Partition {
        self.partition
    }

    /// The audited ε.
    pub fn eps_value(&self) -> f64 {
        self.eps
    }

    /// The probe period (0 = never).
    pub fn probe_period(&self) -> u64 {
        self.probe_every
    }

    /// The full-queue policy for pipelined feeds.
    pub fn backpressure_policy(&self) -> Backpressure {
        self.backpressure
    }

    /// The pipelined feed queue capacity in inputs (`2 × batch` unless
    /// overridden).
    pub fn queue_capacity_value(&self) -> usize {
        self.queue_capacity.unwrap_or(2 * self.batch)
    }

    /// The auto-checkpoint period in batch boundaries (0 = never).
    pub fn checkpoint_period(&self) -> u64 {
        self.checkpoint_every
    }

    /// The fleet's live-tracker cache capacity per shard (1024 unless
    /// overridden).
    pub fn fleet_cache_capacity(&self) -> usize {
        self.fleet_cache.unwrap_or(1024)
    }

    /// The fleet's per-shard arena garbage floor before compaction.
    pub fn fleet_gc_floor(&self) -> usize {
        self.fleet_gc_bytes
    }

    /// Whether same-site runs are consolidated before ingestion.
    pub fn consolidate_enabled(&self) -> bool {
        self.consolidate
    }

    /// The delta-checkpoint rebase period in chained deltas (0 = delta
    /// checkpointing off).
    pub fn delta_rebase_period(&self) -> u64 {
        self.delta_rebase
    }

    /// Rounds batched per remote wire frame (≤1 = synchronous
    /// one-round-per-frame ping-pong).
    pub fn rounds_per_frame_value(&self) -> usize {
        self.rounds_per_frame
    }

    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        if self.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        if self.batch == 0 {
            return Err(EngineError::ZeroBatch);
        }
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(EngineError::InvalidEps { eps: self.eps });
        }
        if self.queue_capacity == Some(0) {
            return Err(EngineError::ZeroQueueCapacity);
        }
        if self.fleet_cache == Some(0) {
            return Err(EngineError::ZeroFleetCache);
        }
        Ok(())
    }
}

/// A sharded engine that cannot be built or run, as a typed error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineError {
    /// The engine needs at least one shard.
    ZeroShards,
    /// The ingestion batch must hold at least one update.
    ZeroBatch,
    /// The boundary-audit ε must lie strictly inside `(0, 1)`.
    InvalidEps {
        /// The rejected value.
        eps: f64,
    },
    /// A shard replica could not be built.
    Build(BuildError),
    /// The stream cannot be run on the configured replicas (same
    /// conditions the sequential `Driver` rejects).
    Run(RunError),
    /// [`Partition::ByItem`] routing was asked of a record without an
    /// item key (a counter stream).
    MissingItemKey {
        /// Timestep of the offending record.
        time: Time,
    },
    /// A checkpoint could not be produced or restored (truncated,
    /// corrupted, wrong version, or an unsupported protocol).
    Codec(CodecError),
    /// A checkpoint disagrees with the engine it is being resumed into
    /// (different shard count, kind, or site count).
    CheckpointMismatch {
        /// What disagreed.
        what: &'static str,
        /// The value the engine requires.
        expected: u64,
        /// The value found in the checkpoint.
        found: u64,
    },
    /// A shard replica disagrees with replica 0 on kind or site count
    /// (the replicas track shards of one logical stream).
    ReplicaMismatch {
        /// The disagreeing replica.
        shard: usize,
        /// What disagreed.
        what: &'static str,
        /// Replica 0's value.
        expected: u64,
        /// This replica's value.
        found: u64,
    },
    /// [`crate::ShardedEngine::rescale`] needs at least one worker.
    ZeroWorkers,
    /// A pipelined feed queue must hold at least one input
    /// ([`EngineConfig::queue_capacity`] was 0).
    ZeroQueueCapacity,
    /// A tracker fleet needs room for at least one live tracker per
    /// shard ([`EngineConfig::fleet_cache`] was 0).
    ZeroFleetCache,
    /// A fleet operation addressed a key the fleet has never seen.
    UnknownKey {
        /// The unknown key.
        key: u64,
    },
    /// A [`crate::CheckpointStore`] was asked to materialize a boundary
    /// it does not retain.
    UnknownBoundary {
        /// The requested boundary time.
        time: Time,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroShards => write!(fm, "need at least one shard"),
            EngineError::ZeroBatch => write!(fm, "batch size must be at least 1"),
            EngineError::InvalidEps { eps } => {
                write!(fm, "eps must be in (0, 1), got {eps}")
            }
            EngineError::Build(e) => write!(fm, "building a shard replica failed: {e}"),
            EngineError::Run(e) => write!(fm, "stream rejected: {e}"),
            EngineError::MissingItemKey { time } => write!(
                fm,
                "ByItem partitioning needs an item stream, but the record at t = {time} has no item key"
            ),
            EngineError::Codec(e) => write!(fm, "checkpoint codec failure: {e}"),
            EngineError::CheckpointMismatch {
                what,
                expected,
                found,
            } => write!(
                fm,
                "checkpoint mismatch: {what} is {found} in the checkpoint but {expected} in the engine"
            ),
            EngineError::ReplicaMismatch {
                shard,
                what,
                expected,
                found,
            } => write!(
                fm,
                "shard replica {shard} disagrees with replica 0: {what} is {found}, expected {expected}"
            ),
            EngineError::ZeroWorkers => write!(fm, "need at least one worker"),
            EngineError::ZeroQueueCapacity => {
                write!(fm, "pipelined feed queues need capacity for at least one input")
            }
            EngineError::ZeroFleetCache => {
                write!(fm, "a fleet needs room for at least one live tracker per shard")
            }
            EngineError::UnknownKey { key } => {
                write!(fm, "the fleet has never seen key {key}")
            }
            EngineError::UnknownBoundary { time } => {
                write!(fm, "the checkpoint store retains no boundary at t = {time}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CodecError> for EngineError {
    fn from(e: CodecError) -> Self {
        EngineError::Codec(e)
    }
}

impl From<BuildError> for EngineError {
    fn from(e: BuildError) -> Self {
        EngineError::Build(e)
    }
}

impl From<RunError> for EngineError {
    fn from(e: RunError) -> Self {
        EngineError::Run(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert_eq!(
            EngineConfig::new(0, 10).validate(),
            Err(EngineError::ZeroShards)
        );
        assert_eq!(
            EngineConfig::new(2, 0).validate(),
            Err(EngineError::ZeroBatch)
        );
        for eps in [0.0, 1.0, -0.2, f64::NAN] {
            assert!(matches!(
                EngineConfig::new(2, 10).eps(eps).validate(),
                Err(EngineError::InvalidEps { .. })
            ));
        }
        assert!(EngineConfig::new(8, 65_536).eps(0.05).validate().is_ok());
        assert_eq!(
            EngineConfig::new(2, 10).queue_capacity(0).validate(),
            Err(EngineError::ZeroQueueCapacity)
        );
        assert!(EngineConfig::new(2, 10)
            .queue_capacity(1)
            .validate()
            .is_ok());
        assert_eq!(
            EngineConfig::new(2, 10).fleet_cache(0).validate(),
            Err(EngineError::ZeroFleetCache)
        );
        assert!(EngineConfig::new(2, 10).fleet_cache(1).validate().is_ok());
    }

    #[test]
    fn fleet_knobs_have_documented_defaults() {
        let cfg = EngineConfig::new(4, 1_000);
        assert_eq!(cfg.fleet_cache_capacity(), 1024);
        assert_eq!(cfg.fleet_gc_floor(), 64 * 1024);
        let cfg = cfg.fleet_cache(16).fleet_gc_bytes(1 << 20);
        assert_eq!(cfg.fleet_cache_capacity(), 16);
        assert_eq!(cfg.fleet_gc_floor(), 1 << 20);
    }

    #[test]
    fn queue_capacity_defaults_to_double_buffering() {
        let cfg = EngineConfig::new(4, 1_000);
        assert_eq!(cfg.queue_capacity_value(), 2_000);
        assert_eq!(cfg.backpressure_policy(), Backpressure::Block);
        let cfg = cfg.queue_capacity(64).backpressure(Backpressure::Yield);
        assert_eq!(cfg.queue_capacity_value(), 64);
        assert_eq!(cfg.backpressure_policy(), Backpressure::Yield);
    }

    #[test]
    fn errors_display_and_convert() {
        let e: EngineError = BuildError::ZeroSites.into();
        assert!(matches!(e, EngineError::Build(_)));
        let e: EngineError = RunError::SiteOutOfRange {
            site: 9,
            k: 2,
            time: 3,
        }
        .into();
        assert!(e.to_string().contains("site 9"));
        assert!(!EngineError::MissingItemKey { time: 7 }
            .to_string()
            .is_empty());
    }
}
