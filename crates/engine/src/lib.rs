//! # dsv-engine — batched, sharded execution engine
//!
//! The tracking algorithms in `dsv-core` are defined — and audited — one
//! update at a time: the `Driver` feeds a stream through a single tracker
//! and checks the `(1±ε)` guarantee after every step. That is the right
//! *semantics* but the wrong *execution model* for the ROADMAP's "fast as
//! the hardware allows" target: per-update dynamic dispatch, per-update
//! auditing, and a single thread.
//!
//! This crate executes the same trackers the way high-throughput stream
//! systems do (cf. differential dataflow): **ingest in batches, shard
//! across workers, reconcile at batch boundaries**.
//!
//! * [`ShardedEngine`] partitions an update stream across `S` shards
//!   ([`Partition`]: site-affine or round-robin for counter streams,
//!   item-hashed for item streams), drives one tracker replica per shard
//!   on its own worker thread, and feeds each replica through the batched
//!   [`Tracker::update_batch`](dsv_core::api::Tracker::update_batch) path
//!   (which routes message-free runs through the hot kinds'
//!   `absorb_quiet` kernels instead of the per-update simulator loop).
//! * At every batch boundary the shards reconcile with a coordinator-side
//!   **global estimate**: a shard whose local estimate changed sends one
//!   [`ShardReport`](dsv_net::ShardReport) (charged to a [`CommStats`](dsv_net::CommStats)
//!   ledger like any other message of the model), and the coordinator
//!   maintains `f̂ = Σ_s f̂_s` incrementally.
//! * The boundary estimate inherits the paper's guarantee: each replica
//!   maintains `|f̂_s − f_s| ≤ ε·|f_s|` over its partial stream, so
//!   `|f̂ − f| ≤ ε·Σ_s|f_s|`, which equals `ε·|f|` whenever the partial
//!   sums agree in sign (insert-only and drift-dominated streams) — see
//!   `DESIGN.md` §5 for the full argument. The engine audits this at
//!   every boundary and reports violations in its [`EngineReport`].
//!
//! With `S = 1` the engine is **bit-identical** to the sequential path —
//! same estimates, same [`CommStats`](dsv_net::CommStats) — for every kind, including the
//! randomized ones (same replica, same seed, same update order); the
//! facade's `tests/engine_equivalence.rs` holds it to that.
//!
//! Ingestion comes in three shapes, strongest guarantee first:
//! [`ShardedEngine::run`] (central router over a timed stream),
//! [`ShardedEngine::run_parted`] (pre-parted per-site feeds, one
//! synchronized round at a time), and [`ShardedEngine::run_pipelined`]
//! (per-feed bounded queues — see the [`ingest`] types [`ShardFeed`] /
//! [`Backpressure`] — where feeding, shard execution, and coordinator
//! reconciliation all overlap while keeping estimates and ledgers
//! bit-identical to `run_parted`). The optional `async-ingest` feature
//! adds runtime-agnostic `push_async` futures to the feed handles.
//!
//! For multi-tenant workloads — millions of independent `(tenant,
//! metric)` functions rather than one big one — the [`fleet`] module's
//! [`TrackerFleet`] serves keyed trackers out of per-shard state slabs
//! with the same boundary discipline, per-key ε-audits, fleet-wide
//! queries ([`TrackerFleet::top_k`]), keyed pipelined ingestion
//! ([`FleetFeed`]), and a versioned [`FleetCheckpoint`].
//!
//! ```
//! use dsv_core::api::{TrackerKind, TrackerSpec};
//! use dsv_engine::{EngineConfig, ShardedEngine};
//! use dsv_net::Update;
//!
//! let spec = TrackerSpec::new(TrackerKind::Deterministic).k(4).eps(0.1);
//! let mut engine =
//!     ShardedEngine::counters(spec, EngineConfig::new(2, 512).eps(0.1)).unwrap();
//! let updates: Vec<Update> = (1..=10_000)
//!     .map(|t| Update::new(t, (t % 4) as usize, 1))
//!     .collect();
//! let report = engine.run(&updates).unwrap();
//! assert_eq!(report.boundary_violations, 0);
//! assert!(report.final_estimate > 0);
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod config;
mod consolidate;
pub mod delta;
pub mod fleet;
pub mod ingest;
mod merge;
mod partition;
#[cfg(feature = "remote")]
pub mod remote;
mod report;
mod round;
mod sharded;

pub use checkpoint::{EngineCheckpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use config::{EngineConfig, EngineError};
pub use consolidate::{ConsolidateInput, Consolidator};
pub use delta::{CheckpointStore, DeltaStats, STORE_MAGIC, STORE_VERSION};
pub use fleet::{
    CounterFleet, FleetCheckpoint, FleetDelta, FleetMemory, FleetReport, ItemFleet, KeyAudit,
    TrackerFleet, FLEET_MAGIC, FLEET_VERSION,
};
pub use ingest::{Backpressure, FeedError, FleetFeed, ShardFeed};
pub use partition::{InputDelta, Partition, ShardRecord};
pub use report::EngineReport;
pub use sharded::{CounterEngine, ItemEngine, ShardedEngine};

#[cfg(feature = "async-ingest")]
pub use ingest::{AsyncPush, AsyncPushBatch};
