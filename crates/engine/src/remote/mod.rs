//! Distributed shard processes over sockets with fault-injected
//! checkpoint failover.
//!
//! [`RemoteEngine`] serves the `S` logical shards of a
//! [`crate::ShardedEngine`] from separate shard workers — OS processes
//! running the `dsv-shard-server` binary, or in-process threads — behind
//! the `dsv-net` length-prefixed transport (version-tagged handshake,
//! per-connection timeouts, bounded retry-with-backoff connects). The
//! coordinator drives workers exactly like `run_parted` drives feeds:
//! rounds of `batch` inputs per feed, ground truth folded and shard
//! estimates absorbed at every round boundary, the same ε-audit at the
//! same cut.
//!
//! **Equivalence.** A remote run is *bit-identical* to the in-process
//! [`crate::ShardedEngine::run_parted`] over the same feeds: same
//! estimates, same per-shard replica states, same tracker and merge
//! [`CommStats`] ledgers. The transport's own costs live on separate
//! ledgers ([`RemoteEngine::wire_stats`], `checkpoint_stats`), so moving
//! shards off-process never perturbs the guarantee the facade's
//! `tests/remote_equivalence.rs` holds the engine to.
//!
//! **Pipelining.** With [`EngineConfig::rounds_per_frame`]` > 1` the
//! coordinator stops ping-ponging one round per frame: round commands
//! are staged into a bounded per-worker send queue (the same SPSC ring
//! and [`crate::Backpressure`] policies that drive
//! [`crate::ShardedEngine::run_pipelined`]), and a writer thread per
//! connection drains them into DSVR v3 `Rounds` envelopes of up to
//! `rounds_per_frame` rounds per frame while the coordinator absorbs
//! earlier rounds' reports. Frame cuts are deterministic (fixed blocks,
//! never across a checkpoint boundary), workers still answer one report
//! per round, and reports are absorbed in round order — so everything
//! the equivalence contract covers is bit-identical at every
//! `rounds_per_frame`, and only the wire ledger (fewer, fatter frames)
//! moves. See DESIGN.md §12.
//!
//! **Failover.** [`EngineConfig::checkpoint_every`] turns on the
//! durability sink: every `N` boundaries the coordinator pulls each
//! *dirty* shard's [`TrackerState`] over the wire and commits a
//! consistent cut. When a worker dies — detected as a read/write timeout
//! or EOF on its connection — the coordinator respawns the slot (or
//! reattaches its shards to a live worker, [`Recovery`]), restores the
//! lost shards from the last committed cut, and **replays** the rounds
//! since that cut from the feeds it still holds: round chunks are a pure
//! function of `(feeds, batch, round)`, so no replay buffer exists.
//! Replayed reports are discarded — those rounds were already absorbed —
//! which is what keeps the merge ledger, and therefore the whole run,
//! bit-identical to an undisturbed one.
//!
//! **Fault injection.** [`FaultPlan`] makes the failure paths a
//! first-class test API: delay, sever, or kill a specific worker at a
//! chosen round, boundary, or checkpoint write. Faults fire once;
//! `tests/failover_injection.rs` sweeps the matrix.

pub mod wire;
pub mod worker;

use crate::checkpoint::EngineCheckpoint;
use crate::config::{EngineConfig, EngineError};
use crate::ingest::{Backpressure, Ring};
use crate::partition::InputDelta;
use crate::report::EngineReport;
use crate::round::{chunk_bounds, validate_feeds, Cut, RunAudit, ShardRound};
use dsv_core::api::{Problem, RunError, TrackerKind, TrackerSpec};
use dsv_core::codec::{CodecError, TrackerState};
use dsv_net::transport::{
    parse_hello, Conn, Endpoint, Listener, Role, TransportError, WireStats, DEFAULT_MAX_FRAME,
};
use dsv_net::{CommStats, IngestStats, MsgKind, SiteId, StateFrame, Time, WireSize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::marker::PhantomData;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Scope, ScopedJoinHandle};
use std::time::Duration;
use wire::{Chunk, Inputs, RoundWork, ShardInit, StateEntry, StatePull, ToCoord, ToWorker};

/// How the coordinator rendezvouses with its shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteTransport {
    /// TCP on loopback (`127.0.0.1`, OS-assigned port).
    Tcp,
    /// A Unix-domain socket under the system temp directory.
    #[cfg(unix)]
    Uds,
}

static UDS_SEQ: AtomicU64 = AtomicU64::new(0);

impl RemoteTransport {
    fn endpoint(self) -> Endpoint {
        match self {
            RemoteTransport::Tcp => Endpoint::Tcp("127.0.0.1:0".to_string()),
            #[cfg(unix)]
            RemoteTransport::Uds => Endpoint::Unix(std::env::temp_dir().join(format!(
                "dsv-remote-{}-{}.sock",
                std::process::id(),
                UDS_SEQ.fetch_add(1, Ordering::Relaxed),
            ))),
        }
    }
}

/// How shard workers are spawned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnMode {
    /// In-process threads running the same serve loop over real sockets
    /// (fast, deterministic teardown; `Kill` faults degrade to severs).
    Threads,
    /// Separate OS processes running the given `dsv-shard-server` binary.
    Processes {
        /// Path to the shard-server binary.
        bin: PathBuf,
    },
}

/// What to do with a dead worker's shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Spawn a replacement into the same worker slot (generation + 1).
    Respawn,
    /// Migrate the shards onto the next live worker; falls back to
    /// respawning when no other worker is alive.
    Reattach,
}

/// Configuration of the remote deployment (transport, spawning, timeouts,
/// recovery policy). [`EngineConfig`] keeps owning everything logical —
/// shards, batch, ε, the checkpoint period.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteConfig {
    /// Socket family for the coordinator ↔ worker links.
    pub transport: RemoteTransport,
    /// Worker deployment shape.
    pub spawn: SpawnMode,
    /// Coordinator-side read/write timeout per worker connection — the
    /// failure detector. A worker that does not answer within this window
    /// is declared dead and failed over.
    pub io_timeout: Duration,
    /// Worker-side read timeout. Generous by design: it only reaps
    /// workers orphaned by a dead coordinator, and must comfortably
    /// exceed any coordinator think-time between messages.
    pub worker_idle_timeout: Duration,
    /// How long the coordinator waits for a spawned worker to connect
    /// and complete the handshake.
    pub spawn_timeout: Duration,
    /// Connect retries a worker makes before giving up (linear backoff).
    pub connect_retries: u32,
    /// Base backoff between a worker's connect attempts.
    pub connect_backoff: Duration,
    /// Per-connection incoming-frame cap, in bytes.
    pub max_frame: usize,
    /// What to do with a dead worker's shards.
    pub recovery: Recovery,
    /// Failovers tolerated over the engine's lifetime before the run is
    /// abandoned with [`RemoteError::FailoverExhausted`].
    pub max_failovers: u32,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            transport: RemoteTransport::Tcp,
            spawn: SpawnMode::Threads,
            io_timeout: Duration::from_secs(2),
            worker_idle_timeout: Duration::from_secs(30),
            spawn_timeout: Duration::from_secs(10),
            connect_retries: 20,
            connect_backoff: Duration::from_millis(10),
            max_frame: DEFAULT_MAX_FRAME,
            recovery: Recovery::Respawn,
            max_failovers: 8,
        }
    }
}

/// Where in the run an injected fault fires (rounds are 0-based within
/// one `run_parted` call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// After the coordinator sends round `r`'s chunks, before it reads
    /// the report.
    MidRound(u64),
    /// After round `r` is absorbed and audited (before any auto
    /// checkpoint at that boundary, so the sink can be what detects the
    /// death).
    AtBoundary(u64),
    /// After the checkpoint request at the auto-checkpoint of boundary
    /// `r` is sent, before its reply is read.
    DuringCheckpoint(u64),
}

/// What the injected fault does to the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// SIGKILL the worker process (thread workers are severed instead —
    /// a thread cannot be killed).
    Kill,
    /// Shut the coordinator-side connection down in both directions.
    Sever,
    /// Make the worker sleep `ms` before processing, so the
    /// coordinator's [`RemoteConfig::io_timeout`] fires against a
    /// live-but-stalled worker. Only meaningful at
    /// [`FaultPoint::MidRound`]; elsewhere it degrades to a sever.
    Delay {
        /// Milliseconds to stall.
        ms: u64,
    },
}

/// A test-facing plan of faults to inject into a run. Each entry names a
/// point, a worker, and a kind; each fires exactly once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<(FaultPoint, usize, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault: do `kind` to `worker` at `point`.
    pub fn inject(mut self, point: FaultPoint, worker: usize, kind: FaultKind) -> Self {
        self.faults.push((point, worker, kind));
        self
    }

    /// Faults not yet fired.
    pub fn pending(&self) -> usize {
        self.faults.len()
    }

    fn take(&mut self, point: FaultPoint, worker: usize) -> Option<FaultKind> {
        let at = self
            .faults
            .iter()
            .position(|&(p, w, _)| p == point && w == worker)?;
        Some(self.faults.remove(at).2)
    }
}

/// One recovered worker failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEvent {
    /// The worker slot that died.
    pub worker: usize,
    /// Rounds fully absorbed when the death was detected.
    pub round: u64,
    /// Spawn generation of the recovered owner after recovery.
    pub generation: u64,
    /// The worker slot owning the shards after recovery (== `worker`
    /// for a respawn).
    pub recovered_to: usize,
    /// Rounds replayed from the last committed checkpoint.
    pub replayed_rounds: u64,
}

/// A remote engine that cannot be built or driven, as a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteError {
    /// A logical (in-process) engine error: bad config, rejected stream,
    /// codec failure.
    Engine(EngineError),
    /// Binding the coordinator's listener failed.
    Bind(TransportError),
    /// A worker process could not be spawned.
    Spawn {
        /// The worker slot.
        worker: usize,
        /// The OS error category.
        kind: std::io::ErrorKind,
    },
    /// A worker connection failed (timeout, EOF, I/O). Recovered by
    /// failover where possible; surfaced when recovery is off the table.
    Transport {
        /// The worker slot.
        worker: usize,
        /// The transport failure.
        err: TransportError,
    },
    /// A worker frame failed to decode.
    Decode {
        /// The worker slot.
        worker: usize,
        /// The codec failure.
        err: CodecError,
    },
    /// A worker answered with something the protocol forbids here.
    Protocol {
        /// The worker slot.
        worker: usize,
        /// What was violated.
        what: &'static str,
    },
    /// A worker refused an assignment (build/restore failed on its side).
    WorkerRejected {
        /// The worker slot.
        worker: usize,
        /// The worker's error message.
        msg: String,
    },
    /// More workers died than [`RemoteConfig::max_failovers`] tolerates.
    FailoverExhausted {
        /// The last worker slot that died.
        worker: usize,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Engine(e) => write!(fm, "{e}"),
            RemoteError::Bind(e) => write!(fm, "binding the coordinator listener failed: {e}"),
            RemoteError::Spawn { worker, kind } => {
                write!(fm, "spawning worker {worker} failed ({kind:?})")
            }
            RemoteError::Transport { worker, err } => {
                write!(fm, "worker {worker} connection failed: {err}")
            }
            RemoteError::Decode { worker, err } => {
                write!(fm, "worker {worker} sent an undecodable frame: {err}")
            }
            RemoteError::Protocol { worker, what } => {
                write!(fm, "worker {worker} broke protocol: {what}")
            }
            RemoteError::WorkerRejected { worker, msg } => {
                write!(fm, "worker {worker} rejected its assignment: {msg}")
            }
            RemoteError::FailoverExhausted { worker } => {
                write!(
                    fm,
                    "failover budget exhausted (last death: worker {worker})"
                )
            }
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<EngineError> for RemoteError {
    fn from(e: EngineError) -> Self {
        RemoteError::Engine(e)
    }
}

impl From<RunError> for RemoteError {
    fn from(e: RunError) -> Self {
        RemoteError::Engine(EngineError::Run(e))
    }
}

/// Inputs a remote engine can ship over the wire: the two `run_parted`
/// input families.
pub trait RemoteInput: InputDelta + Send + Sync {
    /// Package a chunk as the per-problem wire payload.
    fn wrap(chunk: &[Self]) -> Inputs;
}

impl RemoteInput for i64 {
    fn wrap(chunk: &[Self]) -> Inputs {
        Inputs::Counts(chunk.to_vec())
    }
}

impl RemoteInput for (u64, i64) {
    fn wrap(chunk: &[Self]) -> Inputs {
        Inputs::Items(chunk.to_vec())
    }
}

/// One worker slot: its live connection (None once dead), the OS child
/// or thread backing it, and its spawn generation.
struct Slot {
    conn: Option<Conn>,
    child: Option<Child>,
    thread: Option<JoinHandle<()>>,
    generation: u64,
}

/// The distributed coordinator: `run_parted` semantics over shard
/// workers living behind sockets.
///
/// Build with [`counters`](Self::counters) or [`items`](Self::items);
/// drive with [`run_parted`](Self::run_parted) (repeatedly — the engine
/// is incremental, like its in-process counterpart). A mandatory
/// checkpoint is committed at the end of every run, so between calls the
/// coordinator holds a complete consistent image of every shard — which
/// is what [`checkpoint`](Self::checkpoint) assembles, what failover in a
/// later call restores from, and what the report's tracker ledger is
/// computed from (by resuming the states locally).
pub struct RemoteEngine<In: RemoteInput> {
    spec: TrackerSpec,
    kind: TrackerKind,
    k: usize,
    cfg: EngineConfig,
    rcfg: RemoteConfig,
    listener: Listener,
    workers: Vec<Slot>,
    /// sid → owning worker slot (starts `sid % W`; reattach rewrites it).
    owner: Vec<usize>,
    /// The boundary state; its `dirty` counters count the inputs each
    /// shard absorbed since the last committed checkpoint cut (the
    /// dirty-shard skip, and exactly what a failover replay re-applies).
    cut: Cut,
    ckpt_stats: CommStats,
    wire: WireStats,
    /// Per-shard state at the last committed checkpoint cut.
    ckpt_states: Vec<Option<TrackerState>>,
    /// Per-shard delta base: the last snapshot each worker shipped (or
    /// was restored from), advanced on receipt — deliberately separate
    /// from the committed `ckpt_states`, because a worker advances its
    /// own base the moment it replies, whether or not the surrounding
    /// checkpoint round commits.
    wire_base: Vec<Option<TrackerState>>,
    /// Delta links received per shard since its last full pull — the
    /// rebase counter driving [`EngineConfig::delta_rebase`] over the
    /// wire (the coordinator requests a full state every K-th pull).
    links_since_base: Vec<u64>,
    faults: FaultPlan,
    events: Vec<FailoverEvent>,
    failovers: u32,
    graveyard: Vec<JoinHandle<()>>,
    _in: PhantomData<fn(In) -> In>,
}

impl RemoteEngine<i64> {
    /// Build a counting engine: spawn `W` workers, handshake each, and
    /// assign the shard replicas (`spec.shard(sid)` on the worker side).
    pub fn counters(
        spec: TrackerSpec,
        cfg: EngineConfig,
        rcfg: RemoteConfig,
    ) -> Result<Self, RemoteError> {
        let probe = spec
            .shard(0)
            .build()
            .map_err(|e| RemoteError::Engine(EngineError::Build(e)))?;
        Self::new(spec, cfg, rcfg, probe.kind(), probe.k())
    }
}

impl RemoteEngine<(u64, i64)> {
    /// Build an item-frequency engine; see
    /// [`counters`](RemoteEngine::counters).
    pub fn items(
        spec: TrackerSpec,
        cfg: EngineConfig,
        rcfg: RemoteConfig,
    ) -> Result<Self, RemoteError> {
        use dsv_core::api::Tracker;
        let probe = spec
            .shard(0)
            .build_item()
            .map_err(|e| RemoteError::Engine(EngineError::Build(e)))?;
        Self::new(spec, cfg, rcfg, probe.kind(), probe.k())
    }
}

impl<In: RemoteInput> RemoteEngine<In> {
    fn new(
        spec: TrackerSpec,
        cfg: EngineConfig,
        rcfg: RemoteConfig,
        kind: TrackerKind,
        k: usize,
    ) -> Result<Self, RemoteError> {
        cfg.validate().map_err(RemoteError::Engine)?;
        let s_count = cfg.shards_count();
        let w_count = cfg.workers_count();
        let listener = Listener::bind(&rcfg.transport.endpoint()).map_err(RemoteError::Bind)?;
        let mut engine = RemoteEngine {
            spec,
            kind,
            k,
            cfg,
            rcfg,
            listener,
            workers: Vec::new(),
            owner: (0..s_count).map(|sid| sid % w_count).collect(),
            cut: Cut::new(s_count),
            ckpt_stats: CommStats::new(),
            wire: WireStats::new(),
            ckpt_states: vec![None; s_count],
            wire_base: vec![None; s_count],
            links_since_base: vec![0; s_count],
            faults: FaultPlan::new(),
            events: Vec::new(),
            failovers: 0,
            graveyard: Vec::new(),
            _in: PhantomData,
        };
        for w in 0..w_count {
            engine.workers.push(Slot {
                conn: None,
                child: None,
                thread: None,
                generation: 0,
            });
            engine.spawn_worker(w, 0)?;
            let shards = (0..s_count)
                .filter(|&sid| engine.owner[sid] == w)
                .map(|sid| ShardInit { sid, state: None })
                .collect();
            engine.install(
                w,
                ToWorker::Assign {
                    spec: engine.spec,
                    s_count,
                    shards,
                },
            )?;
        }
        Ok(engine)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The replica kind.
    pub fn kind(&self) -> TrackerKind {
        self.kind
    }

    /// Updates consumed so far (across all runs).
    pub fn time(&self) -> Time {
        self.cut.time
    }

    /// The coordinator-side global estimate `f̂ = Σ_s f̂_s`.
    pub fn estimate(&self) -> i64 {
        self.cut.merge.estimate()
    }

    /// Engine-level shard → coordinator reconciliation traffic —
    /// bit-identical to the in-process engine's over the same feeds.
    pub fn merge_stats(&self) -> &CommStats {
        self.cut.merge.stats()
    }

    /// Snapshot traffic pulled over the wire by checkpoint commits, one
    /// [`StateFrame`] per dirty shard — the same ledger rule as
    /// [`crate::ShardedEngine::checkpoint`].
    pub fn checkpoint_stats(&self) -> &CommStats {
        &self.ckpt_stats
    }

    /// Measured socket traffic (frames and bytes both ways), summed over
    /// live and dead connections.
    pub fn wire_stats(&self) -> WireStats {
        let mut total = self.wire;
        for slot in &self.workers {
            if let Some(conn) = &slot.conn {
                total.merge(conn.stats());
            }
        }
        total
    }

    /// The coordinator's rendezvous endpoint (diagnostics).
    pub fn endpoint(&self) -> &Endpoint {
        self.listener.endpoint()
    }

    /// Recovered worker failures, in order.
    pub fn events(&self) -> &[FailoverEvent] {
        &self.events
    }

    /// Arm a fault plan for the next run (replaces any previous plan).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Per-shard local estimates, resumed locally from the last committed
    /// cut (exact between runs, because every run ends with a commit).
    pub fn shard_estimates(&self) -> Result<Vec<i64>, RemoteError> {
        Ok(self.resume_final()?.0)
    }

    /// In-protocol traffic summed across shard replicas, resumed locally
    /// from the last committed cut.
    pub fn tracker_stats(&self) -> Result<CommStats, RemoteError> {
        Ok(self.resume_final()?.1)
    }

    /// Assemble the engine's state as a restorable [`EngineCheckpoint`] —
    /// interchangeable with one taken by the in-process engine at the
    /// same boundary (that is the failover-equivalence contract).
    pub fn checkpoint(&mut self) -> Result<EngineCheckpoint, RemoteError> {
        // Between runs nothing is dirty (every run ends with a commit),
        // so this only reaches for the wire on a never-run engine.
        let mut ckpt_rounds = 0;
        self.sync_checkpoint(&[], None, &mut ckpt_rounds, 0)?;
        let states = self
            .ckpt_states
            .iter()
            .map(|s| s.clone().expect("checkpoint commit fills every shard"))
            .collect();
        Ok(self.cut.checkpoint(self.kind, self.k, states))
    }

    /// Ingest pre-parted per-site feeds through the shard workers —
    /// the remote counterpart of [`crate::ShardedEngine::run_parted`],
    /// with the same validation, the same boundary cut, and bit-identical
    /// estimates and ledgers. Worker deaths are recovered transparently
    /// (respawn/reattach + replay from the last committed checkpoint);
    /// every recovery is recorded in [`events`](Self::events).
    pub fn run_parted(&mut self, feeds: &[(SiteId, &[In])]) -> Result<EngineReport, RemoteError> {
        validate_feeds(feeds, self.k, self.kind, self.cut.time)?;
        let batch = self.cfg.batch_size();
        let rounds = feeds
            .iter()
            .map(|(_, inputs)| inputs.len().div_ceil(batch))
            .max()
            .unwrap_or(0);
        let mut audit = RunAudit::start(&self.cfg, &self.cut);
        let period = self.cfg.checkpoint_period();
        // Rounds fully absorbed this call, and how many of those the last
        // committed checkpoint covers — the replay window on failover.
        let mut rounds_done: u64 = 0;
        let mut ckpt_rounds: u64 = 0;

        if self.cfg.rounds_per_frame_value() > 1 && rounds > 0 {
            // Pipelined ingestion: stage rounds into per-worker send
            // queues and absorb reports as they stream back. Reattach
            // recovery degrades to respawn for the duration — writer
            // threads hold a static snapshot of the owner map.
            let saved = self.rcfg.recovery;
            self.rcfg.recovery = Recovery::Respawn;
            let drove = self.pipelined_rounds(
                feeds,
                rounds,
                &mut audit,
                &mut rounds_done,
                &mut ckpt_rounds,
            );
            self.rcfg.recovery = saved;
            drove?;
        } else {
            for _ in 0..rounds {
                let mut reports = self.exchange_round(feeds, ckpt_rounds, rounds_done)?;
                self.fold_round(&mut audit, &mut reports, rounds_done);
                rounds_done += 1;
                if period > 0 && rounds_done.is_multiple_of(period) {
                    self.sync_checkpoint(
                        feeds,
                        Some(rounds_done - 1),
                        &mut ckpt_rounds,
                        rounds_done,
                    )?;
                }
            }
        }
        // Mandatory end-of-run commit: later calls (and their failovers)
        // never need this call's feeds again, and the report's tracker
        // ledger comes from these states.
        self.sync_checkpoint(feeds, None, &mut ckpt_rounds, rounds_done)?;

        let (_, tracker_stats) = self.resume_final()?;
        Ok(self.cut.finish(
            audit,
            &self.cfg,
            self.workers.len(),
            tracker_stats,
            IngestStats::new(),
        ))
    }

    /// Drive one round to completion: send each worker its feed-order
    /// chunks, collect the per-shard reports, and fail over + re-send
    /// whatever a dead worker left unreported.
    fn exchange_round(
        &mut self,
        feeds: &[(SiteId, &[In])],
        ckpt_rounds: u64,
        rounds_done: u64,
    ) -> Result<Vec<ShardRound>, RemoteError> {
        let cut = self.feed_rounds(feeds);
        let mut remaining: BTreeSet<usize> = cut.round_shards(rounds_done).collect();
        let mut entries: BTreeMap<usize, ShardRound> = BTreeMap::new();

        while !remaining.is_empty() {
            let mut per_worker: BTreeMap<usize, Vec<Chunk>> = BTreeMap::new();
            for chunk in cut.chunks(rounds_done, |sid| remaining.contains(&sid)) {
                per_worker
                    .entry(self.owner[chunk.sid])
                    .or_default()
                    .push(chunk);
            }
            let mut failed: BTreeSet<usize> = BTreeSet::new();
            let mut sent: Vec<(usize, Vec<usize>)> = Vec::new();
            for (w, chunks) in per_worker {
                let (delay_ms, disrupt) = self.round_fault(rounds_done, w);
                let sids: Vec<usize> = chunks.iter().map(|c| c.sid).collect();
                let msg = ToWorker::Round {
                    round: rounds_done,
                    delay_ms,
                    chunks,
                };
                match self.send_to(w, &msg.to_bytes()) {
                    Ok(()) => sent.push((w, sids)),
                    Err(_) => {
                        failed.insert(w);
                    }
                }
                if let Some(kind) = disrupt {
                    self.disrupt(w, kind);
                }
            }
            for (w, sids) in sent {
                match self.recv_coord(w) {
                    Ok(ToCoord::RoundReport { round: r, reports }) if r == rounds_done => {
                        for e in reports {
                            remaining.remove(&e.sid);
                            entries.insert(e.sid, e);
                        }
                        // A live worker must report every shard it was
                        // sent — resending to it would double-apply.
                        if sids.iter().any(|sid| remaining.contains(sid)) {
                            return Err(RemoteError::Protocol {
                                worker: w,
                                what: "round report missing a dispatched shard",
                            });
                        }
                    }
                    Ok(_) => {
                        return Err(RemoteError::Protocol {
                            worker: w,
                            what: "unexpected reply to a round",
                        })
                    }
                    Err(RemoteError::Transport { .. }) => {
                        failed.insert(w);
                    }
                    Err(e) => return Err(e),
                }
            }
            for w in failed {
                self.failover(w, feeds, ckpt_rounds, rounds_done)?;
            }
        }
        Ok(entries.into_values().collect())
    }

    /// Drive the whole run's rounds through per-worker bounded send
    /// queues and writer threads (`rounds_per_frame > 1`): the pipelined
    /// counterpart of the synchronous per-round loop in
    /// [`run_parted`](Self::run_parted), producing bit-identical
    /// estimates, audits, ledgers, and checkpoint images.
    ///
    /// Frame cuts are *deterministic*: rounds are staged in fixed blocks
    /// of `rounds_per_frame`, blocks never straddle a checkpoint
    /// boundary, and every block ends with an explicit flush — so the
    /// frames a run produces are a pure function of `(feeds, batch,
    /// rounds_per_frame, checkpoint_every)`, never of queue timing. At
    /// most two blocks are in flight (stage block `k+1`, then absorb
    /// block `k`), which is what sizes the queues so staging never
    /// waits. Checkpoints reuse the synchronous commit at a full barrier
    /// — everything staged is absorbed, queues drained, writers parked —
    /// so `committed..absorbed` accounting and failover replay are
    /// exactly the synchronous engine's.
    fn pipelined_rounds(
        &mut self,
        feeds: &[(SiteId, &[In])],
        rounds: usize,
        audit: &mut RunAudit,
        rounds_done: &mut u64,
        ckpt_rounds: &mut u64,
    ) -> Result<(), RemoteError> {
        let cut = self.feed_rounds(feeds);
        let rpf = self.cfg.rounds_per_frame_value();
        let policy = self.cfg.backpressure_policy();
        let period = self.cfg.checkpoint_period();
        let w_count = self.workers.len();

        std::thread::scope(|scope| {
            let mut lanes = Lanes::new(scope, cut, rpf);
            let mut drive = || -> Result<(), RemoteError> {
                for w in 0..w_count {
                    if self.workers[w].conn.is_none() {
                        self.failover(w, feeds, *ckpt_rounds, *rounds_done)?;
                    }
                    lanes.start(w, self.worker_conn_clone(w)?, self.owner.clone());
                }
                // Per-worker expectation FIFO (rounds staged, report not
                // yet received) and per-round report entries received
                // but not yet absorbed.
                let mut outstanding: Vec<VecDeque<u64>> = vec![VecDeque::new(); w_count];
                let mut pending: BTreeMap<u64, BTreeMap<usize, ShardRound>> = BTreeMap::new();
                let mut staged: u64 = 0;

                while (*rounds_done as usize) < rounds {
                    let window_end = match (*rounds_done).checked_div(period) {
                        Some(q) => (q + 1) * period,
                        None => rounds as u64,
                    }
                    .min(rounds as u64);
                    while *rounds_done < window_end {
                        let absorb_to = staged;
                        if staged < window_end {
                            let block_start = staged;
                            let block_end = (staged + rpf as u64).min(window_end);
                            for rr in block_start..block_end {
                                for w in 0..w_count {
                                    if !cut.round_shards(rr).any(|sid| self.owner[sid] == w) {
                                        continue;
                                    }
                                    let (delay_ms, disrupt) = self.round_fault(rr, w);
                                    while !stage_push(
                                        &lanes.rings[w],
                                        policy,
                                        Cmd::Round {
                                            round: rr,
                                            delay_ms,
                                        },
                                    ) {
                                        // The writer observed a dead
                                        // socket and closed its queue:
                                        // fail over, then restage onto
                                        // the replacement's fresh lane.
                                        self.pipelined_failover(
                                            w,
                                            feeds,
                                            *ckpt_rounds,
                                            *rounds_done,
                                            rr,
                                            &mut outstanding,
                                            &mut pending,
                                        )?;
                                        lanes.rebuild(
                                            w,
                                            self.worker_conn_clone(w)?,
                                            self.owner.clone(),
                                            &mut self.wire,
                                        );
                                    }
                                    outstanding[w].push_back(rr);
                                    if let Some(kind) = disrupt {
                                        self.disrupt(w, kind);
                                    }
                                }
                            }
                            // Deterministic frame cut: every
                            // participant's partial frame ships now.
                            for w in 0..w_count {
                                let in_block =
                                    outstanding[w].back().is_some_and(|&r| r >= block_start);
                                if in_block && !stage_push(&lanes.rings[w], policy, Cmd::Flush) {
                                    self.pipelined_failover(
                                        w,
                                        feeds,
                                        *ckpt_rounds,
                                        *rounds_done,
                                        block_end,
                                        &mut outstanding,
                                        &mut pending,
                                    )?;
                                    lanes.rebuild(
                                        w,
                                        self.worker_conn_clone(w)?,
                                        self.owner.clone(),
                                        &mut self.wire,
                                    );
                                }
                            }
                            staged = block_end;
                        }
                        while *rounds_done < absorb_to {
                            let r = *rounds_done;
                            while let Some(w) =
                                (0..w_count).find(|&w| outstanding[w].front() == Some(&r))
                            {
                                match self.recv_coord(w) {
                                    Ok(ToCoord::RoundReport { round, reports }) => {
                                        if round != r {
                                            return Err(RemoteError::Protocol {
                                                worker: w,
                                                what: "pipelined round report out of order",
                                            });
                                        }
                                        outstanding[w].pop_front();
                                        let slot = pending.entry(round).or_default();
                                        for e in reports {
                                            slot.insert(e.sid, e);
                                        }
                                    }
                                    Ok(_) => {
                                        return Err(RemoteError::Protocol {
                                            worker: w,
                                            what: "unexpected reply in a pipelined run",
                                        })
                                    }
                                    Err(RemoteError::Transport { .. }) => {
                                        self.pipelined_failover(
                                            w,
                                            feeds,
                                            *ckpt_rounds,
                                            r,
                                            staged,
                                            &mut outstanding,
                                            &mut pending,
                                        )?;
                                        lanes.rebuild(
                                            w,
                                            self.worker_conn_clone(w)?,
                                            self.owner.clone(),
                                            &mut self.wire,
                                        );
                                    }
                                    Err(e) => return Err(e),
                                }
                            }
                            let entries = pending.remove(&r).unwrap_or_default();
                            if let Some(sid) =
                                cut.round_shards(r).find(|s| !entries.contains_key(s))
                            {
                                return Err(RemoteError::Protocol {
                                    worker: self.owner[sid],
                                    what: "round report missing a dispatched shard",
                                });
                            }
                            let mut reports: Vec<ShardRound> = entries.into_values().collect();
                            self.fold_round(audit, &mut reports, *rounds_done);
                            *rounds_done += 1;
                        }
                    }
                    // Checkpoint barrier: staged == absorbed ==
                    // window_end, queues drained, writers parked — the
                    // synchronous commit applies verbatim. Rebuild the
                    // lane of any slot a checkpoint-time failover
                    // respawned (its writer holds the dead connection).
                    if period > 0 && (*rounds_done).is_multiple_of(period) {
                        let gens: Vec<u64> = self.workers.iter().map(|s| s.generation).collect();
                        self.sync_checkpoint(
                            feeds,
                            Some(*rounds_done - 1),
                            ckpt_rounds,
                            *rounds_done,
                        )?;
                        for (w, &gen) in gens.iter().enumerate().take(w_count) {
                            if self.workers[w].generation != gen {
                                lanes.rebuild(
                                    w,
                                    self.worker_conn_clone(w)?,
                                    self.owner.clone(),
                                    &mut self.wire,
                                );
                            }
                        }
                    }
                }
                Ok(())
            };
            let result = drive();
            // Always torn down before the scope exits — an error must not
            // leave a writer parked on an open queue.
            for w in 0..lanes.rings.len() {
                lanes.stop(w, &mut self.wire);
            }
            result
        })
    }

    /// Pipelined-mode failover: recover `dead` exactly like the
    /// synchronous [`failover`](Self::failover) (restore the committed
    /// cut, replay `committed..absorbed`, discard those reports), then
    /// *catch up* the replacement through the staging `frontier`: rounds
    /// the coordinator already staged but has not absorbed are
    /// re-exchanged one frame per round and their reports are **kept** —
    /// they are the very reports the absorber is still owed. The
    /// expectation queue for `dead` is cleared first (its in-flight
    /// reports died with the socket); catch-up refills `pending` for the
    /// dead worker's shards, overwriting any entries that did arrive
    /// before the death with bit-identical values (a worker's report is
    /// a pure function of the round prefix it absorbed).
    #[allow(clippy::too_many_arguments)]
    fn pipelined_failover(
        &mut self,
        dead: usize,
        feeds: &[(SiteId, &[In])],
        ckpt_rounds: u64,
        rounds_done: u64,
        frontier: u64,
        outstanding: &mut [VecDeque<u64>],
        pending: &mut BTreeMap<u64, BTreeMap<usize, ShardRound>>,
    ) -> Result<(), RemoteError> {
        let cut = self.feed_rounds(feeds);
        'catchup: loop {
            outstanding[dead].clear();
            self.failover(dead, feeds, ckpt_rounds, rounds_done)?;
            for rr in rounds_done..frontier {
                let chunks = cut.chunks(rr, |sid| self.owner[sid] == dead);
                if chunks.is_empty() {
                    continue;
                }
                let msg = ToWorker::Round {
                    round: rr,
                    delay_ms: 0,
                    chunks,
                };
                match self.exchange(dead, &msg) {
                    Ok(ToCoord::RoundReport { round, reports }) if round == rr => {
                        let slot = pending.entry(rr).or_default();
                        for e in reports {
                            slot.insert(e.sid, e);
                        }
                    }
                    Ok(_) => {
                        return Err(RemoteError::Protocol {
                            worker: dead,
                            what: "unexpected reply to a catch-up round",
                        })
                    }
                    Err(RemoteError::Transport { .. }) => continue 'catchup,
                    Err(e) => return Err(e),
                }
            }
            return Ok(());
        }
    }

    /// Fold a completed round at boundary `boundary` (0-based within
    /// the call), then fire the faults planned for that boundary.
    fn fold_round(&mut self, audit: &mut RunAudit, reports: &mut [ShardRound], boundary: u64) {
        self.cut.fold(audit, reports);
        for w in 0..self.workers.len() {
            if let Some(kind) = self.faults.take(FaultPoint::AtBoundary(boundary), w) {
                self.disrupt(w, kind);
            }
        }
    }

    /// The fault planned for worker `w` in round `round`, split into the
    /// stall to ship with the round (ms) and a kill or sever to apply
    /// once the round is sent.
    fn round_fault(&mut self, round: u64, w: usize) -> (u64, Option<FaultKind>) {
        match self.faults.take(FaultPoint::MidRound(round), w) {
            Some(FaultKind::Delay { ms }) => (ms, None),
            other => (0, other),
        }
    }

    /// This run's feeds cut into rounds at the engine's batch size.
    fn feed_rounds<'a>(&self, feeds: &'a [(SiteId, &'a [In])]) -> FeedCut<'a, In> {
        FeedCut {
            feeds,
            batch: self.cfg.batch_size(),
            s_count: self.cfg.shards_count(),
        }
    }

    /// A fresh handle on worker `w`'s live connection for a writer
    /// thread ([`Conn::try_clone`] — shared socket, private ledger).
    fn worker_conn_clone(&self, w: usize) -> Result<Conn, RemoteError> {
        match self.workers[w].conn.as_ref() {
            Some(conn) => conn
                .try_clone()
                .map_err(|err| RemoteError::Transport { worker: w, err }),
            None => Err(RemoteError::Transport {
                worker: w,
                err: TransportError::Closed { op: "clone" },
            }),
        }
    }

    /// Commit a checkpoint cut at the current boundary: pull the state of
    /// every dirty (or never-captured) shard, and only when **all** of
    /// them arrived commit states + ledger charge atomically. Worker
    /// deaths restart the request loop after failover — snapshots are
    /// read-only, so re-requesting is always safe.
    fn sync_checkpoint(
        &mut self,
        feeds: &[(SiteId, &[In])],
        fault_boundary: Option<u64>,
        ckpt_rounds: &mut u64,
        rounds_done: u64,
    ) -> Result<(), RemoteError> {
        let need: Vec<usize> = (0..self.cfg.shards_count())
            .filter(|&sid| self.cut.dirty[sid] > 0 || self.ckpt_states[sid].is_none())
            .collect();
        if need.is_empty() {
            *ckpt_rounds = rounds_done;
            return Ok(());
        }
        loop {
            let mut per_worker: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &sid in &need {
                per_worker.entry(self.owner[sid]).or_default().push(sid);
            }
            let mut staged: BTreeMap<usize, (TrackerState, usize)> = BTreeMap::new();
            let mut failed: BTreeSet<usize> = BTreeSet::new();
            let mut sent: Vec<usize> = Vec::new();
            let rebase = self.cfg.delta_rebase_period();
            for (w, sids) in per_worker {
                // Delta pulls are strictly opt-in (`delta_rebase(K)` with
                // K > 0) and only when both sides hold the same base;
                // every K-th pull goes back to a full state.
                let pulls: Vec<StatePull> = sids
                    .iter()
                    .map(|&sid| StatePull {
                        sid,
                        want_delta: rebase > 0
                            && self.wire_base[sid].is_some()
                            && self.links_since_base[sid] < rebase,
                    })
                    .collect();
                match self.send_to(w, &ToWorker::Checkpoint { shards: pulls }.to_bytes()) {
                    Ok(()) => sent.push(w),
                    Err(_) => {
                        failed.insert(w);
                    }
                }
                if let Some(boundary) = fault_boundary {
                    if let Some(kind) = self.faults.take(FaultPoint::DuringCheckpoint(boundary), w)
                    {
                        self.disrupt(w, kind);
                    }
                }
            }
            for w in sent {
                match self.recv_coord(w) {
                    Ok(ToCoord::CheckpointReport { states }) => {
                        for (sid, entry) in states {
                            if sid >= self.wire_base.len() {
                                return Err(RemoteError::Protocol {
                                    worker: w,
                                    what: "checkpoint entry for an unknown shard",
                                });
                            }
                            // Resolve to a full state and advance the
                            // delta base *on receipt*: the worker already
                            // advanced its own base when it replied, so
                            // the two must move together even if this
                            // round's commit is aborted by another
                            // worker's death.
                            let (state, wire_len) = match entry {
                                StateEntry::Full(state) => {
                                    if state.kind() != self.kind || state.k() != self.k {
                                        return Err(RemoteError::Protocol {
                                            worker: w,
                                            what: "checkpoint state contradicts the engine spec",
                                        });
                                    }
                                    self.links_since_base[sid] = 0;
                                    let len = state.payload().len();
                                    (state, len)
                                }
                                StateEntry::Delta(delta) => {
                                    let Some(base) = self.wire_base[sid].as_ref() else {
                                        return Err(RemoteError::Protocol {
                                            worker: w,
                                            what: "delta checkpoint entry without a shared base",
                                        });
                                    };
                                    let len = delta.encoded_len();
                                    let payload = delta
                                        .apply(base.payload())
                                        .map_err(|err| RemoteError::Decode { worker: w, err })?;
                                    self.links_since_base[sid] += 1;
                                    (TrackerState::new(self.kind, base.k(), payload), len)
                                }
                            };
                            self.wire_base[sid] = Some(state.clone());
                            staged.insert(sid, (state, wire_len));
                        }
                    }
                    Ok(_) => {
                        return Err(RemoteError::Protocol {
                            worker: w,
                            what: "unexpected reply to a checkpoint request",
                        })
                    }
                    Err(RemoteError::Transport { .. }) => {
                        failed.insert(w);
                    }
                    Err(e) => return Err(e),
                }
            }
            if failed.is_empty() {
                for &sid in &need {
                    let Some((state, wire_len)) = staged.remove(&sid) else {
                        return Err(RemoteError::Protocol {
                            worker: self.owner[sid],
                            what: "checkpoint reply missing a requested shard",
                        });
                    };
                    // Charge what was actually shipped: the full payload
                    // for a full pull, the encoded delta for a delta pull
                    // — one ledger message per shard either way, so the
                    // message counts stay comparable across modes (and
                    // agree with the wire's frame counts; see
                    // tests/delta_checkpoint.rs).
                    let frame = StateFrame::for_payload(sid, wire_len);
                    self.ckpt_stats.charge(MsgKind::Up, frame.words());
                    self.ckpt_states[sid] = Some(state);
                    self.cut.dirty[sid] = 0;
                }
                *ckpt_rounds = rounds_done;
                return Ok(());
            }
            for w in failed {
                self.failover(w, feeds, *ckpt_rounds, rounds_done)?;
            }
        }
    }

    /// Recover from the death of worker `dead`: tear the slot down,
    /// restore its shards from the last committed checkpoint cut
    /// (respawn into the slot, or reattach onto a live worker), and
    /// replay rounds `ckpt_rounds..rounds_done` from the feeds —
    /// discarding the reports, since those rounds are already absorbed.
    /// The in-flight round (if any) is *not* replayed here; the caller
    /// re-sends it and uses the report.
    fn failover(
        &mut self,
        dead: usize,
        feeds: &[(SiteId, &[In])],
        ckpt_rounds: u64,
        rounds_done: u64,
    ) -> Result<(), RemoteError> {
        let s_count = self.cfg.shards_count();
        let mut dead = dead;
        'recover: loop {
            self.failovers += 1;
            if self.failovers > self.rcfg.max_failovers {
                return Err(RemoteError::FailoverExhausted { worker: dead });
            }
            if let Some(conn) = self.workers[dead].conn.take() {
                self.wire.merge(conn.stats());
                conn.shutdown();
            }
            if let Some(mut child) = self.workers[dead].child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            if let Some(handle) = self.workers[dead].thread.take() {
                self.graveyard.push(handle);
            }
            let owned: BTreeSet<usize> = (0..s_count)
                .filter(|&sid| self.owner[sid] == dead)
                .collect();
            let inits: Vec<ShardInit> = owned
                .iter()
                .map(|&sid| ShardInit {
                    sid,
                    state: self.ckpt_states[sid].clone(),
                })
                .collect();
            // The replacement restores from the committed cut, which
            // resets its delta bases to those states — mirror that here,
            // symmetrically, before any further checkpoint pull.
            for &sid in &owned {
                self.wire_base[sid] = self.ckpt_states[sid].clone();
                self.links_since_base[sid] = 0;
            }
            let reattach_to = match self.rcfg.recovery {
                Recovery::Respawn => None,
                Recovery::Reattach => {
                    (0..self.workers.len()).find(|&w| w != dead && self.workers[w].conn.is_some())
                }
            };
            let dest = match reattach_to {
                Some(dest) => match self.install(dest, ToWorker::Attach { shards: inits }) {
                    Ok(()) => {
                        for &sid in &owned {
                            self.owner[sid] = dest;
                        }
                        dest
                    }
                    Err(RemoteError::Transport { .. }) => {
                        // The reattach target died too; recover it (the
                        // original shards stay mapped to the dead slot and
                        // surface again at the caller's next send).
                        dead = dest;
                        continue 'recover;
                    }
                    Err(e) => return Err(e),
                },
                None => {
                    let generation = self.workers[dead].generation + 1;
                    self.spawn_worker(dead, generation)?;
                    self.install(
                        dead,
                        ToWorker::Assign {
                            spec: self.spec,
                            s_count,
                            shards: inits,
                        },
                    )?;
                    dead
                }
            };
            // Replay the window since the committed cut, restricted to
            // the recovered shards (a reattach target's own shards are
            // live and must not see the rounds twice).
            let mut replayed = 0u64;
            for replay_round in ckpt_rounds..rounds_done {
                let chunks = self
                    .feed_rounds(feeds)
                    .chunks(replay_round, |sid| owned.contains(&sid));
                if chunks.is_empty() {
                    continue;
                }
                let msg = ToWorker::Round {
                    round: replay_round,
                    delay_ms: 0,
                    chunks,
                };
                match self.exchange(dest, &msg) {
                    // Already absorbed at the original boundary: discard,
                    // so the merge ledger never sees the replay.
                    Ok(ToCoord::RoundReport { .. }) => replayed += 1,
                    Ok(_) => {
                        return Err(RemoteError::Protocol {
                            worker: dest,
                            what: "unexpected reply to a replayed round",
                        })
                    }
                    Err(RemoteError::Transport { .. }) => {
                        dead = dest;
                        continue 'recover;
                    }
                    Err(e) => return Err(e),
                }
            }
            self.events.push(FailoverEvent {
                worker: dead,
                round: rounds_done,
                generation: self.workers[dest].generation,
                recovered_to: dest,
                replayed_rounds: replayed,
            });
            return Ok(());
        }
    }

    /// Spawn a worker into slot `w` (thread or process per the config),
    /// accept its connection, and verify the handshake identity.
    fn spawn_worker(&mut self, w: usize, generation: u64) -> Result<(), RemoteError> {
        let idle = self.rcfg.worker_idle_timeout;
        let retries = self.rcfg.connect_retries;
        let backoff = self.rcfg.connect_backoff;
        match self.rcfg.spawn.clone() {
            SpawnMode::Threads => {
                let ep = self.listener.endpoint().clone();
                let handle = std::thread::spawn(move || {
                    let _ = worker::serve(&ep, w as u64, generation, idle, retries, backoff);
                });
                self.workers[w].thread = Some(handle);
            }
            SpawnMode::Processes { bin } => {
                let child = Command::new(&bin)
                    .arg(self.listener.endpoint().to_string())
                    .args(["--worker", &w.to_string()])
                    .args(["--gen", &generation.to_string()])
                    .args(["--timeout-ms", &idle.as_millis().to_string()])
                    .args(["--retries", &retries.to_string()])
                    .args(["--backoff-ms", &backoff.as_millis().to_string()])
                    .stdin(Stdio::null())
                    .spawn()
                    .map_err(|e| RemoteError::Spawn {
                        worker: w,
                        kind: e.kind(),
                    })?;
                self.workers[w].child = Some(child);
            }
        }
        let map_err = |err| RemoteError::Transport { worker: w, err };
        let mut conn = self
            .listener
            .accept(Some(self.rcfg.spawn_timeout))
            .map_err(map_err)?;
        conn.set_max_frame(self.rcfg.max_frame);
        conn.set_io_timeout(Some(self.rcfg.io_timeout))
            .map_err(map_err)?;
        let hello = parse_hello(&conn.recv().map_err(map_err)?).map_err(map_err)?;
        if hello.role != Role::Worker || hello.worker != w as u64 || hello.generation != generation
        {
            return Err(RemoteError::Protocol {
                worker: w,
                what: "handshake identity mismatch",
            });
        }
        self.workers[w].conn = Some(conn);
        self.workers[w].generation = generation;
        Ok(())
    }

    /// Send an assignment and require a clean ack.
    fn install(&mut self, w: usize, msg: ToWorker) -> Result<(), RemoteError> {
        match self.exchange(w, &msg)? {
            ToCoord::AssignAck { error } if error.is_empty() => Ok(()),
            ToCoord::AssignAck { error } => Err(RemoteError::WorkerRejected {
                worker: w,
                msg: error,
            }),
            _ => Err(RemoteError::Protocol {
                worker: w,
                what: "unexpected reply to an assignment",
            }),
        }
    }

    fn exchange(&mut self, w: usize, msg: &ToWorker) -> Result<ToCoord, RemoteError> {
        self.send_to(w, &msg.to_bytes())
            .map_err(|err| RemoteError::Transport { worker: w, err })?;
        self.recv_coord(w)
    }

    fn send_to(&mut self, w: usize, bytes: &[u8]) -> Result<(), TransportError> {
        match &mut self.workers[w].conn {
            Some(conn) => conn.send(bytes),
            None => Err(TransportError::Closed { op: "send" }),
        }
    }

    fn recv_coord(&mut self, w: usize) -> Result<ToCoord, RemoteError> {
        let conn = self.workers[w]
            .conn
            .as_mut()
            .ok_or(RemoteError::Transport {
                worker: w,
                err: TransportError::Closed { op: "recv" },
            })?;
        let frame = conn
            .recv()
            .map_err(|err| RemoteError::Transport { worker: w, err })?;
        ToCoord::from_bytes(&frame).map_err(|err| RemoteError::Decode { worker: w, err })
    }

    /// Apply an injected disruption to worker `w` (see [`FaultKind`]).
    fn disrupt(&mut self, w: usize, kind: FaultKind) {
        match kind {
            FaultKind::Kill => {
                if let Some(child) = &mut self.workers[w].child {
                    let _ = child.kill();
                } else if let Some(conn) = &self.workers[w].conn {
                    conn.shutdown();
                }
            }
            FaultKind::Sever | FaultKind::Delay { .. } => {
                if let Some(conn) = &self.workers[w].conn {
                    conn.shutdown();
                }
            }
        }
    }

    /// Resume every shard's last committed state locally, yielding the
    /// per-shard estimates and the summed in-protocol tracker ledger —
    /// the state the in-process engine reads off its replicas directly.
    fn resume_final(&self) -> Result<(Vec<i64>, CommStats), RemoteError> {
        use dsv_core::api::Tracker;
        let mut estimates = Vec::with_capacity(self.ckpt_states.len());
        let mut stats = CommStats::new();
        for (sid, state) in self.ckpt_states.iter().enumerate() {
            let state = state.as_ref().ok_or(RemoteError::Protocol {
                worker: self.owner[sid],
                what: "no committed state for a shard",
            })?;
            let map_build = |e| RemoteError::Engine(EngineError::Build(e));
            let map_codec = |e| RemoteError::Engine(EngineError::Codec(e));
            match self.kind.problem() {
                Problem::Counting => {
                    let mut t = self.spec.shard(sid).build().map_err(map_build)?;
                    t.restore(state).map_err(map_codec)?;
                    estimates.push(t.estimate());
                    stats.merge(t.stats());
                }
                Problem::Frequencies => {
                    let mut t = self.spec.shard(sid).build_item().map_err(map_build)?;
                    t.restore(state).map_err(map_codec)?;
                    estimates.push(t.estimate());
                    stats.merge(t.stats());
                }
            }
        }
        Ok((estimates, stats))
    }
}

impl<In: RemoteInput> Drop for RemoteEngine<In> {
    fn drop(&mut self) {
        let finish = ToWorker::Finish.to_bytes();
        for slot in &mut self.workers {
            if let Some(conn) = &mut slot.conn {
                let _ = conn.send(&finish);
            }
            // Closing the socket reaps even a worker that never decodes
            // the Finish (its next read observes the close).
            if let Some(conn) = slot.conn.take() {
                conn.shutdown();
            }
            if let Some(mut child) = slot.child.take() {
                let _ = child.wait();
            }
            if let Some(handle) = slot.thread.take() {
                let _ = handle.join();
            }
        }
        for handle in self.graveyard.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A staged command for one worker's writer thread, carried over the
/// same SPSC ring the pipelined local engine feeds shards with. `Copy`
/// because the ring memcpys its slots; the chunk payloads are *not*
/// staged — the writer re-derives them from the shared feeds, so a
/// command is two words however fat the round.
#[derive(Clone, Copy)]
enum Cmd {
    /// Stage round `round` (with an injected worker-side stall of
    /// `delay_ms`, normally 0) into the writer's pending frame; the
    /// frame ships once it holds `rounds_per_frame` rounds.
    Round { round: u64, delay_ms: u64 },
    /// Ship the pending frame now even if short (block and barrier
    /// cuts); a no-op when nothing is pending.
    Flush,
}

/// Blocking producer push honoring the engine's [`Backpressure`] policy.
/// Returns `false` — with the command not enqueued — only when the queue
/// is closed, which is how a writer thread reports a dead socket. The
/// `Error` policy cannot shed a round command (dropping one would desync
/// the absorber), so it parks like `Block`; the two-block staging
/// discipline keeps the queue from ever filling in the first place.
fn stage_push(ring: &Ring<Cmd>, policy: Backpressure, cmd: Cmd) -> bool {
    loop {
        if ring.is_closed() {
            return false;
        }
        if ring.push_some(std::slice::from_ref(&cmd)) == 1 {
            return true;
        }
        match policy {
            Backpressure::Yield => std::thread::yield_now(),
            Backpressure::Block | Backpressure::Error => ring.wait_not_full(),
        }
    }
}

/// One worker's writer thread: drain round commands from the queue,
/// build their chunks from the shared feeds (owner snapshot — static,
/// because pipelined failover always respawns), and ship `Rounds`
/// envelopes of up to `rpf` rounds per frame. On a send failure the
/// writer closes its own queue — that is its death notice to the
/// staging side — and returns; on close-and-drained it flushes any
/// pending partial frame and returns. Either way the connection handle
/// comes back so the coordinator can fold its wire ledger.
fn writer_drain<In: RemoteInput>(
    ring: &Ring<Cmd>,
    mut conn: Conn,
    cut: FeedCut<'_, In>,
    owner: &[usize],
    w: usize,
    rpf: usize,
) -> Conn {
    let mut cmds: Vec<Cmd> = Vec::with_capacity(1);
    let mut frame: Vec<RoundWork> = Vec::new();
    loop {
        cmds.clear();
        ring.pop_round(&mut cmds, 1);
        let Some(&cmd) = cmds.first() else {
            // Closed and drained: ship the partial frame (a no-op
            // teardown when the run absorbed everything) and exit.
            if !frame.is_empty() {
                let _ = ship_frame(&mut conn, &mut frame);
            }
            return conn;
        };
        match cmd {
            Cmd::Round { round, delay_ms } => {
                let chunks = cut.chunks(round, |sid| owner[sid] == w);
                frame.push(RoundWork {
                    round,
                    delay_ms,
                    chunks,
                });
                if frame.len() >= rpf && ship_frame(&mut conn, &mut frame).is_err() {
                    ring.close();
                    return conn;
                }
            }
            Cmd::Flush => {
                if !frame.is_empty() && ship_frame(&mut conn, &mut frame).is_err() {
                    ring.close();
                    return conn;
                }
            }
        }
    }
}

/// Send the writer's pending rounds as one `Rounds` envelope.
fn ship_frame(conn: &mut Conn, frame: &mut Vec<RoundWork>) -> Result<(), TransportError> {
    let msg = ToWorker::Rounds {
        rounds: std::mem::take(frame),
    };
    conn.send(&msg.to_bytes())
}

/// A run's feeds cut into rounds: which shards have work in a round, and
/// that work as wire chunks — a pure function of `(feeds, batch,
/// round)`, which is what lets failover replay rounds from the feeds.
#[derive(Clone, Copy)]
struct FeedCut<'a, In> {
    feeds: &'a [(SiteId, &'a [In])],
    batch: usize,
    s_count: usize,
}

impl<'a, In: RemoteInput> FeedCut<'a, In> {
    /// The shards with a chunk in `round` (once per feed, feed order).
    fn round_shards(self, round: u64) -> impl Iterator<Item = usize> + 'a {
        self.feeds.iter().filter_map(move |&(site, inputs)| {
            chunk_bounds(inputs.len(), self.batch, round as usize).map(|_| site % self.s_count)
        })
    }

    /// `round`'s chunks, in feed order, of the shards `keep` selects.
    fn chunks(self, round: u64, mut keep: impl FnMut(usize) -> bool) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        for &(site, inputs) in self.feeds {
            let sid = site % self.s_count;
            if let Some((lo, hi)) = chunk_bounds(inputs.len(), self.batch, round as usize) {
                if keep(sid) {
                    let inputs = In::wrap(&inputs[lo..hi]);
                    chunks.push(Chunk { sid, site, inputs });
                }
            }
        }
        chunks
    }
}

/// A pipelined run's send lanes: per worker, a bounded command queue and
/// the writer thread draining it into its connection.
struct Lanes<'scope, 'env, In> {
    scope: &'scope Scope<'scope, 'env>,
    cut: FeedCut<'env, In>,
    rpf: usize,
    rings: Vec<Arc<Ring<Cmd>>>,
    writers: Vec<Option<ScopedJoinHandle<'scope, Conn>>>,
}

impl<'scope, 'env, In: RemoteInput> Lanes<'scope, 'env, In> {
    fn new(scope: &'scope Scope<'scope, 'env>, cut: FeedCut<'env, In>, rpf: usize) -> Self {
        Lanes {
            scope,
            cut,
            rpf,
            rings: Vec::new(),
            writers: Vec::new(),
        }
    }

    /// Start worker `w`'s lane over `conn` (`owner`: the sid → worker
    /// map the writer builds chunks with).
    fn start(&mut self, w: usize, conn: Conn, owner: Vec<usize>) {
        // Two blocks in flight plus their flush cuts always fit.
        let ring = Arc::new(Ring::new(2 * self.rpf + 2));
        let (cut, rpf, queue) = (self.cut, self.rpf, Arc::clone(&ring));
        let writer = self
            .scope
            .spawn(move || writer_drain(&queue, conn, cut, &owner, w, rpf));
        if w == self.rings.len() {
            self.rings.push(ring);
            self.writers.push(Some(writer));
        } else {
            self.rings[w] = ring;
            self.writers[w] = Some(writer);
        }
    }

    /// Close worker `w`'s queue, join its writer and fold its wire ledger.
    fn stop(&mut self, w: usize, wire: &mut WireStats) {
        self.rings[w].close();
        if let Some(writer) = self.writers[w].take() {
            match writer.join() {
                Ok(conn) => wire.merge(conn.stats()),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    }

    /// Replace worker `w`'s lane with a fresh one over `conn` — the
    /// recovery step after any failover replaces the slot's connection.
    fn rebuild(&mut self, w: usize, conn: Conn, owner: Vec<usize>, wire: &mut WireStats) {
        self.stop(w, wire);
        self.start(w, conn, owner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedEngine;
    use dsv_gen::{DeltaGen, RoundRobin, WalkGen};

    fn det_spec(k: usize) -> TrackerSpec {
        TrackerSpec::new(TrackerKind::Deterministic)
            .k(k)
            .eps(0.1)
            .deletions(true)
    }

    fn walk_feeds(k: usize, n: usize) -> Vec<(usize, Vec<i64>)> {
        let updates = WalkGen::fair(3).updates(n as u64, RoundRobin::new(k));
        let mut feeds: Vec<(usize, Vec<i64>)> = (0..k).map(|s| (s, Vec::new())).collect();
        for u in &updates {
            feeds[u.site].1.push(u.delta);
        }
        feeds
    }

    fn slices(feeds: &[(usize, Vec<i64>)]) -> Vec<(usize, &[i64])> {
        feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect()
    }

    fn fast_rcfg() -> RemoteConfig {
        RemoteConfig {
            io_timeout: Duration::from_millis(500),
            ..RemoteConfig::default()
        }
    }

    #[test]
    fn remote_threads_over_tcp_match_the_in_process_engine() {
        let feeds = walk_feeds(4, 16_000);
        let cfg = EngineConfig::new(4, 500);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();
        let local_ckpt = local.checkpoint().unwrap();

        let mut remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
        let report = remote.run_parted(&slices(&feeds)).unwrap();

        assert_eq!(report.n, local_report.n);
        assert_eq!(report.batches, local_report.batches);
        assert_eq!(report.final_f, local_report.final_f);
        assert_eq!(report.final_estimate, local_report.final_estimate);
        assert_eq!(report.tracker_stats, local_report.tracker_stats);
        assert_eq!(report.merge_stats, local_report.merge_stats);
        assert_eq!(remote.merge_stats(), local.merge_stats());
        assert_eq!(remote.shard_estimates().unwrap(), local.shard_estimates());
        // The mandatory end-of-run commit charges exactly what the
        // explicit in-process checkpoint charges, and assembles the same
        // restorable image.
        assert_eq!(remote.checkpoint_stats(), local.checkpoint_stats());
        assert_eq!(remote.checkpoint().unwrap(), local_ckpt);
        assert!(remote.events().is_empty());
        let wire = remote.wire_stats();
        assert!(wire.frames_sent > 0 && wire.bytes_received > 0);
    }

    #[test]
    fn pipelined_frames_stay_bit_identical_and_fewer() {
        let feeds = walk_feeds(4, 16_000);
        let base = EngineConfig::new(4, 500);

        let mut local = ShardedEngine::counters(det_spec(4), base).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();
        let local_ckpt = local.checkpoint().unwrap();

        let mut sync = RemoteEngine::counters(det_spec(4), base, fast_rcfg()).unwrap();
        sync.run_parted(&slices(&feeds)).unwrap();
        let sync_frames = sync.wire_stats().frames_sent;

        for rpf in [4, 16] {
            let cfg = base.rounds_per_frame(rpf);
            let mut remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
            let report = remote.run_parted(&slices(&feeds)).unwrap();

            // The full equivalence surface, at every frame width.
            assert_eq!(report.n, local_report.n, "rpf={rpf}");
            assert_eq!(report.batches, local_report.batches);
            assert_eq!(report.final_f, local_report.final_f);
            assert_eq!(report.final_estimate, local_report.final_estimate);
            assert_eq!(report.tracker_stats, local_report.tracker_stats);
            assert_eq!(report.merge_stats, local_report.merge_stats);
            assert_eq!(remote.shard_estimates().unwrap(), local.shard_estimates());
            assert_eq!(remote.checkpoint_stats(), local.checkpoint_stats());
            assert_eq!(remote.checkpoint().unwrap(), local_ckpt);
            assert!(remote.events().is_empty());

            // Only the wire ledger moves: batching rounds into fewer,
            // fatter frames strictly reduces coordinator frames sent.
            let frames = remote.wire_stats().frames_sent;
            assert!(
                frames < sync_frames,
                "rpf={rpf}: {frames} frames vs {sync_frames} synchronous"
            );
        }
    }

    #[test]
    fn pipelined_failover_respawns_and_stays_bit_identical() {
        let feeds = walk_feeds(4, 12_000);
        let cfg = EngineConfig::new(4, 250)
            .checkpoint_every(4)
            .rounds_per_frame(4);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        // Reattach is requested but must degrade to a respawn in
        // pipelined mode (writers hold a static owner snapshot).
        let rcfg = RemoteConfig {
            recovery: Recovery::Reattach,
            ..fast_rcfg()
        };
        let mut remote = RemoteEngine::counters(det_spec(4), cfg, rcfg).unwrap();
        remote.set_fault_plan(FaultPlan::new().inject(
            FaultPoint::MidRound(6),
            1,
            FaultKind::Sever,
        ));
        let report = remote.run_parted(&slices(&feeds)).unwrap();

        assert_eq!(remote.events().len(), 1);
        assert_eq!(remote.events()[0].worker, 1);
        assert_eq!(remote.events()[0].recovered_to, 1, "forced respawn");
        assert_eq!(report.final_f, local_report.final_f);
        assert_eq!(report.final_estimate, local_report.final_estimate);
        assert_eq!(report.tracker_stats, local_report.tracker_stats);
        assert_eq!(report.merge_stats, local_report.merge_stats);
        assert_eq!(remote.shard_estimates().unwrap(), local.shard_estimates());
        assert_eq!(remote.checkpoint().unwrap(), local.checkpoint().unwrap());
    }

    #[test]
    fn pipelined_engine_is_incremental_across_runs() {
        let feeds = walk_feeds(3, 9_000);
        let cfg = EngineConfig::new(3, 300).rounds_per_frame(4);
        let mut local = ShardedEngine::counters(det_spec(3), cfg).unwrap();
        let mut remote = RemoteEngine::counters(det_spec(3), cfg, fast_rcfg()).unwrap();
        for half in 0..2 {
            let part: Vec<(usize, &[i64])> = feeds
                .iter()
                .map(|(s, v)| {
                    let mid = v.len() / 2;
                    let range = if half == 0 { &v[..mid] } else { &v[mid..] };
                    (*s, range)
                })
                .collect();
            local.run_parted(&part).unwrap();
            local.checkpoint().unwrap();
            remote.run_parted(&part).unwrap();
        }
        assert_eq!(remote.estimate(), local.estimate());
        assert_eq!(remote.time(), local.time());
        assert_eq!(remote.merge_stats(), local.merge_stats());
        assert_eq!(remote.checkpoint().unwrap(), local.checkpoint().unwrap());
    }

    #[test]
    fn delta_checkpoint_pulls_stay_bit_identical_and_cheaper() {
        let feeds = walk_feeds(4, 16_000);
        let full_cfg = EngineConfig::new(4, 250).checkpoint_every(4);
        let delta_cfg = full_cfg.delta_rebase(3);

        let mut local = ShardedEngine::counters(det_spec(4), full_cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();
        let local_ckpt = local.checkpoint().unwrap();

        let mut full = RemoteEngine::counters(det_spec(4), full_cfg, fast_rcfg()).unwrap();
        full.run_parted(&slices(&feeds)).unwrap();

        let mut delta = RemoteEngine::counters(det_spec(4), delta_cfg, fast_rcfg()).unwrap();
        let report = delta.run_parted(&slices(&feeds)).unwrap();

        // Delta pulls are an encoding change only: every observable result
        // matches the full-snapshot engine and the in-process engine.
        assert_eq!(report.final_estimate, local_report.final_estimate);
        assert_eq!(report.tracker_stats, local_report.tracker_stats);
        assert_eq!(report.merge_stats, local_report.merge_stats);
        assert_eq!(delta.checkpoint().unwrap(), local_ckpt);
        assert_eq!(delta.checkpoint().unwrap(), full.checkpoint().unwrap());

        // Both modes ship one state frame per shard per sync, so the ledgers
        // agree on message counts; the delta ledger carries fewer words.
        let (d, f) = (delta.checkpoint_stats(), full.checkpoint_stats());
        assert_eq!(d.total_messages(), f.total_messages());
        assert!(
            d.total_words() < f.total_words(),
            "delta words {} vs full words {}",
            d.total_words(),
            f.total_words()
        );
    }

    #[test]
    fn delta_mode_failover_resyncs_wire_bases() {
        let feeds = walk_feeds(4, 12_000);
        let cfg = EngineConfig::new(4, 250)
            .checkpoint_every(4)
            .delta_rebase(3);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        let mut remote = RemoteEngine::counters(det_spec(4), cfg, fast_rcfg()).unwrap();
        remote.set_fault_plan(FaultPlan::new().inject(
            FaultPoint::MidRound(6),
            1,
            FaultKind::Sever,
        ));
        let report = remote.run_parted(&slices(&feeds)).unwrap();

        assert_eq!(remote.events().len(), 1);
        assert_eq!(report.final_estimate, local_report.final_estimate);
        assert_eq!(report.tracker_stats, local_report.tracker_stats);
        assert_eq!(remote.checkpoint().unwrap(), local.checkpoint().unwrap());
    }

    #[test]
    fn severed_worker_fails_over_and_stays_bit_identical() {
        let feeds = walk_feeds(4, 12_000);
        let cfg = EngineConfig::new(4, 250).checkpoint_every(4);

        let mut local = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        for recovery in [Recovery::Respawn, Recovery::Reattach] {
            let rcfg = RemoteConfig {
                recovery,
                ..fast_rcfg()
            };
            let mut remote = RemoteEngine::counters(det_spec(4), cfg, rcfg).unwrap();
            remote.set_fault_plan(FaultPlan::new().inject(
                FaultPoint::MidRound(6),
                1,
                FaultKind::Sever,
            ));
            let report = remote.run_parted(&slices(&feeds)).unwrap();

            assert_eq!(remote.events().len(), 1, "{recovery:?}");
            let event = remote.events()[0];
            assert_eq!(event.worker, 1);
            assert_eq!(
                event.recovered_to,
                if recovery == Recovery::Respawn { 1 } else { 0 }
            );
            // Checkpoint at boundary 4 bounds the replay to rounds 4..6.
            assert_eq!(event.replayed_rounds, 2);
            assert_eq!(
                report.final_estimate, local_report.final_estimate,
                "{recovery:?}"
            );
            assert_eq!(report.final_f, local_report.final_f);
            assert_eq!(report.tracker_stats, local_report.tracker_stats);
            assert_eq!(report.merge_stats, local_report.merge_stats);
            assert_eq!(remote.shard_estimates().unwrap(), local.shard_estimates());
        }
    }

    #[test]
    fn delayed_worker_trips_the_failure_detector() {
        let feeds = walk_feeds(2, 4_000);
        let cfg = EngineConfig::new(2, 500).checkpoint_every(2);
        let rcfg = RemoteConfig {
            io_timeout: Duration::from_millis(100),
            ..RemoteConfig::default()
        };

        let mut local = ShardedEngine::counters(det_spec(2), cfg).unwrap();
        let local_report = local.run_parted(&slices(&feeds)).unwrap();

        let mut remote = RemoteEngine::counters(det_spec(2), cfg, rcfg).unwrap();
        remote.set_fault_plan(FaultPlan::new().inject(
            FaultPoint::MidRound(3),
            0,
            FaultKind::Delay { ms: 600 },
        ));
        let report = remote.run_parted(&slices(&feeds)).unwrap();
        assert_eq!(remote.events().len(), 1);
        assert_eq!(report.final_estimate, local_report.final_estimate);
        assert_eq!(report.merge_stats, local_report.merge_stats);
    }

    #[test]
    fn engine_is_incremental_across_remote_runs() {
        let feeds = walk_feeds(3, 9_000);
        let cfg = EngineConfig::new(3, 300);
        let mut local = ShardedEngine::counters(det_spec(3), cfg).unwrap();
        let mut remote = RemoteEngine::counters(det_spec(3), cfg, fast_rcfg()).unwrap();
        for half in 0..2 {
            let part: Vec<(usize, &[i64])> = feeds
                .iter()
                .map(|(s, v)| {
                    let mid = v.len() / 2;
                    let range = if half == 0 { &v[..mid] } else { &v[mid..] };
                    (*s, range)
                })
                .collect();
            local.run_parted(&part).unwrap();
            local.checkpoint().unwrap();
            remote.run_parted(&part).unwrap();
        }
        assert_eq!(remote.estimate(), local.estimate());
        assert_eq!(remote.time(), local.time());
        assert_eq!(remote.merge_stats(), local.merge_stats());
        assert_eq!(remote.checkpoint_stats(), local.checkpoint_stats());
        assert_eq!(remote.checkpoint().unwrap(), local.checkpoint().unwrap());
    }

    #[test]
    fn bad_feeds_are_rejected_before_any_traffic() {
        let cfg = EngineConfig::new(2, 100);
        let mut remote = RemoteEngine::counters(det_spec(2), cfg, fast_rcfg()).unwrap();
        let ones = vec![1i64; 10];
        let err = remote.run_parted(&[(7, ones.as_slice())]).unwrap_err();
        assert!(matches!(
            err,
            RemoteError::Engine(EngineError::Run(RunError::SiteOutOfRange { site: 7, .. }))
        ));
        assert_eq!(remote.time(), 0);

        let cmy = TrackerSpec::new(TrackerKind::CmyMonotone).k(1).eps(0.1);
        let mut remote =
            RemoteEngine::counters(cmy, EngineConfig::new(1, 100), fast_rcfg()).unwrap();
        let bad = vec![1i64, -1];
        let err = remote.run_parted(&[(0, bad.as_slice())]).unwrap_err();
        assert!(matches!(
            err,
            RemoteError::Engine(EngineError::Run(RunError::DeletionUnsupported { .. }))
        ));
    }
}
