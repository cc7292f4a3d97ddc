//! The batched, sharded runner.

use crate::checkpoint::EngineCheckpoint;
use crate::config::{EngineConfig, EngineError};
use crate::consolidate::{ConsolidateInput, Consolidator};
use crate::delta::CheckpointStore;
use crate::ingest::{Ring, ShardFeed};
use crate::partition::{hash_item, Partition, ShardRecord};
use crate::report::EngineReport;
use crate::round::{check_site, chunk_bounds, validate_feeds, Cut, RunAudit, ShardRound};
use dsv_core::api::{ItemTracker, RunError, Tracker, TrackerKind, TrackerSpec};
use dsv_core::codec::{kind_tag, TrackerState};
use dsv_net::{CommStats, IngestStats, MsgKind, SiteId, StateFrame, Time, WireSize};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::mpsc;
use std::sync::Arc;

/// The counting-problem engine: shard replicas built by
/// [`ShardedEngine::counters`] from any of the six counter kinds.
pub type CounterEngine = ShardedEngine<Box<dyn Tracker + Send>>;

/// The item-frequency engine: shard replicas built by
/// [`ShardedEngine::items`] from any of the four frequency kinds.
pub type ItemEngine = ShardedEngine<Box<dyn ItemTracker + Send>, (u64, i64)>;

/// A unit of work shipped to a shard worker, carrying its buffer so
/// allocations are recycled batch to batch.
enum WorkBuf<In> {
    /// Mixed-site sub-batch, in arrival order (general layout).
    Batch(Vec<(SiteId, In)>),
    /// All updates at one site (site-affine layout with at most one site
    /// per shard) — drives the zero-copy `update_run` path.
    Run(SiteId, Vec<In>),
}

/// One routed shard buffer on its way through a worker and back: the
/// shard, the buffer (recycled batch to batch), and its estimate after
/// absorbing it.
struct Work<In> {
    sid: usize,
    buf: WorkBuf<In>,
    estimate: i64,
}

impl<In> Work<In> {
    fn new(sid: usize, buf: WorkBuf<In>) -> Self {
        Work {
            sid,
            buf,
            estimate: 0,
        }
    }
}

/// Absorb a routed buffer into its shard's replica; see [`ingest_run`].
fn absorb<T, In>(tracker: &mut T, buf: &WorkBuf<In>, scratch: Option<&mut Consolidator>) -> i64
where
    T: Tracker<In> + ?Sized,
    In: ConsolidateInput,
{
    match buf {
        WorkBuf::Batch(buf) => tracker.update_batch(buf),
        WorkBuf::Run(site, buf) => ingest_run(tracker, *site, buf, scratch),
    }
}

/// Put an emptied buffer back in its slot; returns how many inputs it held.
fn recycle<X>(slot: &mut Vec<X>, mut buf: Vec<X>) -> u64 {
    let len = buf.len() as u64;
    buf.clear();
    *slot = buf;
    len
}

/// Per-record validation shared by both routing layouts: rejects what
/// the sequential `Driver` rejects, returning the record's ground-truth
/// increment.
#[inline]
fn check_record<R, In>(
    rec: &R,
    k: usize,
    kind: TrackerKind,
    deletions_ok: bool,
) -> Result<i64, EngineError>
where
    R: ShardRecord<In = In>,
    In: Copy,
{
    check_site(rec.site(), k, rec.time())?;
    let delta = rec.delta();
    if delta < 0 && !deletions_ok {
        return Err(RunError::DeletionUnsupported {
            kind,
            time: rec.time(),
        }
        .into());
    }
    Ok(delta)
}

/// Feed a same-site run to a shard replica, through the consolidation
/// stage when the engine has one (`scratch` is `Some` iff
/// [`EngineConfig::consolidate`] is on). Both paths are bit-identical;
/// the consolidated one pre-aggregates the run (RLE for counter inputs,
/// sort-merge for item inputs) so the tracker's closed-form absorb
/// kernels see whole segments instead of every ±1.
fn ingest_run<T, In>(
    tracker: &mut T,
    site: SiteId,
    run: &[In],
    scratch: Option<&mut Consolidator>,
) -> i64
where
    T: Tracker<In> + ?Sized,
    In: ConsolidateInput,
{
    match scratch {
        Some(s) => In::update_consolidated(tracker, site, run, s),
        None => tracker.update_run(site, run),
    }
}

/// Route one batch into per-site run buffers (`shard == site`; valid
/// whenever every shard owns at most one site), adding each record's
/// delta to its buffer's entry in `sums`.
fn fill_runs<R, In>(
    batch: &[R],
    k: usize,
    kind: TrackerKind,
    deletions_ok: bool,
    bufs: &mut [Vec<In>],
    sums: &mut [i64],
) -> Result<(), EngineError>
where
    R: ShardRecord<In = In>,
    In: Copy,
{
    for rec in batch {
        sums[rec.site()] += check_record(rec, k, kind, deletions_ok)?;
        bufs[rec.site()].push(rec.input());
    }
    Ok(())
}

/// Route one batch into per-shard mixed-site buffers (general layout),
/// adding each record's delta to its shard's entry in `sums`. `lut` maps
/// sites to shards for [`Partition::SiteAffine`] (computed once, so the
/// hot loop carries no division); `rr` is the rotating cursor for
/// [`Partition::RoundRobin`].
#[allow(clippy::too_many_arguments)]
fn fill_tuples<R, In>(
    batch: &[R],
    k: usize,
    kind: TrackerKind,
    deletions_ok: bool,
    partition: Partition,
    lut: &[u32],
    rr: &mut usize,
    bufs: &mut [Vec<(SiteId, In)>],
    sums: &mut [i64],
) -> Result<(), EngineError>
where
    R: ShardRecord<In = In>,
    In: Copy,
{
    let s_count = bufs.len();
    for rec in batch {
        let delta = check_record(rec, k, kind, deletions_ok)?;
        let site = rec.site();
        let shard = match partition {
            Partition::SiteAffine => lut[site] as usize,
            Partition::RoundRobin => {
                let s = *rr;
                *rr += 1;
                if *rr == s_count {
                    *rr = 0;
                }
                s
            }
            Partition::ByItem => match rec.item_key() {
                Some(item) => (hash_item(item) % s_count as u64) as usize,
                None => return Err(EngineError::MissingItemKey { time: rec.time() }),
            },
        };
        sums[shard] += delta;
        bufs[shard].push((site, rec.input()));
    }
    Ok(())
}

/// Where a shard worker draws one feed's rounds from.
trait RoundSource<In> {
    /// The next round's inputs: `batch` of them, or fewer exactly once —
    /// the feed's final (possibly empty) round.
    fn next_round(&mut self, batch: usize) -> &[In];
}

/// A borrowed feed slice ([`ShardedEngine::run_parted`]): rounds are
/// sub-slices cut by [`chunk_bounds`], so nothing is copied.
struct SliceRounds<'a, In> {
    inputs: &'a [In],
    round: usize,
}

impl<In> RoundSource<In> for SliceRounds<'_, In> {
    fn next_round(&mut self, batch: usize) -> &[In] {
        let chunk = chunk_bounds(self.inputs.len(), batch, self.round)
            .map_or(&[][..], |(lo, hi)| &self.inputs[lo..hi]);
        self.round += 1;
        chunk
    }
}

/// A feed's bounded queue ([`ShardedEngine::run_pipelined`]): each round
/// blocks until the producer delivers `batch` inputs or closes the feed,
/// so a lagging feed stalls only the worker that drains it.
struct RingRounds<In: Copy> {
    ring: Arc<Ring<In>>,
    buf: Vec<In>,
}

impl<In: Copy> RoundSource<In> for RingRounds<In> {
    fn next_round(&mut self, batch: usize) -> &[In] {
        self.buf.clear();
        self.ring.pop_round(&mut self.buf, batch);
        &self.buf
    }
}

/// One feed drained by a worker: its site, its round source, and whether
/// it has delivered its final round.
struct FeedRounds<Src> {
    site: SiteId,
    src: Src,
    done: bool,
}

/// One logical shard owned by a worker: its slot within the worker's
/// replica group, its shard id, and its feeds in feed order.
struct OwnedShard<Src> {
    slot: usize,
    sid: usize,
    feeds: Vec<FeedRounds<Src>>,
}

/// Group per-site feeds into worker lanes: feed `(site, src)` belongs to
/// shard `site mod S`, owned by worker `shard mod W` at slot `shard / W`.
/// Each lane lists its shards ascending; a shard keeps its feeds in feed
/// order — the only order that reaches replica state.
fn lanes<Src>(
    feeds: impl IntoIterator<Item = (SiteId, Src)>,
    s_count: usize,
    w_count: usize,
) -> Vec<Vec<OwnedShard<Src>>> {
    let mut by_shard: BTreeMap<usize, Vec<FeedRounds<Src>>> = BTreeMap::new();
    for (site, src) in feeds {
        by_shard
            .entry(site % s_count)
            .or_default()
            .push(FeedRounds {
                site,
                src,
                done: false,
            });
    }
    let mut lanes: Vec<Vec<OwnedShard<Src>>> = (0..w_count).map(|_| Vec::new()).collect();
    for (sid, feeds) in by_shard {
        lanes[sid % w_count].push(OwnedShard {
            slot: sid / w_count,
            sid,
            feeds,
        });
    }
    lanes
}

/// The shard worker loop: round after round, drain every owned feed's
/// next chunk into its shard's replica and hand the round's
/// [`ShardRound`]s to `sink`, until a round finds every feed done (feed
/// rounds are contiguous from 0, so the first all-empty round is the
/// end) or `sink` returns `false`.
fn worker_loop<T, In, Src>(
    group: &mut [&mut T],
    owned: &mut [OwnedShard<Src>],
    batch: usize,
    consolidate: bool,
    mut sink: impl FnMut(u64, Vec<ShardRound>) -> bool,
) where
    T: Tracker<In> + ?Sized,
    In: ConsolidateInput,
    Src: RoundSource<In>,
{
    let mut scratch = consolidate.then(Consolidator::new);
    for round in 0u64.. {
        let mut reports = Vec::new();
        for shard in owned.iter_mut() {
            let tracker = &mut *group[shard.slot];
            let mut report = ShardRound {
                sid: shard.sid,
                estimate: 0,
                sum: 0,
                len: 0,
            };
            for feed in shard.feeds.iter_mut().filter(|feed| !feed.done) {
                let chunk = feed.src.next_round(batch);
                feed.done = chunk.len() < batch;
                if chunk.is_empty() {
                    continue;
                }
                report.sum += chunk.iter().map(|x| x.delta_of()).sum::<i64>();
                report.len += chunk.len() as u64;
                report.estimate = ingest_run(tracker, feed.site, chunk, scratch.as_mut());
            }
            if report.len > 0 {
                reports.push(report);
            }
        }
        if reports.is_empty() || !sink(round, reports) {
            return;
        }
    }
}

/// A worker's message to the watermark coordinator.
enum CoordMsg {
    /// The worker's reports for one round (rounds arrive in order).
    Round {
        worker: usize,
        round: u64,
        reports: Vec<ShardRound>,
    },
    /// The worker has reported its last round.
    Done { worker: usize },
}

/// The watermark coordinator: collect every worker's rounds and fold
/// each round once no worker can still report it. Worker messages arrive
/// in round order per worker, so a round below every worker's watermark
/// is complete.
fn coordinate(
    rx: mpsc::Receiver<CoordMsg>,
    w_count: usize,
    mut fold: impl FnMut(&mut [ShardRound]),
) {
    // next_watermark[w]: lowest round worker w might still report (MAX
    // once done).
    let mut next_watermark = vec![0u64; w_count];
    let mut pending: BTreeMap<u64, Vec<ShardRound>> = BTreeMap::new();
    let mut next_round = 0u64;
    for msg in rx {
        match msg {
            CoordMsg::Round {
                worker,
                round,
                reports,
            } => {
                pending.entry(round).or_default().extend(reports);
                next_watermark[worker] = round + 1;
            }
            CoordMsg::Done { worker } => next_watermark[worker] = u64::MAX,
        }
        let ready = next_watermark.iter().copied().min().unwrap_or(u64::MAX);
        while next_round < ready {
            // Rounds are dense: no entry means every produced round is
            // already folded.
            let Some(mut reports) = pending.remove(&next_round) else {
                break;
            };
            fold(&mut reports);
            next_round += 1;
        }
    }
}

/// Run every worker lane to completion and fold each round at its
/// boundary — the one round driver behind
/// [`ShardedEngine::run_parted`] and [`ShardedEngine::run_pipelined`].
///
/// With one worker the loop's sink is the fold itself; with more, each
/// lane runs on its own thread and the sinks feed [`coordinate`]. That
/// driver runs on the calling thread — unless a `feeder` must run there
/// (pipelined producers), in which case the driver gets a thread of its
/// own and the feeder runs alongside it.
fn drive_rounds<T, In, Src>(
    shards: &mut [T],
    cut: &mut Cut,
    audit: &mut RunAudit,
    cfg: &EngineConfig,
    lanes: Vec<Vec<OwnedShard<Src>>>,
    feeder: Option<impl FnOnce()>,
) where
    T: Tracker<In> + Send,
    In: ConsolidateInput + Send,
    Src: RoundSource<In> + Send,
{
    let w_count = lanes.len();
    let batch = cfg.batch_size();
    let consolidate = cfg.consolidate_enabled();
    let mut groups: Vec<Vec<&mut T>> = (0..w_count).map(|_| Vec::new()).collect();
    for (sid, tracker) in shards.iter_mut().enumerate() {
        groups[sid % w_count].push(tracker);
    }
    std::thread::scope(|scope| {
        let driver = move || {
            let mut fold = |reports: &mut [ShardRound]| cut.fold(audit, reports);
            let mut work = groups.into_iter().zip(lanes);
            if w_count == 1 {
                let (mut group, mut owned) = work.next().expect("one lane");
                worker_loop(
                    &mut group,
                    &mut owned,
                    batch,
                    consolidate,
                    |_, mut reports| {
                        fold(&mut reports);
                        true
                    },
                );
                return;
            }
            let (tx, rx) = mpsc::channel::<CoordMsg>();
            for (worker, (mut group, mut owned)) in work.enumerate() {
                let tx = tx.clone();
                scope.spawn(move || {
                    worker_loop(
                        &mut group,
                        &mut owned,
                        batch,
                        consolidate,
                        |round, reports| {
                            tx.send(CoordMsg::Round {
                                worker,
                                round,
                                reports,
                            })
                            .is_ok()
                        },
                    );
                    let _ = tx.send(CoordMsg::Done { worker });
                });
            }
            drop(tx);
            coordinate(rx, w_count, fold);
        };
        match feeder {
            None => driver(),
            Some(feed) => {
                let driver = scope.spawn(driver);
                feed();
                driver.join().expect("engine round driver panicked");
            }
        }
    });
}

/// A batched, sharded runner over `S` tracker replicas.
///
/// `T` is the replica type — usually `Box<dyn Tracker + Send>` (see
/// [`CounterEngine`]) or `Box<dyn ItemTracker + Send>` ([`ItemEngine`]),
/// but any `Send` tracker works. The engine is incremental:
/// [`run`](Self::run) may be called repeatedly with successive stream
/// segments, and shard state, the merged estimate, and both communication
/// ledgers persist across calls.
///
/// The `S` logical shards are driven by `W ≤ S` worker threads (worker
/// `w` owns shards `s ≡ w (mod W)`; [`EngineConfig::workers`]). Because
/// replica state is a pure function of the stream → *shard* routing,
/// never of the shard → worker assignment, the worker count can change
/// freely between ingestion calls — [`rescale`](Self::rescale) — and
/// whole engines can be externalized and resumed at batch boundaries —
/// [`checkpoint`](Self::checkpoint) / resume constructors — with
/// bit-identical estimates and ledgers.
///
/// See the crate docs for the execution model and the guarantee argument.
#[derive(Debug)]
pub struct ShardedEngine<T, In: Copy = i64> {
    shards: Vec<T>,
    cfg: EngineConfig,
    /// The merged estimate, consumed time, ground truth, and the inputs
    /// each shard consumed since [`checkpoint`](Self::checkpoint) last
    /// captured it (the dirty-shard skip).
    cut: Cut,
    /// Snapshot traffic ([`StateFrame`]s), charged per checkpoint.
    /// Separate from the tracker and merge ledgers so checkpointing never
    /// perturbs the ledgers the resume-equivalence guarantee covers.
    ckpt_stats: CommStats,
    /// Pipelined-ingestion ledger ([`dsv_net::FeedFrame`] traffic, stalls,
    /// occupancy), accumulated by [`run_pipelined`](Self::run_pipelined).
    /// Separate from the other ledgers for the same reason as
    /// `ckpt_stats`: the transport must not perturb the ledgers the
    /// pipelined-equivalence guarantee is stated over.
    ingest_stats: IngestStats,
    /// Each shard's serialized state as of its last checkpoint capture
    /// (`None` until first captured). Reused verbatim for clean shards.
    ckpt_cache: Vec<Option<TrackerState>>,
    _in: PhantomData<fn(In) -> In>,
}

impl<T, In> ShardedEngine<T, In>
where
    T: Tracker<In> + Send,
    In: Copy + Send,
{
    /// Build an engine whose shard replica `s` is produced by `make(s)`.
    ///
    /// All replicas must agree on kind and site count (they track shards
    /// of one logical stream) — [`EngineError::ReplicaMismatch`]
    /// otherwise; [`TrackerSpec::shard`] is the intended way to derive
    /// per-shard specs.
    pub fn with_factory<E>(
        cfg: EngineConfig,
        mut make: impl FnMut(usize) -> Result<T, E>,
    ) -> Result<Self, EngineError>
    where
        EngineError: From<E>,
    {
        cfg.validate()?;
        let mut shards = Vec::with_capacity(cfg.shards_count());
        for s in 0..cfg.shards_count() {
            shards.push(make(s).map_err(EngineError::from)?);
        }
        let (kind, k) = (shards[0].kind(), shards[0].k());
        for (shard, t) in shards.iter().enumerate() {
            let (what, expected, found) = if t.kind() != kind {
                (
                    "tracker kind tag",
                    kind_tag(kind) as u64,
                    kind_tag(t.kind()) as u64,
                )
            } else if t.k() != k {
                ("site count", k as u64, t.k() as u64)
            } else {
                continue;
            };
            return Err(EngineError::ReplicaMismatch {
                shard,
                what,
                expected,
                found,
            });
        }
        Ok(ShardedEngine {
            cut: Cut::new(cfg.shards_count()),
            shards,
            ckpt_stats: CommStats::new(),
            ingest_stats: IngestStats::new(),
            ckpt_cache: vec![None; cfg.shards_count()],
            cfg,
            _in: PhantomData,
        })
    }

    /// Rebuild an engine from an [`EngineCheckpoint`]: construct fresh
    /// replicas with `make` (which must reproduce the original build
    /// parameters — [`TrackerSpec::shard`] seeding included), then restore
    /// every shard's state, the merge coordinator, and the engine scalars.
    ///
    /// `cfg` must agree with the checkpoint on the **logical** shard
    /// count; the **worker** count is free — resuming onto a different
    /// `cfg.workers` is the rescaling seam, and is exact (see
    /// [`rescale`](Self::rescale)).
    pub fn with_factory_resume<E>(
        cfg: EngineConfig,
        ckpt: &EngineCheckpoint,
        make: impl FnMut(usize) -> Result<T, E>,
    ) -> Result<Self, EngineError>
    where
        EngineError: From<E>,
    {
        if cfg.shards_count() != ckpt.shards() {
            return Err(EngineError::CheckpointMismatch {
                what: "logical shard count",
                expected: cfg.shards_count() as u64,
                found: ckpt.shards() as u64,
            });
        }
        let mut engine = Self::with_factory(cfg, make)?;
        if engine.kind() != ckpt.kind() {
            return Err(EngineError::CheckpointMismatch {
                what: "tracker kind tag",
                expected: kind_tag(engine.kind()) as u64,
                found: kind_tag(ckpt.kind()) as u64,
            });
        }
        for (tracker, state) in engine.shards.iter_mut().zip(ckpt.states()) {
            tracker.restore(state)?;
        }
        engine.cut.restore(ckpt)?;
        Ok(engine)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The replica kind.
    pub fn kind(&self) -> TrackerKind {
        self.shards[0].kind()
    }

    /// Updates consumed so far (across all `run` calls).
    pub fn time(&self) -> Time {
        self.cut.time
    }

    /// The coordinator-side global estimate `f̂ = Σ_s f̂_s`.
    pub fn estimate(&self) -> i64 {
        self.cut.merge.estimate()
    }

    /// Current per-shard local estimates (diagnostics).
    pub fn shard_estimates(&self) -> Vec<i64> {
        self.shards.iter().map(|t| t.estimate()).collect()
    }

    /// In-protocol traffic summed across all shard replicas.
    pub fn tracker_stats(&self) -> CommStats {
        let mut total = CommStats::new();
        for t in &self.shards {
            total.merge(t.stats());
        }
        total
    }

    /// Engine-level shard → coordinator reconciliation traffic.
    pub fn merge_stats(&self) -> &CommStats {
        self.cut.merge.stats()
    }

    /// Snapshot traffic charged by [`checkpoint`](Self::checkpoint) calls
    /// on this engine (one [`StateFrame`] per shard per checkpoint).
    pub fn checkpoint_stats(&self) -> &CommStats {
        &self.ckpt_stats
    }

    /// Pipelined-ingestion traffic, stalls, and queue occupancy charged
    /// by [`run_pipelined`](Self::run_pipelined) calls on this engine.
    pub fn ingest_stats(&self) -> &IngestStats {
        &self.ingest_stats
    }

    /// Capture the engine's complete state — every shard replica's
    /// [`dsv_core::codec::TrackerState`], the merge coordinator, consumed
    /// time, and ground-truth `f` — as a restorable [`EngineCheckpoint`].
    ///
    /// Call between ingestion calls: every point between [`run`](Self::run)
    /// / [`run_parted`](Self::run_parted) calls is a batch boundary, the
    /// engine's exact sync point (shards quiesced, estimate reconciled,
    /// audit run), which is what makes the cut safe — see `DESIGN.md` §6.
    /// Shipping the state off the workers is charged to the dedicated
    /// [`checkpoint_stats`](Self::checkpoint_stats) ledger as one
    /// [`StateFrame`] per **dirty** shard: a shard that has consumed no
    /// inputs since its last capture is provably unchanged, so its cached
    /// serialized state is reused verbatim and nothing is charged — which
    /// is what keeps a periodic auto-checkpoint sink
    /// ([`EngineConfig::checkpoint_every`]) from paying full
    /// serialization cost per boundary on skewed streams.
    pub fn checkpoint(&mut self) -> Result<EngineCheckpoint, EngineError> {
        let mut states = Vec::with_capacity(self.shards.len());
        for (sid, tracker) in self.shards.iter().enumerate() {
            if self.cut.dirty[sid] == 0 {
                if let Some(cached) = &self.ckpt_cache[sid] {
                    states.push(cached.clone());
                    continue;
                }
            }
            let state = tracker.snapshot()?;
            let frame = StateFrame::for_payload(sid, state.payload().len());
            self.ckpt_stats.charge(MsgKind::Up, frame.words());
            self.ckpt_cache[sid] = Some(state.clone());
            self.cut.dirty[sid] = 0;
            states.push(state);
        }
        Ok(self.cut.checkpoint(self.kind(), self.shards[0].k(), states))
    }

    /// Capture a checkpoint (see [`checkpoint`](Self::checkpoint)) and
    /// record it as the next boundary of an incremental
    /// [`CheckpointStore`], returning the recorded boundary time. The
    /// clean-shard skip composes with delta encoding: a shard that
    /// consumed no inputs reuses its cached snapshot verbatim, so the
    /// store diffs two identical payloads and records a few-byte
    /// [identity link](dsv_net::StateDelta::is_identity). Pair with a
    /// store built as
    /// `CheckpointStore::new(cfg.delta_rebase_period())` to honor the
    /// engine's [`EngineConfig::delta_rebase`] setting.
    pub fn checkpoint_into(&mut self, store: &mut CheckpointStore) -> Result<Time, EngineError> {
        let ckpt = self.checkpoint()?;
        let time = ckpt.time();
        store.record(&ckpt)?;
        Ok(time)
    }

    /// Live-rescale the engine: reassign the `S` logical shard replicas
    /// across `workers` worker threads, effective from the next ingestion
    /// call. No shard state moves logically and no stream is replayed —
    /// the shard → worker map is execution detail — so estimates and
    /// ledgers continue bit-identically at any worker count (values above
    /// `S` are clamped to one worker per shard).
    pub fn rescale(&mut self, workers: usize) -> Result<(), EngineError> {
        if workers == 0 {
            return Err(EngineError::ZeroWorkers);
        }
        self.cfg = self.cfg.workers(workers);
        Ok(())
    }

    /// Ingest `stream` in batches, reconciling and auditing at every
    /// batch boundary. With more than one shard, each batch's per-shard
    /// sub-batches execute on persistent worker threads.
    ///
    /// Streams the sequential `Driver` rejects (out-of-range sites,
    /// deletions into insert-only kinds) return the same typed errors
    /// here, detected before the offending batch is dispatched.
    pub fn run<R>(&mut self, stream: &[R]) -> Result<EngineReport, EngineError>
    where
        R: ShardRecord<In = In>,
        In: ConsolidateInput,
    {
        let cfg = self.cfg;
        let s_count = cfg.shards_count();
        let w_count = cfg.workers_count();
        let kind = self.shards[0].kind();
        let k = self.shards[0].k();
        let deletions_ok = kind.supports_deletions();
        let partition = cfg.partition_policy();

        // Layout choice: when site-affine routing gives every shard at
        // most one site (`shard == site`), per-site run buffers feed the
        // zero-copy `update_run` path; otherwise mixed-site tuple buffers
        // feed `update_batch`.
        let use_runs = partition == Partition::SiteAffine && k <= s_count;
        let mut run_bufs: Vec<Vec<In>> = if use_runs {
            (0..k).map(|_| Vec::new()).collect()
        } else {
            Vec::new()
        };
        let mut tup_bufs: Vec<Vec<(SiteId, In)>> = if use_runs {
            Vec::new()
        } else {
            (0..s_count).map(|_| Vec::new()).collect()
        };
        // Site → shard map for the affine tuple path (no division in the
        // hot loop) and the rotating round-robin cursor, phase-continuous
        // across `run` calls.
        let lut: Vec<u32> = if !use_runs && partition == Partition::SiteAffine {
            (0..k).map(|site| (site % s_count) as u32).collect()
        } else {
            Vec::new()
        };
        let mut rr = (self.cut.time % s_count as u64) as usize;
        // Each buffer's Σδ for the batch being routed (`shard == site` in
        // the run layout), and the batch's reports for the fold.
        let mut sums = vec![0i64; s_count];
        let mut reports: Vec<ShardRound> = Vec::with_capacity(s_count);
        let mut route = |batch: &[R],
                         run_bufs: &mut [Vec<In>],
                         tup_bufs: &mut [Vec<(SiteId, In)>],
                         sums: &mut [i64]| {
            if use_runs {
                fill_runs(batch, k, kind, deletions_ok, run_bufs, sums)
            } else {
                fill_tuples(
                    batch,
                    k,
                    kind,
                    deletions_ok,
                    partition,
                    &lut,
                    &mut rr,
                    tup_bufs,
                    sums,
                )
            }
        };

        let mut audit = RunAudit::start(&cfg, &self.cut);
        // Split borrows so worker threads can own `&mut` replicas while
        // the main thread plays coordinator.
        let shards = &mut self.shards;
        let cut = &mut self.cut;
        // One boundary per batch: route it, have `exec` absorb every
        // non-empty shard buffer (inline, or on the shard's worker) and
        // hand it back with its estimate, recycle the buffers, fold.
        let mut ingest = |exec: &mut dyn FnMut(Vec<Work<In>>) -> Vec<Work<In>>| {
            for batch in stream.chunks(cfg.batch_size()) {
                route(batch, &mut run_bufs, &mut tup_bufs, &mut sums)?;
                let runs = run_bufs
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, b)| !b.is_empty());
                let tups = tup_bufs
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, b)| !b.is_empty());
                let work = runs
                    .map(|(sid, b)| Work::new(sid, WorkBuf::Run(sid, std::mem::take(b))))
                    .chain(tups.map(|(sid, b)| Work::new(sid, WorkBuf::Batch(std::mem::take(b)))))
                    .collect();
                for Work { sid, buf, estimate } in exec(work) {
                    let len = match buf {
                        WorkBuf::Run(_, buf) => recycle(&mut run_bufs[sid], buf),
                        WorkBuf::Batch(buf) => recycle(&mut tup_bufs[sid], buf),
                    };
                    let sum = sums[sid];
                    reports.push(ShardRound {
                        sid,
                        estimate,
                        sum,
                        len,
                    });
                }
                sums.fill(0);
                cut.fold(&mut audit, &mut reports);
                reports.clear();
            }
            Ok::<(), EngineError>(())
        };

        if w_count == 1 {
            // One worker (any shard count): batched, but inline — no
            // thread machinery. Same state trajectory as the threaded
            // path, since replica state never depends on worker placement.
            let mut scratch = cfg.consolidate_enabled().then(Consolidator::new);
            ingest(&mut |mut work| {
                for w in work.iter_mut() {
                    w.estimate = absorb(&mut shards[w.sid], &w.buf, scratch.as_mut());
                }
                work
            })?;
        } else {
            std::thread::scope(|scope| {
                let (res_tx, res_rx) = mpsc::channel::<Work<In>>();
                // Worker w owns logical shards {s : s ≡ w (mod W)}, as a
                // dense group; a shard's slot within its group is s / W.
                let mut groups: Vec<Vec<&mut T>> = (0..w_count).map(|_| Vec::new()).collect();
                for (sid, tracker) in shards.iter_mut().enumerate() {
                    groups[sid % w_count].push(tracker);
                }
                let mut work_txs = Vec::with_capacity(w_count);
                let consolidate = cfg.consolidate_enabled();
                for mut group in groups {
                    let (tx, rx) = mpsc::sync_channel::<Work<In>>(group.len().max(1));
                    let res_tx = res_tx.clone();
                    work_txs.push(tx);
                    scope.spawn(move || {
                        // Per-worker consolidation scratch, reused across
                        // rounds — no allocation in the steady state.
                        let mut scratch = consolidate.then(Consolidator::new);
                        while let Ok(mut w) = rx.recv() {
                            let tracker = &mut *group[w.sid / w_count];
                            w.estimate = absorb(tracker, &w.buf, scratch.as_mut());
                            if res_tx.send(w).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(res_tx);
                ingest(&mut |work| {
                    let n = work.len();
                    for w in work {
                        work_txs[w.sid % w_count]
                            .send(w)
                            .expect("shard worker died");
                    }
                    (0..n)
                        .map(|_| res_rx.recv().expect("shard worker died"))
                        .collect()
                })
            })?;
        }

        Ok(self.finish_report(audit))
    }

    /// Ingest pre-parted per-site feeds — the shape a deployed system
    /// has, where every site's stream arrives on its own queue and no
    /// central router exists. Each element of `feeds` is `(site, inputs)`:
    /// one site's contiguous input run in that site's arrival order
    /// (several feeds may name the same site). Rounds of
    /// [`EngineConfig::batch_size`] updates per feed execute across the
    /// shard workers (`shard = site mod S`) through the zero-copy
    /// [`Tracker::update_run`] path, and the engine reconciles and audits
    /// at every round boundary exactly as [`run`](Self::run) does.
    ///
    /// Cross-site interleaving is not defined by a global clock here — it
    /// never is on a distributed ingest path — so estimates can differ
    /// from a particular sequential interleaving, while every per-shard
    /// guarantee and the boundary audit are unchanged.
    pub fn run_parted(&mut self, feeds: &[(SiteId, &[In])]) -> Result<EngineReport, EngineError>
    where
        In: ConsolidateInput + Sync,
    {
        // Validate before anything runs.
        validate_feeds(feeds, self.shards[0].k(), self.kind(), self.cut.time)?;
        let sources = feeds
            .iter()
            .map(|&(site, inputs)| (site, SliceRounds { inputs, round: 0 }));
        let lanes = lanes(sources, self.cfg.shards_count(), self.cfg.workers_count());
        let mut audit = RunAudit::start(&self.cfg, &self.cut);
        drive_rounds(
            &mut self.shards,
            &mut self.cut,
            &mut audit,
            &self.cfg,
            lanes,
            None::<fn()>,
        );
        Ok(self.finish_report(audit))
    }

    /// Ingest through the pipelined path: per-feed bounded queues,
    /// produced by the `feeder` closure and drained by the shard workers,
    /// with the coordinator reconciling each completed boundary while the
    /// workers already absorb the next one.
    ///
    /// `sites[i]` names the site feed `i` carries (several feeds may name
    /// the same site, exactly like [`run_parted`](Self::run_parted)); the
    /// feeder closure receives one [`ShardFeed`] handle per feed, in the
    /// same order, and runs on the calling thread concurrently with the
    /// workers. Push inputs from it directly, or move the handles into
    /// producer threads/tasks of your own — the run finishes when every
    /// handle is closed (dropping closes) and every queue is drained.
    /// Handles stashed beyond the closure are force-closed when it
    /// returns, so the run always terminates.
    ///
    /// **Equivalence contract:** for the same per-site input sequences
    /// and configuration, estimates, per-shard replica states, and the
    /// tracker + merge [`CommStats`] ledgers are **bit-identical** to
    /// [`run_parted`](Self::run_parted) over the same feeds — the
    /// boundary cut is the same (rounds of [`EngineConfig::batch_size`]
    /// inputs per feed), and so is the worker loop; only the round source
    /// differs (a queue instead of a slice). What pipelining adds is
    /// charged to the separate [`ingest_stats`](Self::ingest_stats)
    /// ledger. The divergence is error *timing*: `run_parted` validates
    /// whole feeds before running anything, while a pipelined feed is
    /// validated at the push boundary ([`crate::FeedError`]) — inputs
    /// pushed before the offending one are already in flight and will be
    /// consumed.
    ///
    /// Backpressure ([`EngineConfig::backpressure`]) bounds each queue at
    /// [`EngineConfig::queue_capacity`] inputs; a feed that outruns its
    /// shard stalls (or errors) at the push boundary, and a feed that
    /// lags only stalls the shard it feeds — every other worker keeps
    /// absorbing, which is the overlap the `e17_pipeline` bench gates.
    pub fn run_pipelined<F>(
        &mut self,
        sites: &[SiteId],
        feeder: F,
    ) -> Result<EngineReport, EngineError>
    where
        In: ConsolidateInput + Send + Sync,
        F: FnOnce(Vec<ShardFeed<In>>),
    {
        let cfg = self.cfg;
        let s_count = cfg.shards_count();
        let k = self.shards[0].k();
        let deletions_ok = self.kind().supports_deletions();
        for &site in sites {
            check_site(site, k, self.cut.time)?;
        }

        // One bounded SPSC ring per feed; producer ends become the
        // ShardFeed handles, consumer ends go to the owning workers.
        let rings: Vec<Arc<Ring<In>>> = sites
            .iter()
            .map(|_| Arc::new(Ring::new(cfg.queue_capacity_value())))
            .collect();
        let handles: Vec<ShardFeed<In>> = sites
            .iter()
            .zip(&rings)
            .enumerate()
            .map(|(feed, (&site, ring))| {
                ShardFeed::new(
                    Arc::clone(ring),
                    feed,
                    site,
                    site % s_count,
                    cfg.backpressure_policy(),
                    deletions_ok,
                )
            })
            .collect();
        let sources = sites.iter().zip(&rings).map(|(&site, ring)| {
            let src = RingRounds {
                ring: Arc::clone(ring),
                buf: Vec::with_capacity(cfg.batch_size()),
            };
            (site, src)
        });
        let lanes = lanes(sources, s_count, cfg.workers_count());

        let mut audit = RunAudit::start(&cfg, &self.cut);
        drive_rounds(
            &mut self.shards,
            &mut self.cut,
            &mut audit,
            &cfg,
            lanes,
            Some(|| {
                feeder(handles);
                // The feeder has returned: force-close every ring so
                // stashed or leaked handles cannot wedge the workers.
                for ring in &rings {
                    ring.close();
                }
            }),
        );
        for ring in &rings {
            ring.drain_stats(&mut self.ingest_stats);
        }
        Ok(self.finish_report(audit))
    }

    /// Assemble the report shared by the ingestion paths (all execution
    /// borrows have ended by the time this runs).
    fn finish_report(&self, audit: RunAudit) -> EngineReport {
        self.cut.finish(
            audit,
            &self.cfg,
            self.cfg.workers_count(),
            self.tracker_stats(),
            self.ingest_stats.clone(),
        )
    }
}

impl CounterEngine {
    /// Build a counting engine: one replica of `spec` per shard, shard `s`
    /// re-seeded via [`TrackerSpec::shard`] (shard 0 keeps the spec's seed,
    /// so a single-shard engine is bit-identical to the sequential path).
    pub fn counters(spec: TrackerSpec, cfg: EngineConfig) -> Result<Self, EngineError> {
        Self::with_factory(cfg, |s| spec.shard(s).build())
    }

    /// Resume a counting engine from a checkpoint taken by
    /// [`ShardedEngine::checkpoint`]. `spec` must carry the parameters
    /// the checkpointed engine was built with; `cfg` must agree on the
    /// logical shard count but may change the worker count (rescaling).
    pub fn resume(
        spec: TrackerSpec,
        cfg: EngineConfig,
        ckpt: &EngineCheckpoint,
    ) -> Result<Self, EngineError> {
        Self::with_factory_resume(cfg, ckpt, |s| spec.shard(s).build())
    }
}

impl ItemEngine {
    /// Build an item-frequency engine; see [`ShardedEngine::counters`] for
    /// the replica/seed convention. Pair with [`Partition::ByItem`] so
    /// every item is owned by exactly one shard.
    pub fn items(spec: TrackerSpec, cfg: EngineConfig) -> Result<Self, EngineError> {
        Self::with_factory(cfg, |s| spec.shard(s).build_item())
    }

    /// Resume an item-frequency engine from a checkpoint; see
    /// [`CounterEngine::resume`].
    pub fn resume(
        spec: TrackerSpec,
        cfg: EngineConfig,
        ckpt: &EngineCheckpoint,
    ) -> Result<Self, EngineError> {
        Self::with_factory_resume(cfg, ckpt, |s| spec.shard(s).build_item())
    }
}

impl<T> ShardedEngine<T, (u64, i64)>
where
    T: ItemTracker + Send,
{
    /// Merged per-item estimate `Σ_s f̂_ℓ^{(s)}`. Under
    /// [`Partition::ByItem`] only the owning shard contributes; under the
    /// other policies this is still within `ε·F1` because the per-shard
    /// `F1` budgets sum to the global one.
    pub fn estimate_item(&self, item: u64) -> i64 {
        self.shards.iter().map(|t| t.estimate_item(item)).sum()
    }

    /// Total coordinator-side space across shard replicas, in words.
    pub fn coord_space_words(&self) -> usize {
        self.shards.iter().map(|t| t.coord_space_words()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::api::{Driver, TrackerSpec};
    use dsv_gen::{DeltaGen, ItemStreamGen, MonotoneGen, RoundRobin, WalkGen};
    use dsv_net::{relative_error, ItemUpdate, Update};

    fn det_spec(k: usize) -> TrackerSpec {
        TrackerSpec::new(TrackerKind::Deterministic)
            .k(k)
            .eps(0.1)
            .deletions(true)
    }

    #[test]
    fn single_shard_is_bit_identical_to_sequential_driver() {
        let updates = WalkGen::fair(3).updates(20_000, RoundRobin::new(4));
        let mut sequential = det_spec(4).build().unwrap();
        let report = Driver::new(0.1)
            .unwrap()
            .run(&mut sequential, &updates)
            .unwrap();

        for batch in [1usize, 7, 1024, 50_000] {
            let mut engine =
                ShardedEngine::counters(det_spec(4), EngineConfig::new(1, batch)).unwrap();
            let er = engine.run(&updates).unwrap();
            assert_eq!(er.final_estimate, report.final_estimate, "batch {batch}");
            assert_eq!(er.final_f, report.final_f);
            assert_eq!(engine.tracker_stats(), report.stats, "batch {batch}");
            assert_eq!(er.boundary_violations, 0);
        }
    }

    #[test]
    fn sharded_monotone_stream_stays_within_eps_at_boundaries() {
        let updates = MonotoneGen::ones().updates(50_000, RoundRobin::new(8));
        for shards in [2usize, 4, 8] {
            let mut engine =
                ShardedEngine::counters(det_spec(8), EngineConfig::new(shards, 1_000)).unwrap();
            let report = engine.run(&updates).unwrap();
            assert_eq!(report.boundary_violations, 0, "S={shards}");
            assert_eq!(report.final_f, 50_000);
            assert_eq!(report.batches, 50);
            let err = relative_error(report.final_f, report.final_estimate);
            assert!(err <= 0.1, "S={shards}: err {err}");
            // Merge traffic: at most one report per shard per boundary,
            // and far fewer in practice on a monotone stream.
            assert!(report.merge_stats.total_messages() <= (shards as u64) * report.batches);
            assert!(report.probes.len() == report.batches as usize);
        }
    }

    #[test]
    fn engine_is_incremental_across_runs() {
        let updates = MonotoneGen::ones().updates(10_000, RoundRobin::new(4));
        let mut engine = ShardedEngine::counters(det_spec(4), EngineConfig::new(2, 500)).unwrap();
        let first = engine.run(&updates[..4_000]).unwrap();
        let second = engine.run(&updates[4_000..]).unwrap();
        assert_eq!(first.n, 4_000);
        assert_eq!(second.n, 6_000);
        assert_eq!(second.final_f, 10_000);
        assert_eq!(engine.time(), 10_000);
        let err = relative_error(second.final_f, engine.estimate());
        assert!(err <= 0.1);
    }

    #[test]
    fn round_robin_partition_spreads_a_single_site_stream() {
        // k = 1 single-site kind, sharded by arrival index: each shard
        // tracks a subsequence exactly within ε, and the monotone partial
        // sums merge within ε.
        let spec = TrackerSpec::new(TrackerKind::SingleSite).k(1).eps(0.05);
        let updates = MonotoneGen::ones().updates(30_000, dsv_gen::SingleSite::solo());
        let mut engine = ShardedEngine::counters(
            spec,
            EngineConfig::new(4, 1_000)
                .partition(Partition::RoundRobin)
                .eps(0.05),
        )
        .unwrap();
        let report = engine.run(&updates).unwrap();
        assert_eq!(report.boundary_violations, 0);
        let spread = engine.shard_estimates();
        assert!(spread.iter().all(|&e| e > 0), "all shards fed: {spread:?}");
    }

    #[test]
    fn item_engine_tracks_f1_and_items_under_by_item_partition() {
        let updates = ItemStreamGen::new(7, 256, 1.1, 0.2, 1).updates(40_000, RoundRobin::new(4));
        let spec = TrackerSpec::new(TrackerKind::ExactFreq)
            .k(4)
            .eps(0.1)
            .universe(256);
        let mut engine = ShardedEngine::items(
            spec,
            EngineConfig::new(4, 2_000).partition(Partition::ByItem),
        )
        .unwrap();
        let report = engine.run(&updates).unwrap();
        assert_eq!(report.boundary_violations, 0);
        // Per-item audit against exact ground truth at the end.
        let mut truth = dsv_sketch::ExactCounts::new();
        let mut f1 = 0i64;
        for u in &updates {
            truth.update(u.item, u.delta);
            f1 += u.delta;
        }
        assert_eq!(report.final_f, f1);
        use dsv_sketch::FreqSketch;
        let budget = 0.1 * f1 as f64;
        for item in 0..256u64 {
            let err = (engine.estimate_item(item) - truth.estimate(item)).unsigned_abs() as f64;
            assert!(err <= budget * (1.0 + 1e-12), "item {item}: err {err}");
        }
        assert!(engine.coord_space_words() > 0);
    }

    #[test]
    fn invalid_streams_are_typed_errors_not_panics() {
        // Out-of-range site.
        let mut engine = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 16)).unwrap();
        let err = engine.run(&[Update::new(1, 9, 1)]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Run(RunError::SiteOutOfRange { site: 9, k: 2, .. })
        ));

        // Deletion into an insert-only kind.
        let cmy = TrackerSpec::new(TrackerKind::CmyMonotone).k(2).eps(0.1);
        let mut engine = ShardedEngine::counters(cmy, EngineConfig::new(2, 16)).unwrap();
        let err = engine
            .run(&[Update::new(1, 0, 1), Update::new(2, 1, -1)])
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Run(RunError::DeletionUnsupported { .. })
        ));

        // ByItem partitioning of a counter stream.
        let mut engine = ShardedEngine::counters(
            det_spec(2),
            EngineConfig::new(2, 16).partition(Partition::ByItem),
        )
        .unwrap();
        let err = engine.run(&[Update::new(1, 0, 1)]).unwrap_err();
        assert_eq!(err, EngineError::MissingItemKey { time: 1 });

        // Item streams route fine by item.
        let spec = TrackerSpec::new(TrackerKind::CountMinFreq).k(2).eps(0.2);
        let mut engine = ShardedEngine::items(
            spec,
            EngineConfig::new(2, 16)
                .partition(Partition::ByItem)
                .eps(0.2),
        )
        .unwrap();
        assert!(engine.run(&[ItemUpdate::new(1, 0, 5, 1)]).is_ok());
    }

    #[test]
    fn watermark_coordinator_folds_rounds_in_order_across_workers() {
        // Worker 1 (shard 1) races ahead three rounds and finishes before
        // worker 0 (shard 0) reports its two.
        let (tx, rx) = mpsc::channel();
        for (worker, round, len) in [(1, 0, 1), (1, 1, 2), (1, 2, 3), (0, 0, 10), (0, 1, 20)] {
            let (sid, estimate, sum) = (worker, 0, 0);
            let reports = vec![ShardRound {
                sid,
                estimate,
                sum,
                len,
            }];
            tx.send(CoordMsg::Round {
                worker,
                round,
                reports,
            })
            .unwrap();
        }
        for worker in [1, 0] {
            tx.send(CoordMsg::Done { worker }).unwrap();
        }
        drop(tx);
        let mut folded = Vec::new();
        coordinate(rx, 2, |reports| {
            folded.push(reports.iter().map(|r| (r.sid, r.len)).collect::<Vec<_>>())
        });
        assert_eq!(
            folded,
            vec![vec![(1, 1), (0, 10)], vec![(1, 2), (0, 20)], vec![(1, 3)],]
        );
    }

    #[test]
    fn parted_ingest_matches_routed_ingest_per_shard() {
        // With S >= k each shard owns one site, so parted and routed
        // ingestion feed every replica the same per-site sequence —
        // identical shard estimates and protocol traffic.
        let updates = WalkGen::fair(5).updates(32_000, RoundRobin::new(4));
        let mut routed = ShardedEngine::counters(det_spec(4), EngineConfig::new(4, 8_000)).unwrap();
        let routed_report = routed.run(&updates).unwrap();

        let mut feeds: Vec<(usize, Vec<i64>)> = (0..4).map(|s| (s, Vec::new())).collect();
        for u in &updates {
            feeds[u.site].1.push(u.delta);
        }
        let feed_slices: Vec<(usize, &[i64])> =
            feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();
        let mut parted = ShardedEngine::counters(det_spec(4), EngineConfig::new(4, 2_000)).unwrap();
        let parted_report = parted.run_parted(&feed_slices).unwrap();

        assert_eq!(parted_report.n, routed_report.n);
        assert_eq!(parted_report.final_f, routed_report.final_f);
        assert_eq!(parted.shard_estimates(), routed.shard_estimates());
        assert_eq!(parted.tracker_stats(), routed.tracker_stats());
        assert_eq!(parted_report.final_estimate, routed_report.final_estimate);
    }

    #[test]
    fn parted_ingest_audits_and_rejects_bad_feeds() {
        let mut engine = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 100)).unwrap();
        let ones = vec![1i64; 5_000];
        let report = engine
            .run_parted(&[(0, ones.as_slice()), (1, ones.as_slice())])
            .unwrap();
        assert_eq!(report.n, 10_000);
        assert_eq!(report.final_f, 10_000);
        assert_eq!(report.boundary_violations, 0);
        assert_eq!(report.batches, 50);

        let err = engine.run_parted(&[(7, ones.as_slice())]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Run(RunError::SiteOutOfRange { site: 7, .. })
        ));

        let cmy = TrackerSpec::new(TrackerKind::CmyMonotone).k(2).eps(0.1);
        let mut engine = ShardedEngine::counters(cmy, EngineConfig::new(1, 100)).unwrap();
        engine.run_parted(&[(1, &ones[..7])]).unwrap();
        let bad = vec![1i64, 1, -1];
        let err = engine
            .run_parted(&[(0, &ones[..5]), (1, bad.as_slice())])
            .unwrap_err();
        // The deletion is feed 1's third input, counted from t = 7.
        assert_eq!(
            err,
            EngineError::Run(RunError::DeletionUnsupported {
                kind: TrackerKind::CmyMonotone,
                time: 10
            })
        );
        // Nothing ran: validation precedes execution.
        assert_eq!(engine.time(), 7);
    }

    #[test]
    fn pipelined_ingest_is_bit_identical_to_parted_ingest() {
        let updates = WalkGen::fair(5).updates(32_000, RoundRobin::new(4));
        let mut feeds: Vec<(usize, Vec<i64>)> = (0..4).map(|s| (s, Vec::new())).collect();
        for u in &updates {
            feeds[u.site].1.push(u.delta);
        }
        let feed_slices: Vec<(usize, &[i64])> =
            feeds.iter().map(|(s, v)| (*s, v.as_slice())).collect();
        let sites: Vec<usize> = feeds.iter().map(|(s, _)| *s).collect();

        let cfg = EngineConfig::new(4, 1_000);
        let mut parted = ShardedEngine::counters(det_spec(4), cfg).unwrap();
        let parted_report = parted.run_parted(&feed_slices).unwrap();

        for workers in [4usize, 2, 1] {
            let mut piped = ShardedEngine::counters(det_spec(4), cfg.workers(workers)).unwrap();
            let report = piped
                .run_pipelined(&sites, |handles| {
                    // One producer thread per feed: the deployment shape.
                    std::thread::scope(|s| {
                        for (mut handle, (_, data)) in handles.into_iter().zip(&feeds) {
                            s.spawn(move || {
                                for chunk in data.chunks(333) {
                                    handle.push_batch(chunk).unwrap();
                                }
                            });
                        }
                    });
                })
                .unwrap();
            assert_eq!(report.n, parted_report.n, "W={workers}");
            assert_eq!(report.batches, parted_report.batches);
            assert_eq!(report.final_f, parted_report.final_f);
            assert_eq!(report.final_estimate, parted_report.final_estimate);
            assert_eq!(piped.shard_estimates(), parted.shard_estimates());
            assert_eq!(piped.tracker_stats(), parted.tracker_stats());
            assert_eq!(piped.merge_stats(), parted.merge_stats());
            // The transport is charged on its own ledger, in full.
            assert_eq!(report.ingest_stats.items, updates.len() as u64);
            assert_eq!(report.ingest_stats.words, updates.len() as u64);
            assert!(report.ingest_stats.frames > 0);
        }
    }

    #[test]
    fn pipelined_single_feeder_thread_with_blocking_backpressure() {
        // One thread round-robining chunks across all handles, chunks no
        // larger than the queue capacity: the documented safe schedule
        // for a single Block-policy producer.
        let n_per_site = 5_000usize;
        let feeds: Vec<Vec<i64>> = (0..3).map(|_| vec![1i64; n_per_site]).collect();
        let cfg = EngineConfig::new(3, 256).queue_capacity(128);
        let mut parted = ShardedEngine::counters(det_spec(3), cfg).unwrap();
        let slices: Vec<(usize, &[i64])> = feeds
            .iter()
            .enumerate()
            .map(|(s, v)| (s, v.as_slice()))
            .collect();
        parted.run_parted(&slices).unwrap();

        let mut piped = ShardedEngine::counters(det_spec(3), cfg).unwrap();
        let report = piped
            .run_pipelined(&[0, 1, 2], |mut handles| {
                let mut at = [0usize; 3];
                loop {
                    let mut progressed = false;
                    for (i, handle) in handles.iter_mut().enumerate() {
                        if at[i] < n_per_site {
                            let hi = (at[i] + 100).min(n_per_site);
                            handle.push_batch(&feeds[i][at[i]..hi]).unwrap();
                            at[i] = hi;
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
            })
            .unwrap();
        assert_eq!(report.final_f, 3 * n_per_site as i64);
        assert_eq!(piped.shard_estimates(), parted.shard_estimates());
        assert_eq!(piped.merge_stats(), parted.merge_stats());
        // Every input went through the bounded transport (whether any
        // push stalled is consumer-pace-dependent; the guaranteed-stall
        // case lives in tests/pipeline_equivalence.rs with a 1-slot
        // queue, where no chunk can ever land in one shot).
        assert_eq!(report.ingest_stats.items, 3 * n_per_site as u64);
        assert_eq!(report.ingest_stats.dropped, 0);
    }

    #[test]
    fn pipelined_rejects_bad_sites_and_zero_capacity() {
        let mut engine = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 16)).unwrap();
        let err = engine.run_pipelined(&[0, 9], |_| {}).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Run(RunError::SiteOutOfRange { site: 9, k: 2, .. })
        ));
        assert_eq!(engine.time(), 0);

        let err = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 16).queue_capacity(0))
            .unwrap_err();
        assert_eq!(err, EngineError::ZeroQueueCapacity);
    }

    #[test]
    fn pipelined_empty_run_and_leaked_handle_terminate() {
        let mut engine = ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 16)).unwrap();
        // No feeds at all.
        let report = engine
            .run_pipelined(&[], |handles| assert!(handles.is_empty()))
            .unwrap();
        assert_eq!((report.n, report.batches), (0, 0));

        // A handle stashed past the feeder closure is force-closed by the
        // engine, so the run still terminates and the data still lands.
        let mut stash = None;
        let report = engine
            .run_pipelined(&[0], |mut handles| {
                let mut h = handles.pop().unwrap();
                h.push_batch(&[1, 1, 1]).unwrap();
                stash = Some(h);
            })
            .unwrap();
        assert_eq!(report.n, 3);
        let mut leaked = stash.unwrap();
        assert_eq!(leaked.push(1), Err(crate::FeedError::Closed { pushed: 0 }));
    }

    #[test]
    fn probe_period_zero_disables_probes() {
        let updates = MonotoneGen::ones().updates(5_000, RoundRobin::new(2));
        let mut engine =
            ShardedEngine::counters(det_spec(2), EngineConfig::new(2, 500).probe_every(0)).unwrap();
        let report = engine.run(&updates).unwrap();
        assert!(report.probes.is_empty());
        assert_eq!(report.batches, 10);
        assert!(report.updates_per_sec() > 0.0);
    }
}
