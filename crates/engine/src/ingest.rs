//! Pipelined ingestion: bounded per-shard queues and feeder handles.
//!
//! [`crate::ShardedEngine::run_parted`] synchronizes every round from one
//! feeder thread: a slow feed stalls every shard. This module is the
//! decoupling layer that fixes that. Each feed gets a **bounded SPSC ring
//! queue** (hand-rolled on atomics — no dependencies); the producer side
//! is a [`ShardFeed`] handle the feeder code pushes into, the consumer
//! side is drained by the owning shard worker inside
//! [`crate::ShardedEngine::run_pipelined`]. A feed that lags only stalls
//! the shard it feeds; every other worker keeps absorbing, and the
//! coordinator reconciles completed boundaries concurrently.
//!
//! ## Backpressure
//!
//! A bounded queue must decide what a producer does when it is full —
//! that is the [`Backpressure`] policy in
//! [`EngineConfig`](crate::EngineConfig): park until the worker drains
//! ([`Backpressure::Block`], the default), spin-yield
//! ([`Backpressure::Yield`]), or surface a typed [`FeedError::Full`]
//! ([`Backpressure::Error`]) so the caller can shed load. Stalls, waits,
//! and queue occupancy are charged to the engine's
//! [`IngestStats`] ledger; the traffic itself is
//! accounted as [`FeedFrame`]s in the model's word
//! currency.
//!
//! ## Ordering discipline
//!
//! With [`Backpressure::Block`], a single thread feeding several handles
//! must interleave its pushes (round-robin chunks no larger than the
//! queue capacity) or it can deadlock against the round-ordered consumer:
//! the worker drains a shard's feeds in feed order, so filling feed `j`'s
//! queue to the brim before feed `i < j` of the same shard has its round
//! available parks the producer while the worker waits on `i`. One
//! producer thread per feed (the deployment shape) cannot deadlock.
//!
//! ## Consolidation
//!
//! Feeds carry raw per-site inputs; batch consolidation
//! ([`EngineConfig::consolidate`](crate::EngineConfig::consolidate)) is
//! applied by the *consuming* worker after it drains a round — each
//! worker owns a [`Consolidator`](crate::Consolidator) of reused scratch
//! buffers — so the queue protocol, the [`FeedFrame`] word charges, and
//! the boundary cut are byte-for-byte the same with the knob on or off,
//! and producers never pay the sort/RLE cost on their threads.
//!
//! ## The `async-ingest` feature
//!
//! With the `async-ingest` feature the handles additionally expose
//! `ShardFeed::push_async` / `ShardFeed::push_batch_async`: futures
//! that resolve when the input is enqueued, awaiting capacity instead of
//! blocking the thread. The futures are runtime-agnostic (plain
//! `std::future` wakers — they run on `tokio` or any other executor, and
//! the feature adds no dependency).

use crate::partition::InputDelta;
use dsv_net::{FeedFrame, IngestStats, SiteId};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What a [`ShardFeed`] push does when its bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Park the producer until the worker drains space (the default).
    /// Applies backpressure end-to-end: a feed outrunning its shard is
    /// slowed to the shard's pace.
    #[default]
    Block,
    /// Spin with [`std::thread::yield_now`] until space frees up. Lower
    /// wakeup latency than [`Backpressure::Block`] at the cost of burning
    /// the producer's core while stalled.
    Yield,
    /// Fail fast: return [`FeedError::Full`] with the input not enqueued,
    /// letting the producer shed or reroute load.
    Error,
}

/// A typed feeder-side failure. `pushed` is always the number of inputs
/// of the failing call that *were* enqueued before the error (0 for
/// single pushes): those inputs are in flight and will be consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedError {
    /// The queue is full and the policy is [`Backpressure::Error`].
    Full {
        /// Inputs of this call enqueued before the queue filled.
        pushed: usize,
    },
    /// The feed was closed (by [`ShardFeed::close`] or by the engine
    /// tearing down the run); the input was not enqueued.
    Closed {
        /// Inputs of this call enqueued before the close was observed.
        pushed: usize,
    },
    /// The input is a deletion but the engine's tracker kind is
    /// insert-only — the same stream the sequential `Driver` rejects,
    /// detected at the feed boundary before it can corrupt a replica.
    /// The whole call is validated before transport, so **nothing** of
    /// the failing call was enqueued.
    DeletionUnsupported {
        /// Index of the offending input within the call (0 for `push`).
        at: usize,
    },
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Full { pushed } => {
                write!(fm, "queue full after {pushed} inputs (policy = Error)")
            }
            FeedError::Closed { pushed } => {
                write!(fm, "feed closed after {pushed} inputs")
            }
            FeedError::DeletionUnsupported { at } => write!(
                fm,
                "deletion pushed into an insert-only tracker kind (input {at} of the call; nothing enqueued)"
            ),
        }
    }
}

impl std::error::Error for FeedError {}

/// How long a parked producer or consumer sleeps per condvar wait. The
/// waiting protocol re-checks its condition before every wait, so this is
/// a robustness bound on wakeup latency, not a poll period.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// The bounded SPSC ring. One producer ([`ShardFeed`]) and one consumer
/// (the worker that drains the feed's shard) — the discipline is enforced by
/// handle ownership, not checked at runtime.
///
/// Lock-free on the data path: `tail` counts items ever pushed (written
/// by the producer only), `head` items ever popped (consumer only), both
/// monotone, so `tail - head` is the occupancy and slot `i % cap` is safe
/// to write iff `tail - head < cap` and safe to read iff `head < tail`.
/// The Release store of each counter publishes the slot writes/reads that
/// preceded it; the opposite side's Acquire load observes them. Waiting
/// (full producer, empty consumer) is a classic monitor: the waiter
/// re-checks its condition under the `gate` mutex before waiting, and the
/// other side notifies under the same mutex after every counter advance —
/// chunk-grained, so the lock is uncontended noise on the throughput
/// path, and wakeups can never be lost (the timed wait is pure belt and
/// braces).
pub(crate) struct Ring<T: Copy> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    tail: AtomicU64,
    head: AtomicU64,
    closed: AtomicBool,
    gate: Mutex<()>,
    not_full: Condvar,
    not_empty: Condvar,
    // Ledger counters (relaxed; read by the engine after the run).
    frames: AtomicU64,
    items: AtomicU64,
    words: AtomicU64,
    push_stalls: AtomicU64,
    pop_waits: AtomicU64,
    occ_sum: AtomicU64,
    occ_samples: AtomicU64,
    high_water: AtomicU64,
    #[cfg(feature = "async-ingest")]
    prod_waker: Mutex<Option<std::task::Waker>>,
}

// SAFETY: the slots are accessed from two threads, but never the same
// slot concurrently — the producer only writes slots in `head + cap >
// i >= tail` territory it owns, the consumer only reads slots `< tail`
// it owns, and the Acquire/Release counter handshake orders the accesses
// (see the type docs). `T: Copy` means no drops are ever owed.
unsafe impl<T: Copy + Send> Sync for Ring<T> {}
unsafe impl<T: Copy + Send> Send for Ring<T> {}

impl<T: Copy> Ring<T> {
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive (validated)");
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            cap,
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            gate: Mutex::new(()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            frames: AtomicU64::new(0),
            items: AtomicU64::new(0),
            words: AtomicU64::new(0),
            push_stalls: AtomicU64::new(0),
            pop_waits: AtomicU64::new(0),
            occ_sum: AtomicU64::new(0),
            occ_samples: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            #[cfg(feature = "async-ingest")]
            prod_waker: Mutex::new(None),
        }
    }

    fn occupancy(&self) -> u64 {
        self.tail.load(Ordering::Relaxed) - self.head.load(Ordering::Acquire)
    }

    fn is_full(&self) -> bool {
        self.occupancy() >= self.cap as u64
    }

    /// Base pointer of the slot array as `*mut T` (the sanctioned
    /// `UnsafeCell` path; `UnsafeCell<MaybeUninit<T>>` is layout-
    /// transparent over `T`, and consecutive slots are contiguous).
    fn base(&self) -> *mut T {
        UnsafeCell::raw_get(self.slots.as_ptr()).cast::<T>()
    }

    /// Producer-only: enqueue as many of `xs` as fit right now, as at
    /// most two contiguous `memcpy` segments (no per-item index math).
    /// Returns the number enqueued. Never waits, and never enqueues into
    /// a closed ring (the caller reports a typed `Closed` instead), so a
    /// push racing an engine force-close cannot acknowledge inputs no
    /// worker will drain — except in the unavoidable window where the
    /// close lands between this check and the `tail` publication, which
    /// teardown accounts as [`IngestStats::dropped`].
    pub(crate) fn push_some(&self, xs: &[T]) -> usize {
        if self.is_closed() {
            return 0;
        }
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Acquire);
        let space = self.cap as u64 - (t - h);
        let n = xs.len().min(space as usize);
        if n == 0 {
            return 0;
        }
        let start = (t % self.cap as u64) as usize;
        let first = n.min(self.cap - start);
        // SAFETY: slots `t..t+space` are unoccupied (consumer is at `h`
        // and `t + space - h == cap`) and owned by this producer; the two
        // segments stay inside the allocation and cannot alias `xs`.
        unsafe {
            std::ptr::copy_nonoverlapping(xs.as_ptr(), self.base().add(start), first);
            std::ptr::copy_nonoverlapping(xs.as_ptr().add(first), self.base(), n - first);
        }
        self.tail.store(t + n as u64, Ordering::Release);
        // Publish under the gate: a consumer past its own re-check is
        // either already waiting (notified) or will re-check the new tail
        // once it acquires the gate — wakeups cannot be lost.
        let _guard = self.gate.lock().unwrap();
        self.not_empty.notify_all();
        n
    }

    /// Producer-only: park until the queue has space or is closed.
    pub(crate) fn wait_not_full(&self) {
        let guard = self.gate.lock().unwrap();
        if self.is_full() && !self.closed.load(Ordering::Acquire) {
            let _unused = self.not_full.wait_timeout(guard, PARK_TIMEOUT).unwrap();
        }
    }

    /// Close the queue (idempotent; producer side or engine teardown).
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _guard = self.gate.lock().unwrap();
        self.not_empty.notify_all();
        self.not_full.notify_all();
        #[cfg(feature = "async-ingest")]
        if let Some(waker) = self.prod_waker.lock().unwrap().take() {
            waker.wake();
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Consumer-only: pop exactly `want` items into `out`, waiting for
    /// the producer as needed; fewer only when the queue is closed and
    /// drained (the feed's final partial round).
    pub(crate) fn pop_round(&self, out: &mut Vec<T>, want: usize) {
        let mut waited = false;
        while out.len() < want {
            let h = self.head.load(Ordering::Relaxed);
            let t = self.tail.load(Ordering::Acquire);
            if t == h {
                if self.closed.load(Ordering::Acquire) {
                    // `closed` is set after the final push; re-read the
                    // tail so a push racing the close is not dropped.
                    if self.tail.load(Ordering::Acquire) == h {
                        break;
                    }
                    continue;
                }
                if !waited {
                    waited = true;
                    self.pop_waits.fetch_add(1, Ordering::Relaxed);
                }
                let guard = self.gate.lock().unwrap();
                if self.tail.load(Ordering::Acquire) == h && !self.closed.load(Ordering::Acquire) {
                    let _unused = self.not_empty.wait_timeout(guard, PARK_TIMEOUT).unwrap();
                }
                continue;
            }
            let take = ((t - h) as usize).min(want - out.len());
            let start = (h % self.cap as u64) as usize;
            let first = take.min(self.cap - start);
            // SAFETY: slots `h..t` were initialized by the producer and
            // published by its Release store of `tail`; this consumer
            // owns them until it advances `head`. Viewing them as `&[T]`
            // is sound — the producer only writes the disjoint free
            // region.
            unsafe {
                out.extend_from_slice(std::slice::from_raw_parts(self.base().add(start), first));
                out.extend_from_slice(std::slice::from_raw_parts(self.base(), take - first));
            }
            self.head.store(h + take as u64, Ordering::Release);
            {
                let _guard = self.gate.lock().unwrap();
                self.not_full.notify_all();
            }
            #[cfg(feature = "async-ingest")]
            if let Some(waker) = self.prod_waker.lock().unwrap().take() {
                waker.wake();
            }
        }
    }

    /// Fold this ring's counters into an engine-level ledger (called
    /// after the run, once the workers have exited). Inputs still
    /// resident — possible only when a stashed handle's push raced the
    /// engine's force-close — are surfaced as `dropped` rather than
    /// silently vanishing.
    pub(crate) fn drain_stats(&self, into: &mut IngestStats) {
        into.merge(&IngestStats {
            frames: self.frames.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            words: self.words.load(Ordering::Relaxed),
            push_stalls: self.push_stalls.load(Ordering::Relaxed),
            pop_waits: self.pop_waits.load(Ordering::Relaxed),
            occupancy_sum: self.occ_sum.load(Ordering::Relaxed),
            occupancy_samples: self.occ_samples.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
            dropped: self.occupancy(),
        });
    }
}

/// The producer handle for one feed of a pipelined run: push inputs for
/// one site into its shard's bounded queue.
///
/// Handed to the feeder closure by
/// [`crate::ShardedEngine::run_pipelined`]; one handle per feed, single
/// producer by ownership (`push` takes `&mut self`, the type is not
/// `Clone`). Dropping the handle closes the feed; [`close`](Self::close)
/// does so explicitly and pushing afterwards is a typed
/// [`FeedError::Closed`].
#[derive(Debug)]
pub struct ShardFeed<In: Copy> {
    ring: Arc<Ring<In>>,
    feed: usize,
    site: SiteId,
    shard: usize,
    policy: Backpressure,
    deletions_ok: bool,
    words_per_item: usize,
    closed: bool,
}

impl<In: Copy> std::fmt::Debug for Ring<In> {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("Ring")
            .field("cap", &self.cap)
            .field("occupancy", &self.occupancy())
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl<In: InputDelta> ShardFeed<In> {
    pub(crate) fn new(
        ring: Arc<Ring<In>>,
        feed: usize,
        site: SiteId,
        shard: usize,
        policy: Backpressure,
        deletions_ok: bool,
    ) -> Self {
        ShardFeed {
            ring,
            feed,
            site,
            shard,
            policy,
            deletions_ok,
            words_per_item: In::WORDS,
            closed: false,
        }
    }

    /// The site this feed's inputs belong to.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The logical shard (`site mod S`) this feed's queue belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The queue's capacity in inputs.
    pub fn capacity(&self) -> usize {
        self.ring.cap
    }

    /// Inputs currently resident in the queue (racy snapshot).
    pub fn occupancy(&self) -> u64 {
        self.ring.occupancy()
    }

    fn check_open(&self, pushed: usize) -> Result<(), FeedError> {
        if self.closed || self.ring.is_closed() {
            Err(FeedError::Closed { pushed })
        } else {
            Ok(())
        }
    }

    fn check_delta(&self, x: In, at: usize) -> Result<(), FeedError> {
        if !self.deletions_ok && x.delta_of() < 0 {
            Err(FeedError::DeletionUnsupported { at })
        } else {
            Ok(())
        }
    }

    /// Charge `items` enqueued inputs (traffic volume only; the async
    /// path calls this once per landed segment).
    fn charge_items(&self, items: usize) {
        let frame = FeedFrame::for_chunk(self.feed, items, self.words_per_item);
        let r = &self.ring;
        r.items.fetch_add(frame.items as u64, Ordering::Relaxed);
        r.words.fetch_add(frame.words as u64, Ordering::Relaxed);
    }

    /// Count one frame (one `push` / `push_batch` call, sync or async)
    /// and sample occupancy: resident items once the frame has landed —
    /// the queue depth a new arrival would see behind it.
    fn charge_frame_meta(&self) {
        let r = &self.ring;
        let occupancy = r.occupancy();
        r.frames.fetch_add(1, Ordering::Relaxed);
        r.occ_sum.fetch_add(occupancy, Ordering::Relaxed);
        r.occ_samples.fetch_add(1, Ordering::Relaxed);
        r.high_water.fetch_max(occupancy, Ordering::Relaxed);
    }

    /// Charge one complete frame of `items` inputs.
    fn charge(&self, items: usize) {
        self.charge_items(items);
        self.charge_frame_meta();
    }

    /// Push one input, honoring the configured [`Backpressure`] policy
    /// when the queue is full.
    pub fn push(&mut self, x: In) -> Result<(), FeedError> {
        self.push_batch(&[x])
    }

    /// Push one input without ever waiting, regardless of policy:
    /// [`FeedError::Full`] if the queue has no space right now.
    pub fn try_push(&mut self, x: In) -> Result<(), FeedError> {
        self.check_open(0)?;
        self.check_delta(x, 0)?;
        if self.ring.push_some(&[x]) == 1 {
            self.charge(1);
            Ok(())
        } else {
            Err(FeedError::Full { pushed: 0 })
        }
    }

    /// Push a chunk of inputs in order, honoring the configured
    /// [`Backpressure`] policy whenever the queue fills mid-chunk. On an
    /// error, `pushed` inputs of this call were enqueued (and will be
    /// consumed); the rest were not.
    pub fn push_batch(&mut self, xs: &[In]) -> Result<(), FeedError> {
        self.check_open(0)?;
        for (i, &x) in xs.iter().enumerate() {
            self.check_delta(x, i)?;
        }
        let mut pushed = 0;
        let mut stalled = false;
        while pushed < xs.len() {
            if let Err(e) = self.check_open(pushed) {
                // The feed closed mid-chunk (engine teardown): the
                // enqueued prefix is consumed like any other inputs, so
                // it is charged like any other inputs.
                if pushed > 0 {
                    self.charge(pushed);
                }
                return Err(e);
            }
            let n = self.ring.push_some(&xs[pushed..]);
            pushed += n;
            if pushed == xs.len() {
                break;
            }
            match self.policy {
                Backpressure::Error => {
                    if pushed > 0 {
                        self.charge(pushed);
                    }
                    return Err(FeedError::Full { pushed });
                }
                Backpressure::Yield => {
                    if !stalled {
                        stalled = true;
                        self.ring.push_stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
                Backpressure::Block => {
                    if !stalled {
                        stalled = true;
                        self.ring.push_stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    self.ring.wait_not_full();
                }
            }
        }
        if pushed > 0 {
            self.charge(pushed);
        }
        Ok(())
    }

    /// Close the feed: the worker drains what was pushed, finishes the
    /// feed's final (possibly partial) round, and stops expecting data.
    /// Idempotent; also performed on drop. Pushing after a close is a
    /// typed [`FeedError::Closed`].
    pub fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            self.ring.close();
        }
    }
}

impl<In: Copy> Drop for ShardFeed<In> {
    fn drop(&mut self) {
        if !self.closed {
            self.closed = true;
            self.ring.close();
        }
    }
}

/// The producer handle for one feed of a pipelined **fleet** run: push
/// `(key, input)` deltas into a bounded queue drained by the fleet
/// driver ([`crate::TrackerFleet::run_pipelined`]).
///
/// Same discipline as [`ShardFeed`]: one handle per feed, single
/// producer by ownership (not `Clone`), dropping closes, and the
/// configured [`Backpressure`] policy applies when the queue fills.
/// Unlike a [`ShardFeed`], a fleet feed is not tied to a site or shard —
/// the key routes each delta to its shard on the consumer side, which is
/// why the traffic is charged as *keyed* frames
/// ([`FeedFrame::for_keyed_chunk`]: every input ships its routing key as
/// one extra word) to the fleet's [`IngestStats`] ledger.
#[derive(Debug)]
pub struct FleetFeed<In: Copy> {
    ring: Arc<Ring<(u64, In)>>,
    feed: usize,
    policy: Backpressure,
    deletions_ok: bool,
    closed: bool,
}

impl<In: InputDelta> FleetFeed<In> {
    pub(crate) fn new(
        ring: Arc<Ring<(u64, In)>>,
        feed: usize,
        policy: Backpressure,
        deletions_ok: bool,
    ) -> Self {
        FleetFeed {
            ring,
            feed,
            policy,
            deletions_ok,
            closed: false,
        }
    }

    /// This feed's index among the run's feeds (drain order).
    pub fn feed(&self) -> usize {
        self.feed
    }

    /// The queue's capacity in keyed inputs.
    pub fn capacity(&self) -> usize {
        self.ring.cap
    }

    /// Keyed inputs currently resident in the queue (racy snapshot).
    pub fn occupancy(&self) -> u64 {
        self.ring.occupancy()
    }

    fn check_open(&self, pushed: usize) -> Result<(), FeedError> {
        if self.closed || self.ring.is_closed() {
            Err(FeedError::Closed { pushed })
        } else {
            Ok(())
        }
    }

    /// Charge one keyed frame of `items` enqueued inputs.
    fn charge(&self, items: usize) {
        let frame = FeedFrame::for_keyed_chunk(self.feed, items, In::WORDS);
        let r = &self.ring;
        r.items.fetch_add(frame.items as u64, Ordering::Relaxed);
        r.words.fetch_add(frame.words as u64, Ordering::Relaxed);
        let occupancy = r.occupancy();
        r.frames.fetch_add(1, Ordering::Relaxed);
        r.occ_sum.fetch_add(occupancy, Ordering::Relaxed);
        r.occ_samples.fetch_add(1, Ordering::Relaxed);
        r.high_water.fetch_max(occupancy, Ordering::Relaxed);
    }

    /// Push one keyed delta, honoring the configured [`Backpressure`]
    /// policy when the queue is full.
    pub fn push(&mut self, key: u64, input: In) -> Result<(), FeedError> {
        self.push_batch(&[(key, input)])
    }

    /// Push one keyed delta without ever waiting, regardless of policy:
    /// [`FeedError::Full`] if the queue has no space right now.
    pub fn try_push(&mut self, key: u64, input: In) -> Result<(), FeedError> {
        self.check_open(0)?;
        if !self.deletions_ok && input.delta_of() < 0 {
            return Err(FeedError::DeletionUnsupported { at: 0 });
        }
        if self.ring.push_some(&[(key, input)]) == 1 {
            self.charge(1);
            Ok(())
        } else {
            Err(FeedError::Full { pushed: 0 })
        }
    }

    /// Push a chunk of keyed deltas in order; identical contract to
    /// [`ShardFeed::push_batch`] (validated before transport, `pushed`
    /// counts the landed prefix on error).
    pub fn push_batch(&mut self, xs: &[(u64, In)]) -> Result<(), FeedError> {
        self.check_open(0)?;
        if !self.deletions_ok {
            if let Some(at) = xs.iter().position(|&(_, x)| x.delta_of() < 0) {
                return Err(FeedError::DeletionUnsupported { at });
            }
        }
        let mut pushed = 0;
        let mut stalled = false;
        while pushed < xs.len() {
            if let Err(e) = self.check_open(pushed) {
                if pushed > 0 {
                    self.charge(pushed);
                }
                return Err(e);
            }
            let n = self.ring.push_some(&xs[pushed..]);
            pushed += n;
            if pushed == xs.len() {
                break;
            }
            match self.policy {
                Backpressure::Error => {
                    if pushed > 0 {
                        self.charge(pushed);
                    }
                    return Err(FeedError::Full { pushed });
                }
                Backpressure::Yield => {
                    if !stalled {
                        stalled = true;
                        self.ring.push_stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
                Backpressure::Block => {
                    if !stalled {
                        stalled = true;
                        self.ring.push_stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    self.ring.wait_not_full();
                }
            }
        }
        if pushed > 0 {
            self.charge(pushed);
        }
        Ok(())
    }

    /// Close the feed: the fleet drains what was pushed and stops
    /// expecting data. Idempotent; also performed on drop.
    pub fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            self.ring.close();
        }
    }
}

impl<In: Copy> Drop for FleetFeed<In> {
    fn drop(&mut self) {
        if !self.closed {
            self.closed = true;
            self.ring.close();
        }
    }
}

#[cfg(feature = "async-ingest")]
mod async_feed {
    //! Runtime-agnostic async pushes (`async-ingest` feature): plain
    //! `std::future` futures that await queue capacity via the ring's
    //! producer waker — drive them from `tokio`, any other executor, or a
    //! hand-rolled `block_on`.

    use super::{FeedError, ShardFeed};
    use crate::partition::InputDelta;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::Ordering;
    use std::task::{Context, Poll};

    impl<In: InputDelta> ShardFeed<In> {
        /// Async push: resolves once the input is enqueued, awaiting
        /// capacity instead of blocking the thread. (The sync
        /// [`Backpressure`](super::Backpressure) policy does not apply —
        /// awaiting *is* the backpressure.)
        pub fn push_async(&mut self, x: In) -> AsyncPush<'_, In> {
            AsyncPush {
                feed: self,
                x,
                stalled: false,
            }
        }

        /// Async chunk push; see [`push_async`](Self::push_async). The
        /// chunk is enqueued in order, possibly across several polls.
        pub fn push_batch_async<'a>(&'a mut self, xs: &'a [In]) -> AsyncPushBatch<'a, In> {
            AsyncPushBatch {
                feed: self,
                xs,
                at: 0,
                stalled: false,
            }
        }

        /// One poll step shared by the async futures: try to push
        /// `xs[*at..]`, registering `cx`'s waker before parking.
        ///
        /// Ledger semantics match the sync calls: enqueued inputs are
        /// charged as they land (segment by segment across polls), one
        /// frame + occupancy sample is counted when the call completes —
        /// or, like the sync error paths, when it errors with a landed
        /// prefix — and a call that ever suspends counts one push stall
        /// (`*stalled` persists across polls in the future's state).
        fn poll_push(
            &mut self,
            cx: &mut Context<'_>,
            xs: &[In],
            at: &mut usize,
            stalled: &mut bool,
        ) -> Poll<Result<(), FeedError>> {
            if *at == 0 {
                if let Err(e) = self.check_open(0) {
                    return Poll::Ready(Err(e));
                }
                for (i, &x) in xs.iter().enumerate() {
                    if let Err(e) = self.check_delta(x, i) {
                        return Poll::Ready(Err(e));
                    }
                }
            }
            loop {
                if let Err(e) = self.check_open(*at) {
                    if *at > 0 {
                        self.charge_frame_meta();
                    }
                    return Poll::Ready(Err(e));
                }
                let n = self.ring.push_some(&xs[*at..]);
                if n > 0 {
                    self.charge_items(n);
                    *at += n;
                }
                if *at == xs.len() {
                    if !xs.is_empty() {
                        self.charge_frame_meta();
                    }
                    return Poll::Ready(Ok(()));
                }
                // Register, then re-check: a consumer pop between the
                // failed push and the registration must not be lost.
                *self.ring.prod_waker.lock().unwrap() = Some(cx.waker().clone());
                if self.ring.is_full() && !self.ring.is_closed() {
                    if !*stalled {
                        *stalled = true;
                        self.ring.push_stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    return Poll::Pending;
                }
            }
        }
    }

    /// Future of [`ShardFeed::push_async`].
    #[derive(Debug)]
    #[must_use = "futures do nothing unless polled"]
    pub struct AsyncPush<'a, In: Copy> {
        feed: &'a mut ShardFeed<In>,
        x: In,
        stalled: bool,
    }

    // The futures hold no self-references (the input is plain `Copy`
    // data and the feed a normal `&mut`), so they are always Unpin even
    // when `In` itself is not.
    impl<In: Copy> Unpin for AsyncPush<'_, In> {}
    impl<In: Copy> Unpin for AsyncPushBatch<'_, In> {}

    impl<In: InputDelta> Future for AsyncPush<'_, In> {
        type Output = Result<(), FeedError>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let this = self.get_mut();
            let x = this.x;
            // A single input either enqueues fully or not at all, so the
            // progress cursor can restart at 0 every poll.
            let mut at = 0;
            this.feed.poll_push(cx, &[x], &mut at, &mut this.stalled)
        }
    }

    /// Future of [`ShardFeed::push_batch_async`].
    #[derive(Debug)]
    #[must_use = "futures do nothing unless polled"]
    pub struct AsyncPushBatch<'a, In: Copy> {
        feed: &'a mut ShardFeed<In>,
        xs: &'a [In],
        at: usize,
        stalled: bool,
    }

    impl<In: InputDelta> Future for AsyncPushBatch<'_, In> {
        type Output = Result<(), FeedError>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let this = self.get_mut();
            let xs = this.xs;
            this.feed.poll_push(cx, xs, &mut this.at, &mut this.stalled)
        }
    }
}

#[cfg(feature = "async-ingest")]
pub use async_feed::{AsyncPush, AsyncPushBatch};

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_pair(cap: usize, policy: Backpressure) -> (ShardFeed<i64>, Arc<Ring<i64>>) {
        let ring = Arc::new(Ring::new(cap));
        let feed = ShardFeed::new(Arc::clone(&ring), 0, 0, 0, policy, true);
        (feed, ring)
    }

    #[test]
    fn ring_roundtrips_in_order_across_wraparound() {
        let (mut feed, cons) = feed_pair(7, Backpressure::Error);
        let mut out = Vec::new();
        let mut expect = Vec::new();
        for chunk in 0..40 {
            let xs: Vec<i64> = (0..5).map(|i| chunk * 100 + i).collect();
            feed.push_batch(&xs).unwrap();
            expect.extend_from_slice(&xs);
            let want = out.len() + 5;
            cons.pop_round(&mut out, want);
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn error_policy_reports_full_with_partial_progress() {
        let (mut feed, cons) = feed_pair(4, Backpressure::Error);
        assert_eq!(
            feed.push_batch(&[1, 2, 3, 4, 5, 6]),
            Err(FeedError::Full { pushed: 4 })
        );
        assert_eq!(feed.try_push(9), Err(FeedError::Full { pushed: 0 }));
        let mut out = Vec::new();
        cons.pop_round(&mut out, 2);
        assert_eq!(out, vec![1, 2]);
        // Space again: the remainder can be re-offered by the caller.
        assert_eq!(feed.push_batch(&[5, 6]), Ok(()));
    }

    #[test]
    fn push_after_close_is_a_typed_error() {
        let (mut feed, cons) = feed_pair(4, Backpressure::Block);
        feed.push(42).unwrap();
        feed.close();
        feed.close(); // idempotent
        assert_eq!(feed.push(1), Err(FeedError::Closed { pushed: 0 }));
        assert_eq!(
            feed.push_batch(&[1, 2]),
            Err(FeedError::Closed { pushed: 0 })
        );
        let mut out = Vec::new();
        cons.pop_round(&mut out, 10);
        assert_eq!(out, vec![42], "data pushed before the close is drained");
    }

    #[test]
    fn deletions_are_rejected_for_insert_only_feeds() {
        let ring = Arc::new(Ring::new(8));
        let mut feed: ShardFeed<i64> =
            ShardFeed::new(Arc::clone(&ring), 0, 0, 0, Backpressure::Block, false);
        assert_eq!(
            feed.push_batch(&[1, 1, -1, 1]),
            Err(FeedError::DeletionUnsupported { at: 2 })
        );
        // Nothing was enqueued: the chunk is validated before transport.
        assert_eq!(ring.occupancy(), 0);
        assert_eq!(feed.push(-3), Err(FeedError::DeletionUnsupported { at: 0 }));
    }

    #[test]
    fn closing_mid_chunk_charges_the_enqueued_prefix() {
        // A Block-policy producer parked mid-chunk when the ring is
        // force-closed (engine teardown) reports Closed with the landed
        // prefix — and that prefix is charged to the ledger exactly like
        // the Error-policy partial, since consumed inputs and charged
        // inputs must agree. Nothing drained them here, so teardown
        // surfaces them as dropped.
        let (mut feed, cons) = feed_pair(4, Backpressure::Block);
        std::thread::scope(|scope| {
            let ring = Arc::clone(&cons);
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                ring.close();
            });
            let err = feed.push_batch(&[1i64; 10]).unwrap_err();
            assert_eq!(err, FeedError::Closed { pushed: 4 });
        });
        let mut stats = IngestStats::new();
        cons.drain_stats(&mut stats);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.push_stalls, 1);
        assert_eq!(stats.dropped, 4);
    }

    #[test]
    fn block_policy_hands_off_across_threads() {
        let (mut feed, cons) = feed_pair(8, Backpressure::Block);
        let n = 10_000i64;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..n {
                    feed.push(i).unwrap();
                }
                // Drop closes.
            });
            let mut out = Vec::new();
            cons.pop_round(&mut out, n as usize + 5);
            assert_eq!(out.len(), n as usize);
            assert!(out.iter().copied().eq(0..n));
            assert!(cons.is_closed());
        });
    }

    #[test]
    fn yield_policy_hands_off_across_threads() {
        let (mut feed, cons) = feed_pair(3, Backpressure::Yield);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                feed.push_batch(&(0..500).collect::<Vec<i64>>()).unwrap();
            });
            let mut out = Vec::new();
            cons.pop_round(&mut out, 500);
            assert_eq!(out.len(), 500);
        });
    }

    #[test]
    fn fleet_feed_charges_keyed_frames_and_validates_deletions() {
        let ring: Arc<Ring<(u64, i64)>> = Arc::new(Ring::new(16));
        let mut feed = FleetFeed::new(Arc::clone(&ring), 3, Backpressure::Error, false);
        assert_eq!(feed.feed(), 3);
        assert_eq!(feed.capacity(), 16);
        feed.push(7, 1).unwrap();
        feed.push_batch(&[(7, 2), (9, 1)]).unwrap();
        assert_eq!(
            feed.push_batch(&[(1, 1), (2, -1)]),
            Err(FeedError::DeletionUnsupported { at: 1 })
        );
        assert_eq!(feed.occupancy(), 3);
        let mut out = Vec::new();
        ring.pop_round(&mut out, 3);
        assert_eq!(out, vec![(7, 1), (7, 2), (9, 1)]);
        let mut stats = IngestStats::new();
        ring.drain_stats(&mut stats);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.items, 3);
        // Keyed counter deltas are two words each: key + delta.
        assert_eq!(stats.words, 6);
        feed.close();
        assert_eq!(feed.push(1, 1), Err(FeedError::Closed { pushed: 0 }));
        assert_eq!(feed.try_push(1, 1), Err(FeedError::Closed { pushed: 0 }));
    }

    #[test]
    fn ledger_counters_reach_the_engine_ledger() {
        let (mut feed, cons) = feed_pair(16, Backpressure::Error);
        feed.push_batch(&[1, 2, 3]).unwrap();
        feed.push(4).unwrap();
        let mut out = Vec::new();
        cons.pop_round(&mut out, 4);
        let mut stats = IngestStats::new();
        cons.drain_stats(&mut stats);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.words, 4); // i64 inputs: one word each
        assert_eq!(stats.occupancy_samples, 2);
        assert_eq!(stats.high_water, 4); // after the 4th input landed
        assert_eq!(stats.push_stalls, 0);
    }
}
