//! The coordinator ↔ shard-worker wire protocol.
//!
//! Every protocol message is one transport frame (see
//! `dsv_net::transport`): a versioned envelope (magic [`WIRE_MAGIC`] +
//! `u16` [`WIRE_VERSION`]), a `u8` message tag, then the fields, all
//! encoded with the workspace codec (`dsv_net::codec`). Decoding is
//! panic-free and exact — truncation, corruption, unknown tags, and
//! trailing bytes are typed [`CodecError`]s — and the corruption gauntlet
//! in `tests/failover_injection.rs` drives every byte of every message
//! shape through the decoder to hold it to that.
//!
//! The payloads reuse the already wire-sized model types: round chunks
//! are the per-site runs `run_parted` dispatches, checkpoint states are
//! the same versioned `TrackerState` envelopes the in-process seam
//! serializes, and boundary reports carry exactly the `(shard, estimate,
//! Σδ, length)` tuples the in-process merge path reconciles — which is
//! why a remote run can be bit-identical to the in-process one.

use dsv_core::api::TrackerSpec;
use dsv_core::codec::TrackerState;
use dsv_net::codec::{CodecError, Dec, Enc};
use dsv_net::StateDelta;

/// Magic bytes opening every remote-protocol message.
pub const WIRE_MAGIC: [u8; 4] = *b"DSVR";

/// Current remote-protocol version. A peer speaking a newer version is a
/// typed [`CodecError::UnsupportedVersion`], surfaced before any shard
/// state moves. v2 adds delta checkpoint pulls — per-shard want-delta
/// flags on [`ToWorker::Checkpoint`] and tagged [`StateEntry`] report
/// entries. v3 adds the pipelined-ingestion [`ToWorker::Rounds`]
/// envelope, batching several rounds of chunks into one frame (the
/// worker still answers one [`ToCoord::RoundReport`] per round). Older
/// frames (v1 plain shard lists and untagged full states, v2
/// single-round [`ToWorker::Round`] frames) still decode.
pub const WIRE_VERSION: u16 = 3;

/// One shard's inputs for one round — the per-problem input payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inputs {
    /// Counter-stream deltas (`In = i64`).
    Counts(Vec<i64>),
    /// Item-stream updates (`In = (item, δ)`).
    Items(Vec<(u64, i64)>),
}

impl Inputs {
    /// Number of inputs carried.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Counts(v) => v.len(),
            Inputs::Items(v) => v.len(),
        }
    }

    /// Whether no inputs are carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn encode(&self, enc: &mut Enc) {
        match self {
            Inputs::Counts(v) => {
                enc.u8(1);
                enc.seq_i64(v);
            }
            Inputs::Items(v) => {
                enc.u8(2);
                enc.seq_len(v.len());
                for &(item, delta) in v {
                    enc.u64(item);
                    enc.i64(delta);
                }
            }
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, CodecError> {
        match dec.u8()? {
            1 => Ok(Inputs::Counts(dec.seq_i64("count inputs")?)),
            2 => {
                let n = dec.seq_len("item inputs", 16)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    let item = dec.u64()?;
                    let delta = dec.i64()?;
                    v.push((item, delta));
                }
                Ok(Inputs::Items(v))
            }
            tag => Err(CodecError::BadTag {
                what: "input payload",
                tag: tag as u64,
            }),
        }
    }
}

/// One shard's work within a round: the contiguous input run of one feed,
/// exactly as `run_parted` would dispatch it in-process. Chunks arrive in
/// feed order, which is what keeps the last-report-per-shard rule (and so
/// the merge ledger) identical to the in-process path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// The logical shard the inputs belong to.
    pub sid: usize,
    /// The site the feed carries.
    pub site: usize,
    /// The inputs, in feed arrival order.
    pub inputs: Inputs,
}

/// A shard to (re)install on a worker: its id and the checkpoint state to
/// restore (`None` builds a fresh replica — a shard that has never been
/// checkpointed).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInit {
    /// The logical shard id.
    pub sid: usize,
    /// The state to restore, if any.
    pub state: Option<TrackerState>,
}

/// One shard's checkpoint pull request: which shard to snapshot, and
/// whether a [`StateDelta`] against the worker's last-shipped snapshot is
/// acceptable in place of the full state. The coordinator only sets
/// `want_delta` when delta checkpointing is on
/// ([`crate::EngineConfig::delta_rebase`]) and both sides hold the same
/// base; a worker without a base replies in full regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatePull {
    /// The logical shard to snapshot.
    pub sid: usize,
    /// Whether a delta against the last-shipped snapshot is acceptable.
    pub want_delta: bool,
}

/// One shard's state in a [`ToCoord::CheckpointReport`]: the full
/// snapshot, or a delta against the last snapshot this worker shipped
/// (or was restored from) for that shard.
#[derive(Debug, Clone, PartialEq)]
pub enum StateEntry {
    /// The complete versioned snapshot.
    Full(TrackerState),
    /// A section-aware diff against the worker's previous shipped
    /// snapshot payload; the coordinator applies it to its own copy of
    /// that base (fingerprint-checked on both ends of the apply).
    Delta(StateDelta),
}

impl StateEntry {
    /// Bytes of state payload this entry ships (what the checkpoint
    /// ledger charges): the snapshot payload for a full entry, the
    /// encoded delta for a delta entry.
    pub fn wire_len(&self) -> usize {
        match self {
            StateEntry::Full(state) => state.payload().len(),
            StateEntry::Delta(delta) => delta.encoded_len(),
        }
    }
}

/// One round's work inside a multi-round [`ToWorker::Rounds`] frame —
/// the same `(round, delay, chunks)` triple a single-round
/// [`ToWorker::Round`] carries, just batched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundWork {
    /// Round number (0-based within the current ingestion call).
    pub round: u64,
    /// Milliseconds to sleep before processing this round — 0 in
    /// production; nonzero only under an injected delay fault.
    pub delay_ms: u64,
    /// The round's work, in feed order.
    pub chunks: Vec<Chunk>,
}

/// Coordinator → worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Install the worker's replica set: build (or restore) one tracker
    /// per shard from `spec.shard(sid)`. Sent once after the handshake,
    /// and again in full to a respawned replacement.
    Assign {
        /// The coordinator's tracker spec (workers derive per-shard
        /// replicas via `TrackerSpec::shard`).
        spec: TrackerSpec,
        /// Total logical shard count `S` (diagnostics / sanity).
        s_count: usize,
        /// The shards this worker must own, with restore states.
        shards: Vec<ShardInit>,
    },
    /// Add shards to an already-assigned worker — the reattach path,
    /// migrating a dead worker's shards onto a live one.
    Attach {
        /// The shards to add, with restore states.
        shards: Vec<ShardInit>,
    },
    /// Process one round of chunks (in the given order) and reply with a
    /// [`ToCoord::RoundReport`].
    Round {
        /// Round number (0-based within the current ingestion call).
        round: u64,
        /// Milliseconds to sleep before processing — 0 in production;
        /// nonzero only under an injected delay fault, so the
        /// coordinator's read timeout fires against a live-but-stalled
        /// worker.
        delay_ms: u64,
        /// The work, in feed order.
        chunks: Vec<Chunk>,
    },
    /// Process several rounds back to back — the DSVR v3 pipelined
    /// envelope. The worker handles each entry exactly as it would a
    /// [`ToWorker::Round`] frame, in order, sending one
    /// [`ToCoord::RoundReport`] per entry as soon as that round is done
    /// (so the coordinator can absorb round `r` while the worker is
    /// already processing `r + 1`).
    Rounds {
        /// The batched rounds, ascending round number.
        rounds: Vec<RoundWork>,
    },
    /// Snapshot the named shards and reply with a
    /// [`ToCoord::CheckpointReport`].
    Checkpoint {
        /// The (dirty) shards to snapshot, each with its pull shape.
        shards: Vec<StatePull>,
    },
    /// Shut down cleanly.
    Finish,
}

impl ToWorker {
    /// Encode to one transport frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.magic(WIRE_MAGIC, WIRE_VERSION);
        match self {
            ToWorker::Assign {
                spec,
                s_count,
                shards,
            } => {
                enc.u8(1);
                spec.encode(&mut enc);
                enc.usize(*s_count);
                encode_shard_inits(&mut enc, shards);
            }
            ToWorker::Attach { shards } => {
                enc.u8(2);
                encode_shard_inits(&mut enc, shards);
            }
            ToWorker::Round {
                round,
                delay_ms,
                chunks,
            } => {
                enc.u8(3);
                enc.u64(*round);
                enc.u64(*delay_ms);
                encode_chunks(&mut enc, chunks);
            }
            ToWorker::Rounds { rounds } => {
                enc.u8(6);
                enc.seq_len(rounds.len());
                for work in rounds {
                    enc.u64(work.round);
                    enc.u64(work.delay_ms);
                    encode_chunks(&mut enc, &work.chunks);
                }
            }
            ToWorker::Checkpoint { shards } => {
                enc.u8(4);
                enc.seq_len(shards.len());
                for pull in shards {
                    enc.usize(pull.sid);
                    enc.bool(pull.want_delta);
                }
            }
            ToWorker::Finish => enc.u8(5),
        }
        enc.into_bytes()
    }

    /// Decode one transport frame payload; must consume it exactly.
    /// Accepts v1 frames, whose checkpoint requests carry no want-delta
    /// flags (decoded as all-full pulls).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(bytes);
        let version = dec.magic(WIRE_MAGIC, WIRE_VERSION)?;
        let msg = match dec.u8()? {
            1 => {
                let spec = TrackerSpec::decode(&mut dec)?;
                let s_count = dec.usize()?;
                let shards = decode_shard_inits(&mut dec)?;
                ToWorker::Assign {
                    spec,
                    s_count,
                    shards,
                }
            }
            2 => ToWorker::Attach {
                shards: decode_shard_inits(&mut dec)?,
            },
            3 => {
                let round = dec.u64()?;
                let delay_ms = dec.u64()?;
                ToWorker::Round {
                    round,
                    delay_ms,
                    chunks: decode_chunks(&mut dec)?,
                }
            }
            6 => {
                let n = dec.seq_len("batched rounds", 25)?;
                let mut rounds = Vec::with_capacity(n);
                for _ in 0..n {
                    let round = dec.u64()?;
                    let delay_ms = dec.u64()?;
                    rounds.push(RoundWork {
                        round,
                        delay_ms,
                        chunks: decode_chunks(&mut dec)?,
                    });
                }
                ToWorker::Rounds { rounds }
            }
            4 => {
                let n = dec.seq_len("checkpoint shards", 8)?;
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    let sid = dec.usize()?;
                    let want_delta = if version >= 2 { dec.bool()? } else { false };
                    shards.push(StatePull { sid, want_delta });
                }
                ToWorker::Checkpoint { shards }
            }
            5 => ToWorker::Finish,
            tag => {
                return Err(CodecError::BadTag {
                    what: "coordinator message",
                    tag: tag as u64,
                })
            }
        };
        dec.finish()?;
        Ok(msg)
    }
}

fn encode_chunks(enc: &mut Enc, chunks: &[Chunk]) {
    enc.seq_len(chunks.len());
    for chunk in chunks {
        enc.usize(chunk.sid);
        enc.usize(chunk.site);
        chunk.inputs.encode(enc);
    }
}

fn decode_chunks(dec: &mut Dec) -> Result<Vec<Chunk>, CodecError> {
    let n = dec.seq_len("round chunks", 17)?;
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        let sid = dec.usize()?;
        let site = dec.usize()?;
        let inputs = Inputs::decode(dec)?;
        chunks.push(Chunk { sid, site, inputs });
    }
    Ok(chunks)
}

fn encode_shard_inits(enc: &mut Enc, shards: &[ShardInit]) {
    enc.seq_len(shards.len());
    for init in shards {
        enc.usize(init.sid);
        match &init.state {
            Some(state) => {
                enc.bool(true);
                enc.blob(&state.to_bytes());
            }
            None => enc.bool(false),
        }
    }
}

fn decode_shard_inits(dec: &mut Dec) -> Result<Vec<ShardInit>, CodecError> {
    let n = dec.seq_len("assigned shards", 9)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        let sid = dec.usize()?;
        let state = if dec.bool()? {
            Some(TrackerState::from_bytes(dec.blob()?)?)
        } else {
            None
        };
        shards.push(ShardInit { sid, state });
    }
    Ok(shards)
}

/// One shard's end-of-round report: the report the in-process engine
/// folds at every boundary — end-of-round local estimate, the round's
/// ground-truth increment, and the inputs consumed.
pub use crate::round::ShardRound as RoundEntry;

/// Worker → coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToCoord {
    /// Reply to [`ToWorker::Assign`] / [`ToWorker::Attach`]: empty
    /// `error` on success, a human-readable build/restore failure
    /// otherwise.
    AssignAck {
        /// Empty on success.
        error: String,
    },
    /// Reply to [`ToWorker::Round`].
    RoundReport {
        /// Echo of the round number (protocol sanity).
        round: u64,
        /// One entry per shard that received chunks, ascending sid.
        reports: Vec<RoundEntry>,
    },
    /// Reply to [`ToWorker::Checkpoint`].
    CheckpointReport {
        /// The requested shards' states, full or delta per entry.
        states: Vec<(usize, StateEntry)>,
    },
}

impl ToCoord {
    /// Encode to one transport frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.magic(WIRE_MAGIC, WIRE_VERSION);
        match self {
            ToCoord::AssignAck { error } => {
                enc.u8(1);
                enc.blob(error.as_bytes());
            }
            ToCoord::RoundReport { round, reports } => {
                enc.u8(2);
                enc.u64(*round);
                enc.seq_len(reports.len());
                for r in reports {
                    enc.usize(r.sid);
                    enc.i64(r.estimate);
                    enc.i64(r.sum);
                    enc.u64(r.len);
                }
            }
            ToCoord::CheckpointReport { states } => {
                enc.u8(3);
                enc.seq_len(states.len());
                for (sid, entry) in states {
                    enc.usize(*sid);
                    match entry {
                        StateEntry::Full(state) => {
                            enc.u8(1);
                            enc.blob(&state.to_bytes());
                        }
                        StateEntry::Delta(delta) => {
                            enc.u8(2);
                            delta.encode(&mut enc);
                        }
                    }
                }
            }
        }
        enc.into_bytes()
    }

    /// Decode one transport frame payload; must consume it exactly.
    /// Accepts v1 frames, whose checkpoint reports carry untagged full
    /// states.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(bytes);
        let version = dec.magic(WIRE_MAGIC, WIRE_VERSION)?;
        let msg = match dec.u8()? {
            1 => ToCoord::AssignAck {
                error: String::from_utf8(dec.blob()?.to_vec()).map_err(|_| {
                    CodecError::BadValue {
                        what: "assign ack error string",
                    }
                })?,
            },
            2 => {
                let round = dec.u64()?;
                let n = dec.seq_len("round reports", 32)?;
                let mut reports = Vec::with_capacity(n);
                for _ in 0..n {
                    reports.push(RoundEntry {
                        sid: dec.usize()?,
                        estimate: dec.i64()?,
                        sum: dec.i64()?,
                        len: dec.u64()?,
                    });
                }
                ToCoord::RoundReport { round, reports }
            }
            3 => {
                let n = dec.seq_len("checkpoint states", 9)?;
                let mut states = Vec::with_capacity(n);
                for _ in 0..n {
                    let sid = dec.usize()?;
                    let entry = if version >= 2 {
                        match dec.u8()? {
                            1 => StateEntry::Full(TrackerState::from_bytes(dec.blob()?)?),
                            2 => StateEntry::Delta(StateDelta::decode(&mut dec)?),
                            tag => {
                                return Err(CodecError::BadTag {
                                    what: "checkpoint state entry",
                                    tag: tag as u64,
                                })
                            }
                        }
                    } else {
                        StateEntry::Full(TrackerState::from_bytes(dec.blob()?)?)
                    };
                    states.push((sid, entry));
                }
                ToCoord::CheckpointReport { states }
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "worker message",
                    tag: tag as u64,
                })
            }
        };
        dec.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_core::api::TrackerKind;

    fn sample_messages() -> (Vec<ToWorker>, Vec<ToCoord>) {
        let spec = TrackerSpec::new(TrackerKind::Randomized)
            .k(3)
            .eps(0.2)
            .seed(11)
            .deletions(true);
        let state = TrackerState::new(TrackerKind::Randomized, 3, vec![9; 24]);
        let to_worker = vec![
            ToWorker::Assign {
                spec,
                s_count: 4,
                shards: vec![
                    ShardInit {
                        sid: 0,
                        state: None,
                    },
                    ShardInit {
                        sid: 2,
                        state: Some(state.clone()),
                    },
                ],
            },
            ToWorker::Attach {
                shards: vec![ShardInit {
                    sid: 3,
                    state: Some(state.clone()),
                }],
            },
            ToWorker::Round {
                round: 7,
                delay_ms: 0,
                chunks: vec![
                    Chunk {
                        sid: 0,
                        site: 0,
                        inputs: Inputs::Counts(vec![1, -1, 1]),
                    },
                    Chunk {
                        sid: 2,
                        site: 2,
                        inputs: Inputs::Items(vec![(5, 1), (9, -1)]),
                    },
                ],
            },
            ToWorker::Rounds {
                rounds: vec![
                    RoundWork {
                        round: 8,
                        delay_ms: 0,
                        chunks: vec![Chunk {
                            sid: 1,
                            site: 1,
                            inputs: Inputs::Counts(vec![1, 1, -1]),
                        }],
                    },
                    RoundWork {
                        round: 9,
                        delay_ms: 25,
                        chunks: vec![
                            Chunk {
                                sid: 1,
                                site: 1,
                                inputs: Inputs::Counts(vec![-1]),
                            },
                            Chunk {
                                sid: 3,
                                site: 3,
                                inputs: Inputs::Items(vec![(2, 1)]),
                            },
                        ],
                    },
                ],
            },
            ToWorker::Checkpoint {
                shards: vec![
                    StatePull {
                        sid: 0,
                        want_delta: false,
                    },
                    StatePull {
                        sid: 2,
                        want_delta: true,
                    },
                ],
            },
            ToWorker::Finish,
        ];
        let to_coord = vec![
            ToCoord::AssignAck {
                error: String::new(),
            },
            ToCoord::AssignAck {
                error: "k mismatch".to_string(),
            },
            ToCoord::RoundReport {
                round: 7,
                reports: vec![
                    RoundEntry {
                        sid: 0,
                        estimate: 1,
                        sum: 1,
                        len: 3,
                    },
                    RoundEntry {
                        sid: 2,
                        estimate: -4,
                        sum: 0,
                        len: 2,
                    },
                ],
            },
            ToCoord::CheckpointReport {
                states: vec![
                    (2, StateEntry::Full(state.clone())),
                    (
                        3,
                        StateEntry::Delta(StateDelta::diff(state.payload(), &[7; 40])),
                    ),
                ],
            },
        ];
        (to_worker, to_coord)
    }

    #[test]
    fn every_message_shape_round_trips() {
        let (to_worker, to_coord) = sample_messages();
        for msg in &to_worker {
            assert_eq!(&ToWorker::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
        for msg in &to_coord {
            assert_eq!(&ToCoord::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let (to_worker, to_coord) = sample_messages();
        for msg in &to_worker {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(ToWorker::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
        for msg in &to_coord {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(ToCoord::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn v2_single_round_frames_still_decode() {
        // A v2 Round frame, exactly as a PR 6 coordinator would emit it:
        // the tag-3 single-round shape under the older version word.
        let mut enc = Enc::new();
        enc.magic(WIRE_MAGIC, 2);
        enc.u8(3);
        enc.u64(4); // round
        enc.u64(0); // delay_ms
        enc.seq_len(1);
        enc.usize(2);
        enc.usize(2);
        enc.u8(1); // Inputs::Counts
        enc.seq_i64(&[1, -1]);
        assert_eq!(
            ToWorker::from_bytes(&enc.into_bytes()).unwrap(),
            ToWorker::Round {
                round: 4,
                delay_ms: 0,
                chunks: vec![Chunk {
                    sid: 2,
                    site: 2,
                    inputs: Inputs::Counts(vec![1, -1]),
                }],
            }
        );
    }

    #[test]
    fn v1_checkpoint_frames_still_decode() {
        // A v1 Checkpoint request: shard list with no want-delta flags.
        let mut enc = Enc::new();
        enc.magic(WIRE_MAGIC, 1);
        enc.u8(4);
        enc.seq_len(2);
        enc.usize(0);
        enc.usize(2);
        assert_eq!(
            ToWorker::from_bytes(&enc.into_bytes()).unwrap(),
            ToWorker::Checkpoint {
                shards: vec![
                    StatePull {
                        sid: 0,
                        want_delta: false,
                    },
                    StatePull {
                        sid: 2,
                        want_delta: false,
                    },
                ],
            }
        );
        // A v1 CheckpointReport: untagged full states.
        let state = TrackerState::new(TrackerKind::Randomized, 3, vec![9; 24]);
        let mut enc = Enc::new();
        enc.magic(WIRE_MAGIC, 1);
        enc.u8(3);
        enc.seq_len(1);
        enc.usize(2);
        enc.blob(&state.to_bytes());
        assert_eq!(
            ToCoord::from_bytes(&enc.into_bytes()).unwrap(),
            ToCoord::CheckpointReport {
                states: vec![(2, StateEntry::Full(state))],
            }
        );
    }

    #[test]
    fn envelope_and_tag_corruption_are_specific_errors() {
        let bytes = ToWorker::Finish.to_bytes();
        let mut alien = bytes.clone();
        alien[0] = b'X';
        assert!(matches!(
            ToWorker::from_bytes(&alien),
            Err(CodecError::BadMagic { .. })
        ));
        let mut future = bytes.clone();
        future[4] = (WIRE_VERSION + 1) as u8;
        assert!(matches!(
            ToWorker::from_bytes(&future),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        let mut bad_tag = bytes.clone();
        bad_tag[6] = 0xEE;
        assert!(matches!(
            ToWorker::from_bytes(&bad_tag),
            Err(CodecError::BadTag { .. })
        ));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            ToWorker::from_bytes(&trailing),
            Err(CodecError::Trailing { left: 1 })
        ));
    }
}
