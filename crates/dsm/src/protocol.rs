//! Protocol messages and timestamps, with full wire encode/decode through
//! the custom codec (messages really are serialized and deserialized, so
//! their simulated sizes are the honest encoded sizes).

use jsplit_net::codec::{CodecError, Reader, Writer};
use jsplit_net::{MsgKind, NodeId};
use jsplit_mjvm::heap::{Gid, ThreadUid};
use std::collections::HashMap;

/// Sentinel `to_thread` in a `LockGrant`: no grantee — the message is a
/// *voluntary ownership release* back to the lock's home (sent when a
/// terminating thread's node no longer needs the lock, so joiners at the
/// home acquire locally instead of paying two WAN hops).
pub const NO_THREAD: ThreadUid = ThreadUid::MAX;

/// A coherency-unit version timestamp (paper §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Timestamp {
    /// MTS-HLRC: a single scalar — the home's per-object version counter.
    Scalar(u32),
    /// Classic HLRC: (writer node, interval) — one component of the CU's
    /// vector timestamp.
    Vector { node: NodeId, interval: u32 },
}

/// What a fetch must wait for / what invalidates a cached copy: the join of
/// all write notices seen for a CU.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Requirement {
    /// Scalar requirement (MTS mode): minimum home version.
    pub scalar: u32,
    /// Vector requirement (classic mode): per-writer minimum interval.
    pub vector: HashMap<NodeId, u32>,
}

impl Requirement {
    pub fn from_ts(ts: &Timestamp) -> Requirement {
        let mut r = Requirement::default();
        r.join_ts(ts);
        r
    }

    /// Join (pointwise max) with one notice timestamp.
    pub fn join_ts(&mut self, ts: &Timestamp) {
        match ts {
            Timestamp::Scalar(v) => self.scalar = self.scalar.max(*v),
            Timestamp::Vector { node, interval } => {
                let e = self.vector.entry(*node).or_insert(0);
                *e = (*e).max(*interval);
            }
        }
    }

    pub fn join(&mut self, other: &Requirement) {
        self.scalar = self.scalar.max(other.scalar);
        for (n, i) in &other.vector {
            let e = self.vector.entry(*n).or_insert(0);
            *e = (*e).max(*i);
        }
    }

    /// Does a copy with `version`/`applied` satisfy this requirement?
    pub fn satisfied_by(&self, version: u32, applied: &HashMap<NodeId, u32>) -> bool {
        if version < self.scalar {
            return false;
        }
        self.vector.iter().all(|(n, i)| applied.get(n).copied().unwrap_or(0) >= *i)
    }

    /// Approximate in-memory footprint in bytes (the §3.1 space argument).
    pub fn mem_bytes(&self) -> usize {
        4 + self.vector.len() * 6
    }

    fn encode(&self, w: &mut Writer) {
        w.u32(self.scalar).varu(self.vector.len() as u64);
        // Deterministic order for reproducible message sizes.
        let mut entries: Vec<(&NodeId, &u32)> = self.vector.iter().collect();
        entries.sort();
        for (n, i) in entries {
            w.u16(*n).u32(*i);
        }
    }

    fn decode(r: &mut Reader) -> Result<Requirement, CodecError> {
        let scalar = r.u32()?;
        let vector = r.seq(6, |r| Ok((r.u16()?, r.u32()?)))?.into_iter().collect();
        Ok(Requirement { scalar, vector })
    }
}

/// A queued lock request (travels with ownership, §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockRequest {
    pub node: NodeId,
    pub thread: ThreadUid,
    pub priority: i32,
    /// `true` for wait()-resumers moved from the wait queue by a notify: the
    /// grant restores their saved re-entry count and resumes them after the
    /// wait call instead of retrying a monitorenter.
    pub resume_wait: bool,
    pub saved_count: u32,
    /// Requester's vector clock (classic mode; empty under MTS).
    pub vc: Vec<u32>,
}

/// A thread parked in `wait()` (the wait queue also travels with ownership).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEntry {
    pub node: NodeId,
    pub thread: ThreadUid,
    pub priority: i32,
    pub saved_count: u32,
}

/// A serialized slot value. References travel as `(gid, class)` — the class
/// lets the receiver pre-create a correctly-classed (invalid) cached copy so
/// virtual dispatch works before the state is ever fetched. Strings ship by
/// value: they are immutable, so copying preserves semantics and saves a
/// fetch round-trip (reference identity of strings is not preserved —
/// recorded in DESIGN.md).
#[derive(Debug, Clone, PartialEq)]
pub enum WVal {
    I32(i32),
    I64(i64),
    F64(f64),
    Ref(Gid, u32),
    Str(String),
    Null,
}

/// Serialized object contents: reference fields already mapped to gids —
/// exactly what the generated `DSM_serialize` methods emit (Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub enum WireState {
    Fields(Vec<WVal>),
    ArrI32(Vec<i32>),
    ArrI64(Vec<i64>),
    ArrF64(Vec<f64>),
    ArrRef(Vec<WVal>),
    Str(String),
}

impl WireState {
    fn encode(&self, w: &mut Writer) {
        match self {
            WireState::Fields(vs) => {
                w.u8(0).varu(vs.len() as u64);
                for v in vs {
                    encode_wire_value(w, v);
                }
            }
            WireState::ArrI32(a) => {
                w.u8(1).varu(a.len() as u64);
                for v in a {
                    w.i32(*v);
                }
            }
            WireState::ArrI64(a) => {
                w.u8(2).varu(a.len() as u64);
                for v in a {
                    w.i64(*v);
                }
            }
            WireState::ArrF64(a) => {
                w.u8(3).varu(a.len() as u64);
                for v in a {
                    w.f64(*v);
                }
            }
            WireState::ArrRef(vs) => {
                w.u8(4).varu(vs.len() as u64);
                for v in vs {
                    encode_wire_value(w, v);
                }
            }
            WireState::Str(s) => {
                w.u8(5).str(s);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<WireState, CodecError> {
        Ok(match r.u8()? {
            0 => WireState::Fields(r.seq(1, decode_wire_value)?),
            1 => WireState::ArrI32(r.seq(4, Reader::i32)?),
            2 => WireState::ArrI64(r.seq(8, Reader::i64)?),
            3 => WireState::ArrF64(r.seq(8, Reader::f64)?),
            4 => WireState::ArrRef(r.seq(1, decode_wire_value)?),
            5 => WireState::Str(r.str()?),
            _ => return Err(CodecError("bad state tag")),
        })
    }
}

fn encode_wire_value(w: &mut Writer, v: &WVal) {
    match v {
        WVal::I32(x) => {
            w.u8(0).i32(*x);
        }
        WVal::I64(x) => {
            w.u8(1).i64(*x);
        }
        WVal::F64(x) => {
            w.u8(2).f64(*x);
        }
        WVal::Ref(g, c) => {
            w.u8(3).gid(*g).u32(*c);
        }
        WVal::Str(s) => {
            w.u8(5).str(s);
        }
        WVal::Null => {
            w.u8(4);
        }
    }
}

fn decode_wire_value(r: &mut Reader) -> Result<WVal, CodecError> {
    Ok(match r.u8()? {
        0 => WVal::I32(r.i32()?),
        1 => WVal::I64(r.i64()?),
        2 => WVal::F64(r.f64()?),
        3 => WVal::Ref(r.gid()?, r.u32()?),
        4 => WVal::Null,
        5 => WVal::Str(r.str()?),
        _ => return Err(CodecError("bad value tag")),
    })
}

/// All protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Lock request, sent to the lock's home and forwarded to the current
    /// owner (§3.2). Carries the requester's vector clock in classic mode so
    /// the grant can filter already-seen notices.
    LockReq {
        lock: Gid,
        node: NodeId,
        thread: ThreadUid,
        priority: i32,
        vc: Vec<u32>,
    },
    /// Lock ownership transfer: queues + write notices travel with it.
    LockGrant {
        lock: Gid,
        to_thread: ThreadUid,
        resume_wait: bool,
        saved_count: u32,
        request_q: Vec<LockRequest>,
        wait_q: Vec<WaitEntry>,
        /// (gid, requirement) pairs the acquirer merges and invalidates by.
        notices: Vec<(Gid, Requirement)>,
        /// Releaser's vector clock (classic mode bookkeeping).
        vc: Vec<u32>,
    },
    /// Home-side record of the new owner (so future requests forward there).
    OwnerChange { lock: Gid, new_owner: NodeId },
    /// Diff flush to an object's home at a release (multiple-writer LRC).
    DiffFlush {
        gid: Gid,
        entries: Vec<(u32, WVal)>,
        /// Writer's (node, interval) tag — the vector timestamp component.
        node: NodeId,
        interval: u32,
        /// Scalar mode: the home must acknowledge with the new version.
        want_ack: bool,
    },
    /// Home's acknowledgement carrying the post-apply scalar version.
    DiffAck { gid: Gid, version: u32 },
    /// Object fetch: bring a copy at least as new as `need` from home.
    /// `want_idx` (u32::MAX = none) is the element index that faulted — for
    /// chunked arrays the home serves the region containing it, saving the
    /// first-contact double round trip.
    Fetch { gid: Gid, need: Requirement, node: NodeId, thread: ThreadUid, want_idx: u32 },
    /// Master-copy state reply. For chunked arrays (§4.3 extension) the
    /// state is one region's slice: `offset` is its element offset and
    /// `chunk_info = (n_regions, chunk, total_len)` teaches the receiver the
    /// region layout on first contact.
    ObjState {
        gid: Gid,
        class: u32,
        state: WireState,
        version: u32,
        /// Applied-interval map (classic mode; empty in MTS — this is the
        /// per-copy timestamp size cost of §3.1).
        applied: Vec<(NodeId, u32)>,
        to_thread: ThreadUid,
        offset: u32,
        chunk_info: Option<(u32, u32, u32)>,
    },
    /// Ship a newly started thread to its executing node (§2).
    SpawnThread { thread_gid: Gid, class: u32, state: WireState, priority: i32 },
    /// Console output forwarded to the console node (I/O interception, §4).
    Println { line: String, origin: NodeId },
}

impl Msg {
    /// Accounting category for network statistics.
    pub fn kind(&self) -> MsgKind {
        match self {
            Msg::LockReq { .. } => MsgKind::LockReq,
            Msg::LockGrant { .. } => MsgKind::LockGrant,
            Msg::OwnerChange { .. } => MsgKind::Control,
            Msg::DiffFlush { .. } => MsgKind::Diff,
            Msg::DiffAck { .. } => MsgKind::DiffAck,
            Msg::Fetch { .. } => MsgKind::Fetch,
            Msg::ObjState { .. } => MsgKind::ObjState,
            Msg::SpawnThread { .. } => MsgKind::Spawn,
            Msg::Println { .. } => MsgKind::Control,
        }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> bytes::Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_inner().into()
    }

    /// Encode into a caller-provided writer (reusable frame/pool buffers).
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            Msg::LockReq { lock, node, thread, priority, vc } => {
                w.u8(0).gid(*lock).u16(*node).u32(*thread).i32(*priority).varu(vc.len() as u64);
                for v in vc {
                    w.u32(*v);
                }
            }
            Msg::LockGrant { lock, to_thread, resume_wait, saved_count, request_q, wait_q, notices, vc } => {
                w.u8(1)
                    .gid(*lock)
                    .u32(*to_thread)
                    .u8(*resume_wait as u8)
                    .u32(*saved_count)
                    .varu(request_q.len() as u64);
                for rq in request_q {
                    w.u16(rq.node).u32(rq.thread).i32(rq.priority).u8(rq.resume_wait as u8).u32(rq.saved_count).varu(rq.vc.len() as u64);
                    for v in &rq.vc {
                        w.u32(*v);
                    }
                }
                w.varu(wait_q.len() as u64);
                for we in wait_q {
                    w.u16(we.node).u32(we.thread).i32(we.priority).u32(we.saved_count);
                }
                w.varu(notices.len() as u64);
                for (g, req) in notices {
                    w.gid(*g);
                    req.encode(w);
                }
                w.varu(vc.len() as u64);
                for v in vc {
                    w.u32(*v);
                }
            }
            Msg::OwnerChange { lock, new_owner } => {
                w.u8(2).gid(*lock).u16(*new_owner);
            }
            Msg::DiffFlush { gid, entries, node, interval, want_ack } => {
                w.u8(3).gid(*gid).u16(*node).u32(*interval).u8(*want_ack as u8).varu(entries.len() as u64);
                for (i, v) in entries {
                    w.varu(*i as u64);
                    encode_wire_value(w, v);
                }
            }
            Msg::DiffAck { gid, version } => {
                w.u8(4).gid(*gid).u32(*version);
            }
            Msg::Fetch { gid, need, node, thread, want_idx } => {
                w.u8(5).gid(*gid).u16(*node).u32(*thread).u32(*want_idx);
                need.encode(w);
            }
            Msg::ObjState { gid, class, state, version, applied, to_thread, offset, chunk_info } => {
                w.u8(6).gid(*gid).u32(*class).u32(*version).u32(*to_thread).varu(applied.len() as u64);
                for (n, i) in applied {
                    w.u16(*n).u32(*i);
                }
                w.u32(*offset);
                match chunk_info {
                    Some((n, c, t)) => {
                        w.u8(1).u32(*n).u32(*c).u32(*t);
                    }
                    None => {
                        w.u8(0);
                    }
                }
                state.encode(w);
            }
            Msg::SpawnThread { thread_gid, class, state, priority } => {
                w.u8(7).gid(*thread_gid).u32(*class).i32(*priority);
                state.encode(w);
            }
            Msg::Println { line, origin } => {
                w.u8(8).str(line).u16(*origin);
            }
        }
    }

    /// Decode one whole message: the wire bytes, all of them.
    pub fn decode(bytes: bytes::Bytes) -> Result<Msg, CodecError> {
        Msg::decode_slice(&bytes)
    }

    /// [`Msg::decode`] straight out of a frame slice, with zero
    /// per-message copies. The bytes are a peer's: every count is vetted
    /// against what is left before anything is allocated for it.
    pub fn decode_slice(bytes: &[u8]) -> Result<Msg, CodecError> {
        let r = &mut Reader::new(bytes);
        let vc = |r: &mut Reader| r.seq(4, Reader::u32);
        let msg = match r.u8()? {
            0 => Msg::LockReq { lock: r.gid()?, node: r.u16()?, thread: r.u32()?, priority: r.i32()?, vc: vc(r)? },
            1 => Msg::LockGrant {
                lock: r.gid()?,
                to_thread: r.u32()?,
                resume_wait: r.u8()? != 0,
                saved_count: r.u32()?,
                request_q: r.seq(16, |r| {
                    Ok(LockRequest {
                        node: r.u16()?,
                        thread: r.u32()?,
                        priority: r.i32()?,
                        resume_wait: r.u8()? != 0,
                        saved_count: r.u32()?,
                        vc: vc(r)?,
                    })
                })?,
                wait_q: r.seq(14, |r| {
                    Ok(WaitEntry { node: r.u16()?, thread: r.u32()?, priority: r.i32()?, saved_count: r.u32()? })
                })?,
                notices: r.seq(13, |r| Ok((r.gid()?, Requirement::decode(r)?)))?,
                vc: vc(r)?,
            },
            2 => Msg::OwnerChange { lock: r.gid()?, new_owner: r.u16()? },
            3 => {
                let gid = r.gid()?;
                let node = r.u16()?;
                let interval = r.u32()?;
                let want_ack = r.u8()? != 0;
                let entries = r.seq(2, |r| Ok((r.varu()? as u32, decode_wire_value(r)?)))?;
                Msg::DiffFlush { gid, entries, node, interval, want_ack }
            }
            4 => Msg::DiffAck { gid: r.gid()?, version: r.u32()? },
            5 => {
                let gid = r.gid()?;
                let node = r.u16()?;
                let thread = r.u32()?;
                let want_idx = r.u32()?;
                Msg::Fetch { gid, need: Requirement::decode(r)?, node, thread, want_idx }
            }
            6 => {
                let gid = r.gid()?;
                let class = r.u32()?;
                let version = r.u32()?;
                let to_thread = r.u32()?;
                let applied = r.seq(6, |r| Ok((r.u16()?, r.u32()?)))?;
                let offset = r.u32()?;
                let chunk_info = match r.u8()? {
                    0 => None,
                    _ => Some((r.u32()?, r.u32()?, r.u32()?)),
                };
                Msg::ObjState { gid, class, state: WireState::decode(r)?, version, applied, to_thread, offset, chunk_info }
            }
            7 => {
                let thread_gid = r.gid()?;
                let class = r.u32()?;
                let priority = r.i32()?;
                Msg::SpawnThread { thread_gid, class, state: WireState::decode(r)?, priority }
            }
            8 => Msg::Println { line: r.str()?, origin: r.u16()? },
            _ => return Err(CodecError("bad message tag")),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Encoded size in bytes (drives the simulated network latency).
    pub fn wire_len(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire_check;

    fn round_trip(m: Msg) {
        let bytes = m.encode();
        let back = Msg::decode(bytes).expect("decode");
        assert_eq!(m, back);
    }

    /// One message of each kind.
    fn samples() -> Vec<Msg> {
        vec![
            Msg::LockReq { lock: Gid::new(1, 2), node: 3, thread: 4, priority: 5, vc: vec![1, 2, 3] },
            Msg::LockGrant {
                lock: Gid::new(0, 9),
                to_thread: 7,
                resume_wait: true,
                saved_count: 2,
                request_q: vec![LockRequest { node: 1, thread: 2, priority: 9, resume_wait: false, saved_count: 0, vc: vec![3, 1] }],
                wait_q: vec![WaitEntry { node: 2, thread: 5, priority: 5, saved_count: 3 }],
                notices: vec![
                    (Gid::new(0, 1), Requirement { scalar: 4, vector: Default::default() }),
                    (Gid::new(1, 2), Requirement { scalar: 0, vector: [(2u16, 7u32)].into_iter().collect() }),
                ],
                vc: vec![0, 1],
            },
            Msg::OwnerChange { lock: Gid::new(2, 2), new_owner: 5 },
            Msg::DiffFlush {
                gid: Gid::new(1, 1),
                entries: vec![(0, WVal::I32(5)), (3, WVal::Ref(Gid::new(0, 7), 4)), (9, WVal::Null)],
                node: 2,
                interval: 11,
                want_ack: true,
            },
            Msg::DiffAck { gid: Gid::new(1, 1), version: 12 },
            Msg::Fetch {
                gid: Gid::new(0, 3),
                need: Requirement { scalar: 2, vector: [(1u16, 4u32)].into_iter().collect() },
                node: 1,
                thread: 0,
                want_idx: u32::MAX,
            },
            Msg::ObjState {
                gid: Gid::new(0, 3),
                class: 17,
                state: WireState::Fields(vec![WVal::I32(1), WVal::Ref(Gid::new(2, 2), 9), WVal::Null]),
                version: 5,
                applied: vec![(0, 1), (2, 3)],
                to_thread: 4,
                offset: 0,
                chunk_info: Some((4, 256, 1000)),
            },
            Msg::SpawnThread {
                thread_gid: Gid::new(0, 1),
                class: 3,
                state: WireState::Fields(vec![WVal::Null, WVal::I32(5), WVal::I32(1)]),
                priority: 5,
            },
            Msg::Println { line: "hello".into(), origin: 2 },
        ]
    }

    #[test]
    fn all_messages_round_trip() {
        samples().into_iter().chain(array_samples()).for_each(round_trip);
    }

    #[test]
    fn message_bytes_are_pinned() {
        let all: Vec<u8> = samples().iter().chain(&array_samples()).flat_map(|m| m.encode().to_vec()).collect();
        wire_check::assert_pinned("one Msg of each kind", &all, (0x231, 0x8ddc_d956_be7d_ea79));
    }

    /// An `ObjState` of each array / string state shape.
    fn array_samples() -> Vec<Msg> {
        [
            WireState::ArrI32(vec![1, -2, 3]),
            WireState::ArrI64(vec![i64::MIN, 0, i64::MAX]),
            WireState::ArrF64(vec![0.5, -1.25]),
            WireState::ArrRef(vec![WVal::Null, WVal::Ref(Gid::new(1, 1), 2), WVal::Str("inline".into())]),
            WireState::Str("héllo".into()),
        ]
        .into_iter()
        .map(|state| Msg::ObjState {
            gid: Gid::new(0, 0),
            class: 0,
            state,
            version: 0,
            applied: vec![],
            to_thread: 0,
            offset: 0,
            chunk_info: None,
        })
        .collect()
    }

    /// A count in a message is a peer's claim: a maximal one is refused
    /// against the bytes actually left, not handed to `with_capacity`.
    #[test]
    fn maximal_counts_are_refused_not_allocated_for() {
        let need = Requirement { scalar: 2, vector: Default::default() };
        let mut fetch = Msg::Fetch { gid: Gid::new(0, 3), need, node: 1, thread: 0, want_idx: 7 }.encode().to_vec();
        // The message ends with the requirement's vector count: swap the
        // one-byte zero for the ten-byte varint of `u64::MAX`.
        assert_eq!(fetch.pop(), Some(0));
        fetch.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
        assert_eq!(Msg::decode_slice(&fetch), Err(CodecError("count exceeds message")));
    }

    #[test]
    fn scalar_timestamps_are_smaller_on_the_wire() {
        // §3.1's space argument: the same notice set costs more bytes with
        // vector requirements than with scalar ones.
        let scalar_notices: Vec<(Gid, Requirement)> = (0..50)
            .map(|i| (Gid::new(0, i), Requirement { scalar: 3, vector: Default::default() }))
            .collect();
        let vector_notices: Vec<(Gid, Requirement)> = (0..50)
            .map(|i| {
                (
                    Gid::new(0, i),
                    Requirement {
                        scalar: 0,
                        vector: (0u16..8).map(|n| (n, 3u32)).collect(),
                    },
                )
            })
            .collect();
        let mk = |notices| Msg::LockGrant {
            lock: Gid::new(0, 99),
            to_thread: 0,
            resume_wait: false,
            saved_count: 0,
            request_q: vec![],
            wait_q: vec![],
            notices,
            vc: vec![],
        };
        let s = mk(scalar_notices).wire_len();
        let v = mk(vector_notices).wire_len();
        assert!(v > s * 2, "vector grant {v} B should dwarf scalar grant {s} B");
    }

    #[test]
    fn requirement_join_and_satisfaction() {
        let mut req = Requirement::default();
        req.join_ts(&Timestamp::Scalar(3));
        req.join_ts(&Timestamp::Scalar(1));
        req.join_ts(&Timestamp::Vector { node: 1, interval: 5 });
        req.join_ts(&Timestamp::Vector { node: 1, interval: 2 });
        assert_eq!(req.scalar, 3);
        assert_eq!(req.vector[&1], 5);

        let mut applied = HashMap::new();
        assert!(!req.satisfied_by(3, &applied));
        applied.insert(1u16, 5u32);
        assert!(req.satisfied_by(3, &applied));
        assert!(!req.satisfied_by(2, &applied));
    }
}
