//! The per-node DSM engine.
//!
//! [`DsmNode`] is a pure protocol machine: interpreter events (access checks,
//! monitor operations, waits/notifies, spawns) and incoming protocol messages
//! go in; [`Action`]s (message sends, thread wake-ups) come out through an
//! outbox the runtime drains. No scheduling, no clocks — those belong to the
//! runtime — which keeps each protocol rule unit-testable in isolation.

use crate::diff;
use crate::notice::NoticeBoard;
use crate::protocol::{LockRequest, Msg, Requirement, Timestamp, WVal, WaitEntry, WireState};
use crate::stats::DsmStats;
use jsplit_mjvm::heap::{DsmState, Gid, Heap, ObjPayload, ObjRef, ThreadUid};
use jsplit_mjvm::instr::ElemTy;
use jsplit_mjvm::loader::{ClassId, Image};
use jsplit_mjvm::value::Value;
use jsplit_net::NodeId;
use jsplit_trace::{ObjEvent, ObjProfile, TraceEvent};
use std::collections::{HashMap, HashSet};

/// Scalar vs vector timestamps + bounded vs full notice history: the two
/// configurations the paper contrasts (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMode {
    /// The paper's contribution: scalar timestamps (grant completion waits
    /// for diff acks) + most-recent-per-CU notices (bounded storage).
    MtsHlrc,
    /// The comparison baseline: vector timestamps (no ack wait; fetches may
    /// wait at home) + full notice history filtered by vector clocks.
    ClassicHlrc,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct DsmConfig {
    pub mode: ProtocolMode,
    /// Ablation switch: when `true`, every lock acquire — even on a
    /// never-escaping object — goes through the full shared-object handler,
    /// i.e. the §4.4 local-object lock-counter optimization is turned off.
    pub disable_local_locks: bool,
    /// The paper's §4.3 extension: arrays longer than this many elements
    /// are split into per-region coherency units ("in the future we plan to
    /// divide big arrays into several coherency units"); `None` keeps every
    /// array a single CU as in the paper's prototype.
    pub array_chunk: Option<u32>,
}

impl Default for DsmConfig {
    fn default() -> Self {
        DsmConfig { mode: ProtocolMode::MtsHlrc, disable_local_locks: false, array_chunk: None }
    }
}

/// What the runtime must carry out on the engine's behalf.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Transmit a protocol message.
    Send { dst: NodeId, msg: Msg },
    /// Make a blocked thread runnable again.
    Wake { thread: ThreadUid },
}

/// Outcome of a lock operation (the engine's analogue of
/// `interp::MonOutcome`, without costs — the runtime prices it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// Acquired through the local-object lock counter (§4.4 fast path).
    EnteredLocal,
    /// Acquired a shared object without communication.
    EnteredShared,
    /// Queued; the engine will `Wake` the thread when it may retry/resume.
    Blocked,
}

/// Outcome of an access check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Valid — fall through to the access.
    Hit,
    /// Miss: fetch issued (or joined); the engine will `Wake` the thread.
    Miss,
}

/// Errors from monitor misuse (IllegalMonitorStateException analogue).
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorError(pub &'static str);

/// Home-side state for an object homed at this node.
#[derive(Debug)]
struct HomeState {
    version: u32,
    /// Applied intervals per writer node (classic mode).
    applied: HashMap<NodeId, u32>,
    /// Current lock owner (the manager's forwarding pointer, §3.2).
    lock_owner: NodeId,
    /// Fetches waiting for an interval not yet applied (classic mode).
    pending_fetches: Vec<(Requirement, NodeId, ThreadUid)>,
}

/// Lock state at a node that owns (or awaits) the lock.
#[derive(Debug, Default)]
struct LockState {
    owned: bool,
    holder: Option<ThreadUid>,
    count: u32,
    /// A grant addressed to a specific local thread, awaiting its retry.
    granted_to: Option<(ThreadUid, u32)>,
    request_q: Vec<LockRequest>,
    wait_q: Vec<WaitEntry>,
    /// After transferring ownership away: where it went (stray-request
    /// forwarding until the home learns the new owner).
    forwarded_to: Option<NodeId>,
    /// Local threads that have sent a remote LockReq and are parked.
    sent_remote_req: HashSet<ThreadUid>,
}

/// The engine.
pub struct DsmNode {
    pub id: NodeId,
    pub config: DsmConfig,
    pub stats: DsmStats,
    outbox: Vec<Action>,

    gid_to_ref: HashMap<Gid, ObjRef>,
    next_gid: u64,
    /// Twin copies made on the first write of an interval, keyed by
    /// coherency unit: region gid (a window clone based at the region's
    /// lower bound) for chunked arrays, base gid (full payload) otherwise.
    twins: HashMap<Gid, ObjPayload>,
    /// Remote-homed objects written this interval.
    dirty: HashSet<Gid>,
    /// Self-homed objects written this interval.
    dirty_home: HashSet<Gid>,
    homes: HashMap<Gid, HomeState>,
    locks: HashMap<Gid, LockState>,
    notices: NoticeBoard,
    /// Per-cached-copy applied maps (classic mode — the per-copy vector
    /// timestamp whose size §3.1 complains about).
    cache_applied: HashMap<Gid, HashMap<NodeId, u32>>,
    /// This node's interval counter and vector clock (per-node intervals —
    /// see lib.rs on the HLRC-SMP-style simplification).
    interval: u32,
    vc: Vec<u32>,
    /// Scalar mode: diffs flushed and awaiting home acknowledgement.
    outstanding_acks: HashMap<Gid, u32>,
    /// Lock transfers deferred until all acks arrive (§3.1's cost).
    deferred_transfers: Vec<Gid>,
    /// Voluntary home-releases deferred behind outstanding acks.
    deferred_home_releases: Vec<Gid>,
    /// Threads blocked on a fetch, per gid.
    waiting_fetch: HashMap<Gid, Vec<ThreadUid>>,
    /// §4.3 extension: chunked-array metadata by base gid.
    chunks: HashMap<Gid, ChunkMeta>,
    /// Region gid → (base gid, region index).
    region_of: HashMap<Gid, (Gid, u32)>,
    /// Cached-copy region validity/version, by base gid (homes are always
    /// valid; versions live in `homes` per region gid).
    region_state: HashMap<Gid, Vec<(DsmState, u32)>>,
    /// Unstamped trace events buffered for the runtime, which stamps them
    /// with virtual time at its drain points (the engine is clock-free).
    /// `None` keeps every hook to a single branch.
    pub trace: Option<Vec<TraceEvent>>,
    /// Per-object sharing profile (PR 10). Bumped at the same code sites as
    /// the corresponding `DsmStats` counters so per-object sums reconcile
    /// exactly with the aggregates; `None` keeps every hook to one branch
    /// and the run bit-identical to an unprofiled one.
    pub objprof: Option<Box<ObjProfile>>,
    /// Whether an AckWaitBegin has been emitted without its AckWaitEnd
    /// (a transfer/home-release is currently deferred behind diff acks).
    ack_wait_open: bool,
}

/// Chunked-array bookkeeping (paper §4.3: "allocating several instances of
/// the javasplit fields, one for each region").
#[derive(Debug, Clone)]
struct ChunkMeta {
    base: Gid,
    n_regions: u32,
    chunk: u32,
    total_len: u32,
}

impl ChunkMeta {
    fn region_gid(&self, region: u32) -> Gid {
        Gid(self.base.0 + region as u64)
    }

    fn region_of_index(&self, idx: u32) -> u32 {
        (idx / self.chunk).min(self.n_regions - 1)
    }

    fn region_bounds(&self, region: u32) -> (usize, usize) {
        let lo = (region * self.chunk) as usize;
        let hi = (((region + 1) * self.chunk) as usize).min(self.total_len as usize);
        (lo, hi)
    }
}

impl DsmNode {
    pub fn new(id: NodeId, config: DsmConfig) -> DsmNode {
        DsmNode {
            id,
            config,
            stats: DsmStats::default(),
            outbox: Vec::new(),
            gid_to_ref: HashMap::new(),
            next_gid: 1,
            twins: HashMap::new(),
            dirty: HashSet::new(),
            dirty_home: HashSet::new(),
            homes: HashMap::new(),
            locks: HashMap::new(),
            notices: match config.mode {
                ProtocolMode::MtsHlrc => NoticeBoard::most_recent(),
                ProtocolMode::ClassicHlrc => NoticeBoard::full_history(),
            },
            cache_applied: HashMap::new(),
            interval: 0,
            vc: Vec::new(),
            outstanding_acks: HashMap::new(),
            deferred_transfers: Vec::new(),
            deferred_home_releases: Vec::new(),
            waiting_fetch: HashMap::new(),
            chunks: HashMap::new(),
            region_of: HashMap::new(),
            region_state: HashMap::new(),
            trace: None,
            objprof: None,
            ack_wait_open: false,
        }
    }

    /// Drain the pending actions for the runtime to execute.
    pub fn drain_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.outbox)
    }

    #[inline]
    fn tr(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(ev);
        }
    }

    /// Take the buffered (unstamped) trace events for the runtime to stamp.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.trace {
            Some(t) if !t.is_empty() => std::mem::take(t),
            _ => Vec::new(),
        }
    }

    /// Attribute a profiled event to its base gid (chunked-array region CUs
    /// fold onto their base object). One untaken branch when profiling is
    /// off.
    #[inline]
    fn prof(&mut self, gid: Gid, ev: ObjEvent) {
        if let Some(p) = &mut self.objprof {
            match self.region_of.get(&gid) {
                Some(&(base, _)) if base != gid => {
                    p.note_region(gid.0, base.0);
                    p.bump(base.0, ev);
                }
                _ => p.bump(gid.0, ev),
            }
        }
    }

    /// Take the accumulated per-object profile (end-of-run collection).
    pub fn take_objprof(&mut self) -> Option<ObjProfile> {
        self.objprof.take().map(|b| *b)
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        self.outbox.push(Action::Send { dst, msg });
    }

    fn wake(&mut self, thread: ThreadUid) {
        self.outbox.push(Action::Wake { thread });
    }

    fn my_vc(&self) -> Vec<u32> {
        match self.config.mode {
            ProtocolMode::MtsHlrc => Vec::new(),
            ProtocolMode::ClassicHlrc => self.vc.clone(),
        }
    }

    fn note_notice_pressure(&mut self) {
        self.stats.notices_stored_max = self.stats.notices_stored_max.max(self.notices.stored());
        self.stats.notice_mem_max = self.stats.notice_mem_max.max(self.notices.mem_bytes());
    }

    // ------------------------------------------------------------------
    // Sharing (dynamic local/shared classification, §2)
    // ------------------------------------------------------------------

    /// Register a local object with the DSM: assign a gid homed here and
    /// make the object itself the master copy. Shallow — referenced objects
    /// are shared lazily when *their* state crosses a serialization
    /// boundary.
    pub fn share_object(&mut self, heap: &mut Heap, obj: ObjRef) -> Gid {
        if let Some(g) = heap.get(obj).dsm.gid {
            return g;
        }
        let gid = Gid::new(self.id, self.next_gid);
        self.next_gid += 1;
        let hdr = &mut heap.get_mut(obj).dsm;
        hdr.gid = Some(gid);
        hdr.state = DsmState::Valid;
        hdr.version = 1;
        // §4.4: "If the object becomes shared ... the lock counter is used
        // to determine whether the object is locked" — a held local lock
        // migrates into the full lock state, or a later remote request
        // would be granted while the local holder still runs.
        let (owner, count) = (hdr.lock_owner.take(), hdr.lock_count);
        hdr.lock_count = 0;
        if count > 0 {
            let ls = self.locks.entry(gid).or_default();
            ls.owned = true;
            ls.holder = owner;
            ls.count = count;
        }
        self.gid_to_ref.insert(gid, obj);
        self.homes.insert(
            gid,
            HomeState { version: 1, applied: HashMap::new(), lock_owner: self.id, pending_fetches: Vec::new() },
        );
        // §4.3 extension: split big arrays into per-region CUs by minting
        // one gid per region (consecutive counters; region 0 = base).
        if let Some(chunk) = self.config.array_chunk {
            if let Some(len) = heap.get(obj).payload.array_len() {
                if len as u32 > chunk {
                    let n_regions = (len as u32).div_ceil(chunk);
                    let meta = ChunkMeta { base: gid, n_regions, chunk, total_len: len as u32 };
                    // Region 0 reuses the base gid (already registered).
                    self.region_of.insert(gid, (gid, 0));
                    for r in 1..n_regions {
                        let rg = Gid(gid.0 + r as u64);
                        self.next_gid += 1;
                        self.gid_to_ref.insert(rg, obj);
                        self.region_of.insert(rg, (gid, r));
                        self.homes.insert(
                            rg,
                            HomeState {
                                version: 1,
                                applied: HashMap::new(),
                                lock_owner: self.id,
                                pending_fetches: Vec::new(),
                            },
                        );
                    }
                    self.chunks.insert(gid, meta);
                }
            }
        }
        self.stats.promotions += 1;
        self.stats.homed_objects += 1;
        self.tr(TraceEvent::Promote { node: self.id, gid: gid.0 });
        self.prof(gid, ObjEvent::Promote);
        gid
    }

    /// Serialize an object's current contents for the wire, sharing any
    /// referenced local objects shallowly (no deep copy — Figure 2's
    /// `writeGlobalIdOf`).
    pub fn serialize_state(&mut self, heap: &mut Heap, obj: ObjRef) -> WireState {
        let payload = heap.get(obj).payload.clone();
        match payload {
            ObjPayload::Fields(vs) => {
                WireState::Fields(vs.into_iter().map(|v| self.wval_of(heap, v)).collect())
            }
            ObjPayload::ArrI32(a) => WireState::ArrI32(a),
            ObjPayload::ArrI64(a) => WireState::ArrI64(a),
            ObjPayload::ArrF64(a) => WireState::ArrF64(a),
            ObjPayload::ArrRef(vs) => {
                WireState::ArrRef(vs.into_iter().map(|v| self.wval_of(heap, v)).collect())
            }
            ObjPayload::Str(s) => WireState::Str(s.to_string()),
        }
    }

    /// A heap value as it travels: primitives as themselves, strings by
    /// value, anything else as the gid of the (now shared) object.
    fn wval_of(&mut self, heap: &mut Heap, v: Value) -> WVal {
        match v {
            Value::I32(x) => WVal::I32(x),
            Value::I64(x) => WVal::I64(x),
            Value::F64(x) => WVal::F64(x),
            Value::Null => WVal::Null,
            Value::Ref(r) => {
                // Strings ship by value (immutable).
                if let ObjPayload::Str(s) = &heap.get(r).payload {
                    return WVal::Str(s.to_string());
                }
                let class = heap.get(r).class;
                let gid = self.share_object(heap, r);
                WVal::Ref(gid, class.0)
            }
        }
    }

    /// Localize a wire value into this node's heap (creating an invalid,
    /// correctly-classed placeholder for unknown gids).
    fn localize(&mut self, heap: &mut Heap, image: &Image, v: &WVal) -> Value {
        match v {
            WVal::I32(x) => Value::I32(*x),
            WVal::I64(x) => Value::I64(*x),
            WVal::F64(x) => Value::F64(*x),
            WVal::Null => Value::Null,
            WVal::Str(s) => {
                let r = heap.intern_str(image.string_class, &std::sync::Arc::from(&**s));
                Value::Ref(r)
            }
            WVal::Ref(gid, class) => Value::Ref(self.ensure_cached(heap, image, *gid, ClassId(*class))),
        }
    }

    /// The local copy of `gid`, creating an Invalid placeholder if none.
    /// Public: the runtime pre-creates cached copies for the shared
    /// `C_static` singletons at start-up (paper §4.2).
    pub fn ensure_cached(&mut self, heap: &mut Heap, image: &Image, gid: Gid, class: ClassId) -> ObjRef {
        if let Some(&r) = self.gid_to_ref.get(&gid) {
            return r;
        }
        debug_assert_ne!(gid.home(), self.id, "home must already hold its master");
        let r = alloc_shape(heap, image, class);
        let hdr = &mut heap.get_mut(r).dsm;
        hdr.gid = Some(gid);
        hdr.state = DsmState::Invalid;
        hdr.version = 0;
        self.gid_to_ref.insert(gid, r);
        r
    }

    /// Install received master state into the local cached copy. Chunked
    /// region responses (`offset`/`chunk_info`) write one region's slice and
    /// register the region layout on first contact.
    #[allow(clippy::too_many_arguments)]
    pub fn install_state_at(
        &mut self,
        heap: &mut Heap,
        image: &Image,
        gid: Gid,
        class: ClassId,
        state: &WireState,
        version: u32,
        applied: &[(NodeId, u32)],
        offset: u32,
        chunk_info: Option<(u32, u32, u32)>,
    ) -> ObjRef {
        // Region responses name a region gid; the heap object belongs to the
        // base gid.
        let (base, region) = match chunk_info {
            Some((_, chunk, _)) => (Gid(gid.0 - (offset / chunk) as u64), offset / chunk),
            None => (gid, 0),
        };
        let r = self.ensure_cached(heap, image, base, class);
        if let Some((n_regions, chunk, total)) = chunk_info {
            // First contact with a chunked array: register the layout and
            // size the payload.
            if !self.chunks.contains_key(&base) {
                let meta = ChunkMeta { base, n_regions, chunk, total_len: total };
                for rg in 0..n_regions {
                    let rgid = meta.region_gid(rg);
                    self.gid_to_ref.insert(rgid, r);
                    self.region_of.insert(rgid, (base, rg));
                }
                self.chunks.insert(base, meta);
                self.region_state
                    .insert(base, vec![(DsmState::Invalid, 0); n_regions as usize]);
                resize_array(heap, r, total as usize);
            }
            // Write the slice.
            let localized: Vec<Value> = match state {
                WireState::ArrRef(vs) => vs.iter().map(|v| self.localize(heap, image, v)).collect(),
                _ => Vec::new(),
            };
            let obj = heap.get_mut(r);
            match (&mut obj.payload, state) {
                (ObjPayload::ArrI32(dst), WireState::ArrI32(src)) => {
                    dst[offset as usize..offset as usize + src.len()].copy_from_slice(src);
                }
                (ObjPayload::ArrI64(dst), WireState::ArrI64(src)) => {
                    dst[offset as usize..offset as usize + src.len()].copy_from_slice(src);
                }
                (ObjPayload::ArrF64(dst), WireState::ArrF64(src)) => {
                    dst[offset as usize..offset as usize + src.len()].copy_from_slice(src);
                }
                (ObjPayload::ArrRef(dst), WireState::ArrRef(src)) => {
                    dst[offset as usize..offset as usize + src.len()].clone_from_slice(&localized);
                }
                (p, s) => panic!("region install mismatch: {p:?} vs {s:?}"),
            }
            obj.dsm.state = DsmState::Valid; // length + ≥1 region known
            self.region_state.get_mut(&base).unwrap()[region as usize] = (DsmState::Valid, version);
            if self.config.mode == ProtocolMode::ClassicHlrc {
                self.cache_applied.insert(gid, applied.iter().copied().collect());
            }
            return r;
        }
        let payload = match state {
            WireState::Fields(vs) => {
                ObjPayload::Fields(vs.iter().map(|v| self.localize(heap, image, v)).collect())
            }
            WireState::ArrI32(a) => ObjPayload::ArrI32(a.clone()),
            WireState::ArrI64(a) => ObjPayload::ArrI64(a.clone()),
            WireState::ArrF64(a) => ObjPayload::ArrF64(a.clone()),
            WireState::ArrRef(vs) => {
                ObjPayload::ArrRef(vs.iter().map(|v| self.localize(heap, image, v)).collect())
            }
            WireState::Str(s) => ObjPayload::Str(std::sync::Arc::from(&**s)),
        };
        // Deliberately KEEP any twin from this interval: the object may be
        // dirty (written, then invalidated and re-fetched before the
        // closing release), and close_interval still diffs it against that
        // twin. The `twinned` reset below only makes the *next* write
        // re-snapshot against the installed copy.
        let obj = heap.get_mut(r);
        obj.payload = payload;
        obj.dsm.state = DsmState::Valid;
        obj.dsm.version = version;
        obj.dsm.twinned = false;
        if self.config.mode == ProtocolMode::ClassicHlrc {
            self.cache_applied.insert(gid, applied.iter().copied().collect());
        }
        r
    }

    /// Back-compat entry for whole-object installs.
    #[allow(clippy::too_many_arguments)]
    pub fn install_state(
        &mut self,
        heap: &mut Heap,
        image: &Image,
        gid: Gid,
        class: ClassId,
        state: &WireState,
        version: u32,
        applied: &[(NodeId, u32)],
    ) -> ObjRef {
        self.install_state_at(heap, image, gid, class, state, version, applied, 0, None)
    }

    // ------------------------------------------------------------------
    // Access checks (Figure 3 slow path)
    // ------------------------------------------------------------------

    /// Read check: fetch from home on an invalid copy. `idx` (the element
    /// index of an array access) selects the region under the §4.3 chunked
    /// extension.
    ///
    /// `#[inline]`: called once per rewritten heap read from the
    /// interpreter dispatch loop in another crate; the `Local`/`Valid` hit
    /// path must inline there.
    #[inline]
    pub fn check_read(&mut self, heap: &mut Heap, thread: ThreadUid, obj: ObjRef, idx: Option<i32>) -> AccessOutcome {
        let hdr = &heap.get(obj).dsm;
        match hdr.state {
            DsmState::Local => AccessOutcome::Hit,
            DsmState::Valid => {
                let gid = hdr.gid.expect("valid shared object has a gid");
                match self.stale_region(gid, idx) {
                    None => {
                        self.prof(gid, ObjEvent::ReadHit);
                        AccessOutcome::Hit
                    }
                    Some(region_gid) => {
                        self.prof(region_gid, ObjEvent::ReadMiss);
                        self.request_fetch(region_gid, thread);
                        AccessOutcome::Miss
                    }
                }
            }
            DsmState::Invalid => {
                let gid = hdr.gid.expect("invalid object must be shared");
                self.prof(gid, ObjEvent::ReadMiss);
                self.request_fetch_idx(gid, thread, idx.map(|i| i.max(0) as u32).unwrap_or(u32::MAX));
                AccessOutcome::Miss
            }
        }
    }

    /// For a chunked cached array: the region gid that must be fetched
    /// before accessing element `idx`, or `None` if that region is valid
    /// (or the object isn't chunked / is homed here).
    fn stale_region(&self, base: Gid, idx: Option<i32>) -> Option<Gid> {
        let idx = idx?;
        if base.home() == self.id {
            return None;
        }
        let meta = self.chunks.get(&base)?;
        let region = meta.region_of_index(idx.max(0) as u32);
        let states = self.region_state.get(&base)?;
        match states[region as usize].0 {
            DsmState::Valid => None,
            _ => Some(meta.region_gid(region)),
        }
    }

    /// Write check: additionally twin the object on the first write of the
    /// interval (multiple-writer support).
    ///
    /// `#[inline]`: see [`Node::check_read`] — the `Local` hit path must
    /// inline into the interpreter's dispatch loop.
    #[inline]
    pub fn check_write(&mut self, heap: &mut Heap, thread: ThreadUid, obj: ObjRef, idx: Option<i32>) -> AccessOutcome {
        let (state, gid, twinned) = {
            let hdr = &heap.get(obj).dsm;
            (hdr.state, hdr.gid, hdr.twinned)
        };
        match state {
            DsmState::Local => AccessOutcome::Hit,
            DsmState::Valid => {
                let gid = gid.expect("valid shared object has a gid");
                if let Some(region_gid) = self.stale_region(gid, idx) {
                    self.prof(region_gid, ObjEvent::WriteMiss);
                    self.request_fetch(region_gid, thread);
                    return AccessOutcome::Miss;
                }
                self.prof(gid, ObjEvent::WriteHit);
                // The dirtied CU: the touched region for chunked arrays,
                // the object itself otherwise.
                let chunked = match (self.chunks.get(&gid), idx) {
                    (Some(meta), Some(i)) => {
                        let region = meta.region_of_index(i.max(0) as u32);
                        Some((meta.region_gid(region), meta.region_bounds(region)))
                    }
                    _ => None,
                };
                if gid.home() == self.id {
                    self.dirty_home.insert(chunked.map_or(gid, |(cu, _)| cu));
                } else if let Some((cu, (lo, hi))) = chunked {
                    // Twin only the touched region, keyed by the region gid:
                    // first write to a chunked array costs O(chunk), not
                    // O(array length).
                    if let std::collections::hash_map::Entry::Vacant(e) = self.twins.entry(cu) {
                        e.insert(clone_window(&heap.get(obj).payload, lo, hi));
                        heap.get_mut(obj).dsm.twinned = true;
                    }
                    self.dirty.insert(cu);
                } else {
                    // `twinned` only means *some* CU of this object has a
                    // twin (possibly a region window under another key), so
                    // a set flag still requires the map check.
                    if !twinned || !self.twins.contains_key(&gid) {
                        self.twins.insert(gid, heap.get(obj).payload.clone());
                        heap.get_mut(obj).dsm.twinned = true;
                    }
                    self.dirty.insert(gid);
                }
                AccessOutcome::Hit
            }
            DsmState::Invalid => {
                let gid = gid.expect("invalid object must be shared");
                self.prof(gid, ObjEvent::WriteMiss);
                self.request_fetch_idx(gid, thread, idx.map(|i| i.max(0) as u32).unwrap_or(u32::MAX));
                AccessOutcome::Miss
            }
        }
    }

    fn request_fetch(&mut self, gid: Gid, thread: ThreadUid) {
        self.request_fetch_idx(gid, thread, u32::MAX)
    }

    fn request_fetch_idx(&mut self, gid: Gid, thread: ThreadUid, want_idx: u32) {
        let waiters = self.waiting_fetch.entry(gid).or_default();
        let first = waiters.is_empty();
        waiters.push(thread);
        if first {
            self.stats.fetches += 1;
            self.tr(TraceEvent::FetchRequest { node: self.id, gid: gid.0, thread });
            self.prof(gid, ObjEvent::Fetch);
            let need = self.notices.requirement_of(gid);
            self.send(gid.home(), Msg::Fetch { gid, need, node: self.id, thread, want_idx });
        }
    }

    // ------------------------------------------------------------------
    // Locks (§3.2 + §4.4)
    // ------------------------------------------------------------------

    /// Promote a local object into the DSM, carrying its lock-counter state
    /// into the full lock machinery (§4.4: "the lock counter is used to
    /// determine whether the object is locked").
    fn promote_for_lock(&mut self, heap: &mut Heap, obj: ObjRef) -> Gid {
        // share_object migrates any held local lock into the lock state;
        // the home also starts out owning an uncontended lock.
        let gid = self.share_object(heap, obj);
        self.locks.entry(gid).or_default().owned = true;
        gid
    }

    /// `monitorenter` handler (the substituted `DsmMonitorEnter`).
    pub fn monitor_enter(&mut self, heap: &mut Heap, thread: ThreadUid, priority: i32, obj: ObjRef) -> LockOutcome {
        // Local-object fast path: a counter, cheaper than the original
        // monitorenter (Table 2).
        let hdr = &heap.get(obj).dsm;
        if hdr.gid.is_none() && self.config.disable_local_locks {
            // §4.4 ablation: force promotion so even uncontended private
            // locks pay the shared-object handler cost.
            self.share_object(heap, obj);
        }
        let hdr = &heap.get(obj).dsm;
        if hdr.gid.is_none() {
            let hdr = &mut heap.get_mut(obj).dsm;
            match hdr.lock_owner {
                None => {
                    hdr.lock_owner = Some(thread);
                    hdr.lock_count = 1;
                    self.stats.local_acquires += 1;
                    return LockOutcome::EnteredLocal;
                }
                Some(o) if o == thread => {
                    hdr.lock_count += 1;
                    self.stats.local_acquires += 1;
                    return LockOutcome::EnteredLocal;
                }
                Some(_) => {
                    // Contended by a second thread: the object becomes
                    // shared and we fall through to the shared path.
                    self.promote_for_lock(heap, obj);
                }
            }
        }

        let gid = heap.get(obj).dsm.gid.expect("shared by now");
        let home_here = gid.home() == self.id;
        // The home owns every lock initially.
        let ls = self
            .locks
            .entry(gid)
            .or_insert_with(|| LockState { owned: home_here, ..LockState::default() });
        if ls.owned {
            if let Some((t, c)) = ls.granted_to {
                if t == thread {
                    ls.granted_to = None;
                    ls.holder = Some(thread);
                    ls.count = c;
                    self.stats.shared_acquires_local += 1;
                    self.tr(TraceEvent::LockAcquire { node: self.id, gid: gid.0, thread });
                    self.prof(gid, ObjEvent::AcquireLocal);
                    return LockOutcome::EnteredShared;
                }
            }
            match ls.holder {
                Some(h) if h == thread => {
                    ls.count += 1;
                    self.stats.shared_acquires_local += 1;
                    self.tr(TraceEvent::LockAcquire { node: self.id, gid: gid.0, thread });
                    self.prof(gid, ObjEvent::AcquireLocal);
                    LockOutcome::EnteredShared
                }
                None if ls.granted_to.is_none() => {
                    ls.holder = Some(thread);
                    ls.count = 1;
                    self.stats.shared_acquires_local += 1;
                    self.tr(TraceEvent::LockAcquire { node: self.id, gid: gid.0, thread });
                    self.prof(gid, ObjEvent::AcquireLocal);
                    LockOutcome::EnteredShared
                }
                _ => {
                    ls.request_q.push(LockRequest {
                        node: self.id,
                        thread,
                        priority,
                        resume_wait: false,
                        saved_count: 0,
                        vc: Vec::new(),
                    });
                    self.tr(TraceEvent::LockRequest { node: self.id, gid: gid.0, thread });
                    LockOutcome::Blocked
                }
            }
        } else {
            // Remote acquire: one request per thread (§3.2 — all requests
            // go to the manager, which forwards to the current owner).
            if ls.sent_remote_req.insert(thread) {
                self.stats.shared_acquires_remote += 1;
                self.tr(TraceEvent::LockRequest { node: self.id, gid: gid.0, thread });
                self.prof(gid, ObjEvent::AcquireRemote);
                let vc = self.my_vc();
                self.send(gid.home(), Msg::LockReq { lock: gid, node: self.id, thread, priority, vc });
            }
            LockOutcome::Blocked
        }
    }

    /// `monitorexit` handler. Returns `true` when the cheap local-object
    /// counter path was taken (the runtime prices the two paths differently,
    /// Table 2).
    pub fn monitor_exit(&mut self, heap: &mut Heap, thread: ThreadUid, obj: ObjRef) -> Result<bool, MonitorError> {
        let hdr = &heap.get(obj).dsm;
        if hdr.gid.is_none() {
            let hdr = &mut heap.get_mut(obj).dsm;
            if hdr.lock_owner != Some(thread) || hdr.lock_count == 0 {
                return Err(MonitorError("monitorexit on unowned local object"));
            }
            hdr.lock_count -= 1;
            if hdr.lock_count == 0 {
                hdr.lock_owner = None;
            }
            return Ok(true);
        }
        let gid = hdr.gid.unwrap();
        let ls = self.locks.get_mut(&gid).ok_or(MonitorError("monitorexit without lock state"))?;
        if !ls.owned || ls.holder != Some(thread) {
            return Err(MonitorError("monitorexit by non-holder"));
        }
        ls.count -= 1;
        if ls.count == 0 {
            ls.holder = None;
            self.try_grant(heap, gid);
        }
        Ok(false)
    }

    /// Force-release every monitor still held by a dying `thread` (abnormal
    /// termination). Java unwinds a dying thread's `monitorexit`s; a trapped
    /// frame stack cannot, so the runtime calls this instead. Shared locks
    /// drop straight to count 0 and are granted onward; local fast-path
    /// counters are cleared in the heap headers. Gids are processed in
    /// sorted order so the resulting message sequence is deterministic.
    pub fn release_all_held(&mut self, heap: &mut Heap, thread: ThreadUid) {
        let mut held: Vec<Gid> = self
            .locks
            .iter()
            .filter(|(_, ls)| {
                ls.owned
                    && (ls.holder == Some(thread)
                        || matches!(ls.granted_to, Some((t, _)) if t == thread))
            })
            .map(|(g, _)| *g)
            .collect();
        held.sort_unstable();
        for gid in held {
            let ls = self.locks.get_mut(&gid).expect("held lock state");
            if ls.holder == Some(thread) {
                ls.holder = None;
                ls.count = 0;
            }
            if matches!(ls.granted_to, Some((t, _)) if t == thread) {
                ls.granted_to = None;
            }
            self.try_grant(heap, gid);
        }
        heap.release_local_locks_of(thread);
    }

    /// `Object.wait()`: park in the wait queue and release the lock — all
    /// local to the owner (§3.2).
    pub fn obj_wait(&mut self, heap: &mut Heap, thread: ThreadUid, priority: i32, obj: ObjRef) -> Result<(), MonitorError> {
        // Waiting requires the full machinery; promote local objects.
        if heap.get(obj).dsm.gid.is_none() {
            if heap.get(obj).dsm.lock_owner != Some(thread) {
                return Err(MonitorError("wait by non-owner"));
            }
            self.promote_for_lock(heap, obj);
        }
        let gid = heap.get(obj).dsm.gid.unwrap();
        let ls = self.locks.get_mut(&gid).ok_or(MonitorError("wait without lock state"))?;
        if !ls.owned || ls.holder != Some(thread) {
            return Err(MonitorError("wait by non-holder"));
        }
        let saved = ls.count;
        ls.wait_q.push(WaitEntry { node: self.id, thread, priority, saved_count: saved });
        ls.holder = None;
        ls.count = 0;
        self.stats.waits += 1;
        self.tr(TraceEvent::WaitPark { node: self.id, gid: gid.0, thread });
        self.prof(gid, ObjEvent::Wait);
        self.try_grant(heap, gid);
        Ok(())
    }

    /// `Object.notify()`/`notifyAll()`: move wait-queue entries into the
    /// request queue. "Completely local" — zero sends (asserted in tests).
    pub fn obj_notify(&mut self, heap: &mut Heap, thread: ThreadUid, obj: ObjRef, all: bool) -> Result<(), MonitorError> {
        let hdr = &heap.get(obj).dsm;
        if hdr.gid.is_none() {
            // A never-shared object cannot have waiters.
            if hdr.lock_owner != Some(thread) {
                return Err(MonitorError("notify by non-owner"));
            }
            self.stats.notifies += 1;
            if let Some(p) = &mut self.objprof {
                // A never-shared object has no gid to charge.
                p.bump_unattributed(ObjEvent::Notify);
            }
            return Ok(());
        }
        let gid = hdr.gid.unwrap();
        let ls = self.locks.get_mut(&gid).ok_or(MonitorError("notify without lock state"))?;
        if !ls.owned || ls.holder != Some(thread) {
            return Err(MonitorError("notify by non-holder"));
        }
        let n = if all { ls.wait_q.len() } else { 1.min(ls.wait_q.len()) };
        for _ in 0..n {
            let we = ls.wait_q.remove(0);
            ls.request_q.push(LockRequest {
                node: we.node,
                thread: we.thread,
                priority: we.priority,
                resume_wait: true,
                saved_count: we.saved_count,
                vc: Vec::new(),
            });
        }
        self.stats.notifies += 1;
        self.tr(TraceEvent::Notify { node: self.id, gid: gid.0, thread, all });
        self.prof(gid, ObjEvent::Notify);
        Ok(())
    }

    /// Grant the lock to the best queued requester if it is free. Remote
    /// transfers close the current interval first; under scalar timestamps
    /// the transfer then waits for all diff acks (§3.1).
    fn try_grant(&mut self, heap: &mut Heap, gid: Gid) {
        let ls = match self.locks.get(&gid) {
            Some(l) => l,
            None => return,
        };
        if !ls.owned || ls.holder.is_some() || ls.granted_to.is_some() || ls.request_q.is_empty() {
            return;
        }
        // Highest priority wins; FIFO among equals (§3.2).
        let best_idx = ls
            .request_q
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.priority.cmp(&b.priority).then(ib.cmp(ia)))
            .map(|(i, _)| i)
            .unwrap();
        let best_node = ls.request_q[best_idx].node;

        if best_node == self.id {
            let ls = self.locks.get_mut(&gid).unwrap();
            let req = ls.request_q.remove(best_idx);
            ls.sent_remote_req.remove(&req.thread);
            if req.resume_wait {
                // A resumed waiter re-enters without a monitor_enter retry,
                // so its acquire is traced here.
                ls.holder = Some(req.thread);
                ls.count = req.saved_count;
                self.tr(TraceEvent::LockAcquire { node: self.id, gid: gid.0, thread: req.thread });
            } else {
                ls.granted_to = Some((req.thread, 1));
            }
            self.wake(req.thread);
            return;
        }

        // Remote transfer: flush this interval's writes first.
        if !self.dirty.is_empty() || !self.dirty_home.is_empty() {
            self.close_interval(heap);
        }
        if self.config.mode == ProtocolMode::MtsHlrc && !self.outstanding_acks.is_empty() {
            // Scalar timestamps: the transfer completes only after every
            // diff is acknowledged by its home.
            if !self.deferred_transfers.contains(&gid) {
                self.deferred_transfers.push(gid);
                self.stats.releases_awaiting_acks += 1;
                self.note_ack_wait_begin();
            }
            return;
        }
        self.transfer(gid, best_idx);
    }

    /// Open the ack-wait window on the first deferral (trace bookkeeping).
    fn note_ack_wait_begin(&mut self) {
        if !self.ack_wait_open {
            self.ack_wait_open = true;
            self.tr(TraceEvent::AckWaitBegin { node: self.id });
        }
    }

    /// Complete a remote transfer: ownership + queues + notices leave.
    fn transfer(&mut self, gid: Gid, best_idx: usize) {
        let ls = self.locks.get_mut(&gid).unwrap();
        let req = ls.request_q.remove(best_idx);
        let request_q = std::mem::take(&mut ls.request_q);
        let wait_q = std::mem::take(&mut ls.wait_q);
        ls.owned = false;
        ls.forwarded_to = Some(req.node);
        ls.granted_to = None;
        let notices = self.notices.for_grant(&req.vc);
        let vc = self.my_vc();
        self.stats.grants_sent += 1;
        self.tr(TraceEvent::LockGrant { node: self.id, gid: gid.0, to_node: req.node, to_thread: req.thread });
        if let Some(p) = &mut self.objprof {
            // Locks live on base objects, so no region folding is needed;
            // the edge records where the ownership chain went.
            p.grant_edge(gid.0, req.node);
        }
        self.send(
            req.node,
            Msg::LockGrant {
                lock: gid,
                to_thread: req.thread,
                resume_wait: req.resume_wait,
                saved_count: if req.resume_wait { req.saved_count } else { 1 },
                request_q,
                wait_q,
                notices,
                vc,
            },
        );
    }

    /// End the current interval: flush diffs of remote-homed dirty objects
    /// to their homes; version-bump self-homed dirty objects and create
    /// their notices locally.
    fn close_interval(&mut self, heap: &mut Heap) {
        self.interval += 1;
        let my_interval = self.interval;
        if self.vc.len() <= self.id as usize {
            self.vc.resize(self.id as usize + 1, 0);
        }
        self.vc[self.id as usize] = my_interval;

        let scalar = self.config.mode == ProtocolMode::MtsHlrc;

        let dirty: Vec<Gid> = {
            let mut v: Vec<Gid> = self.dirty.drain().collect();
            v.sort();
            v
        };
        let mut twinned_objs: Vec<ObjRef> = Vec::new();
        for gid in dirty {
            // A chunked region carries its own window twin (keyed by the
            // region gid, based at the region's lower bound); a whole object
            // carries a full twin keyed by its gid.
            let (base, bounds) = match self.region_of.get(&gid) {
                Some(&(base, region)) => (base, Some(self.chunks[&base].region_bounds(region))),
                None => (gid, None),
            };
            let obj = self.gid_to_ref[&base];
            // Consuming the twin here (instead of clone-then-compare) means
            // the release path never copies a payload: the diff walks the
            // twin and the live payload in place.
            let twin = self.twins.remove(&gid).expect("dirty CU has a twin");
            if !twinned_objs.contains(&obj) {
                twinned_objs.push(obj);
            }
            let d = match bounds {
                Some((lo, hi)) => diff::compute_region(&twin, lo, &heap.get(obj).payload, lo, hi),
                None => diff::compute(&twin, &heap.get(obj).payload),
            };
            if d.is_empty() {
                continue;
            }
            self.stats.diffs_sent += 1;
            self.stats.diff_fields += d.len() as u64;
            self.tr(TraceEvent::DiffFlush { node: self.id, gid: gid.0, entries: d.len() as u32 });
            self.prof(gid, ObjEvent::DiffSent);
            // Map entry values to wire values (sharing referenced locals).
            let entries: Vec<(u32, WVal)> = d
                .entries
                .iter()
                .map(|(i, v)| (*i, self.wval_of(heap, *v)))
                .collect();
            if scalar {
                *self.outstanding_acks.entry(gid).or_insert(0) += 1;
            } else {
                // Vector timestamps: the notice is (node, interval), known
                // without a round trip.
                let req = Requirement::from_ts(&Timestamp::Vector { node: self.id, interval: my_interval });
                self.notices.record(gid, self.id, my_interval, &req);
            }
            self.send(
                gid.home(),
                Msg::DiffFlush { gid, entries, node: self.id, interval: my_interval, want_ack: scalar },
            );
        }
        for obj in twinned_objs {
            heap.get_mut(obj).dsm.twinned = false;
        }

        let dirty_home: Vec<Gid> = {
            let mut v: Vec<Gid> = self.dirty_home.drain().collect();
            v.sort();
            v
        };
        for gid in dirty_home {
            let home = self.homes.get_mut(&gid).expect("dirty_home implies home here");
            home.version += 1;
            home.applied.insert(self.id, my_interval);
            let version = home.version;
            // Keep the master object's header version in step (for chunked
            // regions the header tracks the base CU only).
            let obj = self.gid_to_ref[&gid];
            if !self.region_of.contains_key(&gid) {
                heap.get_mut(obj).dsm.version = version;
            }
            let req = if scalar {
                Requirement::from_ts(&Timestamp::Scalar(version))
            } else {
                Requirement::from_ts(&Timestamp::Vector { node: self.id, interval: my_interval })
            };
            self.notices.record(gid, self.id, my_interval, &req);
        }
        self.note_notice_pressure();
    }

    // ------------------------------------------------------------------
    // Protocol message handling
    // ------------------------------------------------------------------

    /// Handle an incoming protocol message.
    pub fn handle(&mut self, heap: &mut Heap, image: &Image, msg: Msg) {
        match msg {
            Msg::LockReq { lock, node, thread, priority, vc } => {
                self.handle_lock_req(heap, lock, LockRequest {
                    node,
                    thread,
                    priority,
                    resume_wait: false,
                    saved_count: 0,
                    vc,
                });
            }
            Msg::LockGrant { lock, to_thread, resume_wait, saved_count, request_q, wait_q, notices, vc } => {
                self.handle_grant(heap, lock, to_thread, resume_wait, saved_count, request_q, wait_q, notices, vc);
            }
            Msg::OwnerChange { lock, new_owner } => {
                if let Some(home) = self.homes.get_mut(&lock) {
                    home.lock_owner = new_owner;
                }
            }
            Msg::DiffFlush { gid, entries, node, interval, want_ack } => {
                self.handle_diff(heap, image, gid, entries, node, interval, want_ack);
            }
            Msg::DiffAck { gid, version } => {
                self.tr(TraceEvent::DiffAck { node: self.id, gid: gid.0, version });
                let req = Requirement::from_ts(&Timestamp::Scalar(version));
                self.notices.record(gid, self.id, self.interval, &req);
                self.note_notice_pressure();
                if let Some(c) = self.outstanding_acks.get_mut(&gid) {
                    *c -= 1;
                    if *c == 0 {
                        self.outstanding_acks.remove(&gid);
                    }
                }
                if self.outstanding_acks.is_empty() {
                    if self.ack_wait_open {
                        self.ack_wait_open = false;
                        self.tr(TraceEvent::AckWaitEnd { node: self.id });
                    }
                    let deferred = std::mem::take(&mut self.deferred_transfers);
                    for lock in deferred {
                        self.try_grant(heap, lock);
                    }
                    let releases = std::mem::take(&mut self.deferred_home_releases);
                    for lock in releases {
                        self.release_ownership_to_home(heap, lock);
                    }
                }
            }
            Msg::Fetch { gid, need, node, thread, want_idx } => {
                self.handle_fetch(heap, gid, need, node, thread, want_idx);
            }
            Msg::ObjState { gid, class, state, version, applied, to_thread: _, offset, chunk_info } => {
                self.install_state_at(heap, image, gid, ClassId(class), &state, version, &applied, offset, chunk_info);
                let mut woken: u32 = 0;
                if let Some(waiters) = self.waiting_fetch.remove(&gid) {
                    for t in waiters {
                        self.wake(t);
                        woken += 1;
                    }
                }
                // First-contact region replies also satisfy base-gid waiters.
                if let Some((_, chunk, _)) = chunk_info {
                    let base = Gid(gid.0 - (offset / chunk) as u64);
                    if let Some(waiters) = self.waiting_fetch.remove(&base) {
                        for t in waiters {
                            self.wake(t);
                            woken += 1;
                        }
                    }
                }
                self.tr(TraceEvent::FetchDone { node: self.id, gid: gid.0, woken });
            }
            Msg::SpawnThread { .. } | Msg::Println { .. } => {
                unreachable!("runtime-level messages must be handled by the runtime")
            }
        }
    }

    fn handle_lock_req(&mut self, heap: &mut Heap, lock: Gid, req: LockRequest) {
        // Home duty: forward to the current owner (§3.2).
        if lock.home() == self.id {
            let owner = self.homes.get(&lock).map(|h| h.lock_owner).unwrap_or(self.id);
            if owner != self.id {
                let vc = req.vc.clone();
                self.send(owner, Msg::LockReq { lock, node: req.node, thread: req.thread, priority: req.priority, vc });
                return;
            }
        }
        let home_here = lock.home() == self.id;
        let ls = self
            .locks
            .entry(lock)
            .or_insert_with(|| LockState { owned: home_here, ..LockState::default() });
        if ls.owned {
            ls.request_q.push(req);
            self.try_grant(heap, lock);
        } else if let Some(next) = ls.forwarded_to {
            // Stray request that raced an ownership transfer: chase the
            // ownership chain.
            self.send(next, Msg::LockReq { lock, node: req.node, thread: req.thread, priority: req.priority, vc: req.vc });
        } else {
            // We neither own nor transferred: send it (back) to the home,
            // whose forwarding pointer is authoritative.
            self.send(lock.home(), Msg::LockReq { lock, node: req.node, thread: req.thread, priority: req.priority, vc: req.vc });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_grant(
        &mut self,
        heap: &mut Heap,
        lock: Gid,
        to_thread: ThreadUid,
        resume_wait: bool,
        saved_count: u32,
        request_q: Vec<LockRequest>,
        wait_q: Vec<WaitEntry>,
        notices: Vec<(Gid, Requirement)>,
        vc: Vec<u32>,
    ) {
        // Acquire semantics first: merge notices and invalidate stale copies
        // *before* the granted thread can run.
        for (gid, req) in &notices {
            self.apply_notice(heap, *gid, req);
        }
        if self.config.mode == ProtocolMode::ClassicHlrc {
            if self.vc.len() < vc.len() {
                self.vc.resize(vc.len(), 0);
            }
            for (i, v) in vc.iter().enumerate() {
                self.vc[i] = self.vc[i].max(*v);
            }
        }
        self.note_notice_pressure();

        let ls = self.locks.entry(lock).or_default();
        ls.owned = true;
        ls.forwarded_to = None;
        ls.request_q.extend(request_q);
        ls.wait_q.extend(wait_q);
        if to_thread == crate::protocol::NO_THREAD {
            // Voluntary home-release: no grantee; serve any queued requests.
            if lock.home() == self.id {
                if let Some(home) = self.homes.get_mut(&lock) {
                    home.lock_owner = self.id;
                }
            }
            self.try_grant(heap, lock);
            return;
        }
        ls.sent_remote_req.remove(&to_thread);
        if resume_wait {
            // Resumed waiters re-enter without a monitor_enter retry.
            ls.holder = Some(to_thread);
            ls.count = saved_count;
            self.tr(TraceEvent::LockAcquire { node: self.id, gid: lock.0, thread: to_thread });
        } else {
            ls.granted_to = Some((to_thread, saved_count));
        }
        self.wake(to_thread);
        // Tell the manager where the lock lives now.
        if lock.home() != self.id {
            self.send(lock.home(), Msg::OwnerChange { lock, new_owner: self.id });
        } else if let Some(home) = self.homes.get_mut(&lock) {
            home.lock_owner = self.id;
        }
    }

    fn apply_notice(&mut self, heap: &mut Heap, gid: Gid, req: &Requirement) {
        self.notices.record(gid, 0, 0, req);
        if gid.home() == self.id {
            return; // the master is always current at its home
        }
        // Chunked regions invalidate region-granularly (§4.3 extension).
        if let Some(&(base, region)) = self.region_of.get(&gid) {
            if let Some(states) = self.region_state.get_mut(&base) {
                let (st, ver) = states[region as usize];
                let empty = HashMap::new();
                let applied = self.cache_applied.get(&gid).unwrap_or(&empty);
                if st == DsmState::Valid && !req.satisfied_by(ver, applied) {
                    states[region as usize].0 = DsmState::Invalid;
                    self.stats.invalidations += 1;
                    self.tr(TraceEvent::Invalidate { node: self.id, gid: gid.0 });
                    self.prof(gid, ObjEvent::Invalidated);
                }
            }
            return;
        }
        if let Some(&local) = self.gid_to_ref.get(&gid) {
            let empty = HashMap::new();
            let applied = self.cache_applied.get(&gid).unwrap_or(&empty);
            let hdr = &heap.get(local).dsm;
            if hdr.state == DsmState::Valid && !req.satisfied_by(hdr.version, applied) {
                heap.get_mut(local).dsm.state = DsmState::Invalid;
                self.stats.invalidations += 1;
                self.tr(TraceEvent::Invalidate { node: self.id, gid: gid.0 });
                self.prof(gid, ObjEvent::Invalidated);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_diff(
        &mut self,
        heap: &mut Heap,
        image: &Image,
        gid: Gid,
        entries: Vec<(u32, WVal)>,
        node: NodeId,
        interval: u32,
        want_ack: bool,
    ) {
        debug_assert_eq!(gid.home(), self.id, "diff must arrive at the home");
        let obj = self.gid_to_ref[&gid];
        let localized: Vec<(u32, Value)> =
            entries.iter().map(|(i, v)| (*i, self.localize(heap, image, v))).collect();
        diff::apply(&mut heap.get_mut(obj).payload, &localized);
        let home = self.homes.get_mut(&gid).expect("home state");
        home.version += 1;
        home.applied.insert(node, interval);
        let version = home.version;
        heap.get_mut(obj).dsm.version = version;
        self.stats.diffs_applied += 1;
        self.prof(gid, ObjEvent::DiffApplied);
        if want_ack {
            self.send(node, Msg::DiffAck { gid, version });
        }
        // Serve fetches that were waiting for this interval (classic mode).
        let pending = std::mem::take(&mut self.homes.get_mut(&gid).unwrap().pending_fetches);
        for (need, n, t) in pending {
            self.handle_fetch(heap, gid, need, n, t, u32::MAX);
        }
    }

    fn handle_fetch(&mut self, heap: &mut Heap, gid: Gid, need: Requirement, node: NodeId, thread: ThreadUid, want_idx: u32) {
        debug_assert_eq!(gid.home(), self.id, "fetch must arrive at the home");
        // A base-gid fetch for a chunked array with a known faulting index:
        // answer with the region containing it (but keep the reply keyed by
        // the REQUESTED gid so the requester's waiters wake).
        let mut serve_region_override: Option<u32> = None;
        if want_idx != u32::MAX {
            if let Some(meta) = self.chunks.get(&gid) {
                serve_region_override = Some(meta.region_of_index(want_idx));
            }
        }
        let (version, satisfied) = {
            let home = self.homes.get(&gid).expect("fetch for unknown gid");
            (home.version, need.satisfied_by(home.version, &home.applied))
        };
        if !satisfied {
            // Only possible with vector timestamps: the required interval's
            // diff is still in flight. (Scalar mode acks guarantee the home
            // already has it — asserted here.)
            debug_assert_eq!(self.config.mode, ProtocolMode::ClassicHlrc, "scalar fetch must always be satisfied");
            self.stats.fetches_delayed_at_home += 1;
            self.prof(gid, ObjEvent::FetchDelayed);
            self.homes.get_mut(&gid).unwrap().pending_fetches.push((need, node, thread));
            return;
        }
        let obj = self.gid_to_ref[&gid];
        let class = heap.get(obj).class;
        // Chunked arrays serve one region's slice (§4.3 extension).
        let region_key = match serve_region_override {
            Some(r) => Some((gid, r)),
            None => self.region_of.get(&gid).copied(),
        };
        let (state, offset, chunk_info, version) = match region_key {
            Some((base, region)) => {
                let meta = self.chunks[&base].clone();
                let (lo, hi) = meta.region_bounds(region);
                let state = self.serialize_slice(heap, obj, lo, hi);
                let v = self.homes[&meta.region_gid(region)].version;
                (state, lo as u32, Some((meta.n_regions, meta.chunk, meta.total_len)), v)
            }
            None => (self.serialize_state(heap, obj), 0, None, version),
        };
        let applied: Vec<(NodeId, u32)> = if self.config.mode == ProtocolMode::ClassicHlrc {
            let mut v: Vec<(NodeId, u32)> =
                self.homes[&gid].applied.iter().map(|(n, i)| (*n, *i)).collect();
            v.sort();
            v
        } else {
            Vec::new()
        };
        // Region replies are keyed by the region gid (so per-region version
        // bookkeeping is unambiguous); the receiver also wakes base-gid
        // waiters for first-contact fetches.
        let reply_gid = match region_key {
            Some((base, region)) => self.chunks[&base].region_gid(region),
            None => gid,
        };
        self.send(
            node,
            Msg::ObjState { gid: reply_gid, class: class.0, state, version, applied, to_thread: thread, offset, chunk_info },
        );
    }

    /// Serialize a slice of an array payload (region responses).
    fn serialize_slice(&mut self, heap: &mut Heap, obj: ObjRef, lo: usize, hi: usize) -> WireState {
        let payload = heap.get(obj).payload.clone();
        match payload {
            ObjPayload::ArrI32(a) => WireState::ArrI32(a[lo..hi].to_vec()),
            ObjPayload::ArrI64(a) => WireState::ArrI64(a[lo..hi].to_vec()),
            ObjPayload::ArrF64(a) => WireState::ArrF64(a[lo..hi].to_vec()),
            ObjPayload::ArrRef(a) => WireState::ArrRef(
                a[lo..hi].iter().map(|v| self.wval_of(heap, *v)).collect(),
            ),
            other => panic!("region slice of non-array payload {other:?}"),
        }
    }

    /// Voluntarily hand an uncontended lock's ownership back to its home
    /// (queues and notices travel as in any transfer). Used at thread
    /// termination for the Thread object's own lock: joiners live where the
    /// thread was created — its home — and then acquire locally. No-op if
    /// the lock is held, contended, granted, or not owned here. Under
    /// scalar timestamps the release defers behind outstanding diff acks,
    /// exactly like a regular transfer (§3.1).
    pub fn release_ownership_to_home(&mut self, _heap: &mut Heap, lock: Gid) {
        if lock.home() == self.id {
            return;
        }
        let Some(ls) = self.locks.get(&lock) else { return };
        if !ls.owned || ls.holder.is_some() || ls.granted_to.is_some() || !ls.request_q.is_empty() {
            return;
        }
        if self.config.mode == ProtocolMode::MtsHlrc && !self.outstanding_acks.is_empty() {
            if !self.deferred_home_releases.contains(&lock) {
                self.deferred_home_releases.push(lock);
                self.note_ack_wait_begin();
            }
            return;
        }
        let ls = self.locks.get_mut(&lock).unwrap();
        let wait_q = std::mem::take(&mut ls.wait_q);
        ls.owned = false;
        ls.forwarded_to = Some(lock.home());
        let notices = self.notices.for_grant(&[]);
        let vc = self.my_vc();
        self.tr(TraceEvent::LockHomeRelease { node: self.id, gid: lock.0 });
        self.send(
            lock.home(),
            Msg::LockGrant {
                lock,
                to_thread: crate::protocol::NO_THREAD,
                resume_wait: false,
                saved_count: 0,
                request_q: Vec::new(),
                wait_q,
                notices,
                vc,
            },
        );
    }

    /// Close the current interval eagerly (used by the runtime when a
    /// thread terminates — thread exit is a release point in the JMM, and
    /// flushing here lets the diff acks overlap with the joiner's incoming
    /// lock request instead of serializing behind it).
    pub fn flush_interval(&mut self, heap: &mut Heap) {
        if !self.dirty.is_empty() || !self.dirty_home.is_empty() {
            self.close_interval(heap);
        }
    }

    // ------------------------------------------------------------------
    // Thread shipping support (used by the runtime)
    // ------------------------------------------------------------------

    /// Share and serialize a thread object for shipping (§2).
    pub fn prepare_spawn(&mut self, heap: &mut Heap, thread_obj: ObjRef, priority: i32) -> Msg {
        let class = heap.get(thread_obj).class;
        let gid = self.share_object(heap, thread_obj);
        let state = self.serialize_state(heap, thread_obj);
        Msg::SpawnThread { thread_gid: gid, class: class.0, state, priority }
    }

    /// Install a shipped thread object, returning its local ref.
    pub fn install_spawned(&mut self, heap: &mut Heap, image: &Image, thread_gid: Gid, class: u32, state: &WireState) -> ObjRef {
        self.install_state(heap, image, thread_gid, ClassId(class), state, 1, &[])
    }
}

/// Clone only `[lo, hi)` of an array payload — the region twin of the §4.3
/// chunked extension. Twinning the whole payload would make the first write
/// to each region cost O(array length) instead of O(chunk).
fn clone_window(p: &ObjPayload, lo: usize, hi: usize) -> ObjPayload {
    match p {
        ObjPayload::ArrI32(v) => ObjPayload::ArrI32(v[lo..hi.min(v.len())].to_vec()),
        ObjPayload::ArrI64(v) => ObjPayload::ArrI64(v[lo..hi.min(v.len())].to_vec()),
        ObjPayload::ArrF64(v) => ObjPayload::ArrF64(v[lo..hi.min(v.len())].to_vec()),
        ObjPayload::ArrRef(v) => ObjPayload::ArrRef(v[lo..hi.min(v.len())].to_vec()),
        other => other.clone(),
    }
}

/// Grow a placeholder array payload to the chunked array's total length.
fn resize_array(heap: &mut Heap, r: ObjRef, total: usize) {
    match &mut heap.get_mut(r).payload {
        ObjPayload::ArrI32(a) => a.resize(total, 0),
        ObjPayload::ArrI64(a) => a.resize(total, 0),
        ObjPayload::ArrF64(a) => a.resize(total, 0.0),
        ObjPayload::ArrRef(a) => a.resize(total, Value::Null),
        other => panic!("resize of non-array payload {other:?}"),
    }
}

/// Allocate a zeroed object of the right *shape* for a class (object /
/// typed array / string), used for placeholder cached copies.
fn alloc_shape(heap: &mut Heap, image: &Image, class: ClassId) -> ObjRef {
    for elem in [ElemTy::I32, ElemTy::I64, ElemTy::F64, ElemTy::Ref] {
        if image.array_class(elem) == class {
            return heap.alloc_array(class, elem, 0);
        }
    }
    if class == image.string_class {
        return heap.alloc_str(class, "".into());
    }
    let zeros = image.class(class).zeroed_fields();
    heap.alloc_object(class, zeros.len(), zeros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_mjvm::builder::ProgramBuilder;
    use jsplit_mjvm::instr::Ty;

    /// Two-node micro-cluster: independent heaps, one shared image, and a
    /// synchronous message pump standing in for the runtime's scheduler.
    struct Pump {
        image: Image,
        heaps: Vec<Heap>,
        nodes: Vec<DsmNode>,
        wakes: Vec<Vec<ThreadUid>>,
        sends: u64,
    }

    impl Pump {
        fn new(n: usize, mode: ProtocolMode) -> Pump {
            let mut pb = ProgramBuilder::new("M");
            pb.class("Box", "java.lang.Object", |cb| {
                cb.field("a", Ty::I32).field("b", Ty::I32).field("r", Ty::Ref);
            });
            pb.class("M", "java.lang.Object", |cb| {
                cb.static_method("main", &[], None, |m| {
                    m.ret();
                });
            });
            let image = Image::load(&pb.build_with_stdlib()).unwrap();
            let mut heaps = Vec::new();
            let mut nodes = Vec::new();
            for i in 0..n {
                let mut h = Heap::new();
                h.init_statics(&image);
                heaps.push(h);
                nodes.push(DsmNode::new(i as NodeId, DsmConfig { mode, disable_local_locks: false, array_chunk: None }));
            }
            Pump { image, heaps, nodes, wakes: vec![Vec::new(); n], sends: 0 }
        }

        fn alloc_box(&mut self, node: usize) -> ObjRef {
            let cid = self.image.class_id("Box").unwrap();
            let zeros = self.image.class(cid).zeroed_fields();
            self.heaps[node].alloc_object(cid, zeros.len(), zeros)
        }

        /// Deliver all pending messages (round-trip encode/decode included)
        /// until quiescent. Returns the number of messages delivered.
        fn pump(&mut self) -> u64 {
            let mut delivered = 0;
            loop {
                let mut any = false;
                for i in 0..self.nodes.len() {
                    for a in self.nodes[i].drain_actions() {
                        any = true;
                        match a {
                            Action::Wake { thread } => self.wakes[i].push(thread),
                            Action::Send { dst, msg } => {
                                delivered += 1;
                                self.sends += 1;
                                let decoded = Msg::decode(msg.encode()).expect("wire round-trip");
                                let d = dst as usize;
                                let (heap, node) = (&mut self.heaps[d], &mut self.nodes[d]);
                                node.handle(heap, &self.image, decoded);
                            }
                        }
                    }
                }
                if !any {
                    break;
                }
            }
            delivered
        }

        fn set_field(&mut self, node: usize, obj: ObjRef, slot: usize, v: i32) {
            // Emulates DsmCheckWrite + PutField.
            let out = self.nodes[node].check_write(&mut self.heaps[node], 0, obj, None);
            assert_eq!(out, AccessOutcome::Hit, "write miss in helper");
            match &mut self.heaps[node].get_mut(obj).payload {
                ObjPayload::Fields(f) => f[slot] = Value::I32(v),
                _ => unreachable!(),
            }
        }

        fn get_field(&mut self, node: usize, thread: ThreadUid, obj: ObjRef, slot: usize) -> Option<i32> {
            match self.nodes[node].check_read(&mut self.heaps[node], thread, obj, None) {
                AccessOutcome::Hit => match &self.heaps[node].get(obj).payload {
                    ObjPayload::Fields(f) => Some(f[slot].as_i32()),
                    _ => unreachable!(),
                },
                AccessOutcome::Miss => None,
            }
        }
    }

    fn modes() -> [ProtocolMode; 2] {
        [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc]
    }

    #[test]
    fn local_lock_fast_path_never_communicates() {
        for mode in modes() {
            let mut p = Pump::new(2, mode);
            let o = p.alloc_box(0);
            for _ in 0..10 {
                assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o), LockOutcome::EnteredLocal);
            }
            for _ in 0..10 {
                p.nodes[0].monitor_exit(&mut p.heaps[0], 0, o).unwrap();
            }
            assert_eq!(p.pump(), 0, "local locking must be communication-free");
            assert_eq!(p.nodes[0].stats.local_acquires, 10);
            assert!(!p.heaps[0].get(o).dsm.is_shared(), "object stays local");
        }
    }

    #[test]
    fn local_contention_promotes_to_shared() {
        let mut p = Pump::new(1, ProtocolMode::MtsHlrc);
        let o = p.alloc_box(0);
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o), LockOutcome::EnteredLocal);
        // Second thread contends -> promotion + queueing.
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 1, 5, o), LockOutcome::Blocked);
        assert!(p.heaps[0].get(o).dsm.is_shared());
        assert_eq!(p.nodes[0].stats.promotions, 1);
        // Owner releases; thread 1 gets woken and can retry.
        p.nodes[0].monitor_exit(&mut p.heaps[0], 0, o).unwrap();
        p.pump();
        assert_eq!(p.wakes[0], vec![1]);
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 1, 5, o), LockOutcome::EnteredShared);
    }

    #[test]
    fn remote_lock_transfer_carries_writes() {
        for mode in modes() {
            let mut p = Pump::new(2, mode);
            // Node 0 creates and shares a Box, locks it, writes a=41.
            let o0 = p.alloc_box(0);
            let gid = p.nodes[0].share_object(&mut p.heaps[0], o0);
            assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o0), LockOutcome::EnteredShared);
            p.set_field(0, o0, 0, 41);
            p.nodes[0].monitor_exit(&mut p.heaps[0], 0, o0).unwrap();
            p.pump();

            // Node 1 wants the lock: placeholder + remote request.
            let image = &p.image;
            let cid = image.class_id("Box").unwrap().0;
            let o1 = {
                let (heap, node) = (&mut p.heaps[1], &mut p.nodes[1]);
                node.ensure_cached(heap, image, gid, ClassId(cid))
            };
            assert_eq!(p.nodes[1].monitor_enter(&mut p.heaps[1], 7, 5, o1), LockOutcome::Blocked);
            p.pump();
            assert_eq!(p.wakes[1], vec![7], "grant must wake the requester");
            // Retry succeeds.
            assert_eq!(p.nodes[1].monitor_enter(&mut p.heaps[1], 7, 5, o1), LockOutcome::EnteredShared);
            // Inside the critical section the cached copy reads a=41,
            // fetching from home on first access.
            let v = p.get_field(1, 7, o1, 0);
            let v = match v {
                Some(v) => v,
                None => {
                    p.pump();
                    p.get_field(1, 7, o1, 0).expect("valid after fetch reply")
                }
            };
            assert_eq!(v, 41, "mode {mode:?}");
        }
    }

    #[test]
    fn write_notice_invalidates_stale_copy() {
        for mode in modes() {
            let mut p = Pump::new(2, mode);
            let o0 = p.alloc_box(0);
            let gid = p.nodes[0].share_object(&mut p.heaps[0], o0);
            let cid = p.image.class_id("Box").unwrap().0;
            // Node 1 fetches a valid copy first (a=0).
            let o1 = {
                let image = &p.image;
                let (heap, node) = (&mut p.heaps[1], &mut p.nodes[1]);
                node.ensure_cached(heap, image, gid, ClassId(cid))
            };
            assert!(p.get_field(1, 7, o1, 0).is_none());
            p.pump();
            assert_eq!(p.get_field(1, 7, o1, 0), Some(0));

            // Node 0: lock, write a=9, unlock. Node 1 requests the lock.
            assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o0), LockOutcome::EnteredShared);
            p.set_field(0, o0, 0, 9);
            assert_eq!(p.nodes[1].monitor_enter(&mut p.heaps[1], 7, 5, o1), LockOutcome::Blocked);
            p.pump();
            p.nodes[0].monitor_exit(&mut p.heaps[0], 0, o0).unwrap();
            p.pump();
            // Grant arrived: node 1's copy must have been invalidated.
            assert_eq!(p.nodes[1].monitor_enter(&mut p.heaps[1], 7, 5, o1), LockOutcome::EnteredShared);
            assert_eq!(p.heaps[1].get(o1).dsm.state, DsmState::Invalid, "mode {mode:?}");
            assert!(p.nodes[1].stats.invalidations >= 1);
            // Re-read fetches the fresh value.
            assert!(p.get_field(1, 7, o1, 0).is_none());
            p.pump();
            assert_eq!(p.get_field(1, 7, o1, 0), Some(9), "mode {mode:?}");
        }
    }

    #[test]
    fn scalar_mode_waits_for_acks_before_transfer() {
        let mut p = Pump::new(2, ProtocolMode::MtsHlrc);
        // Object homed at node 1; node 0 holds a cached copy and the lock.
        let o1 = p.alloc_box(1);
        let gid = p.nodes[1].share_object(&mut p.heaps[1], o1);
        let cid = p.image.class_id("Box").unwrap().0;
        let o0 = {
            let image = &p.image;
            let (heap, node) = (&mut p.heaps[0], &mut p.nodes[0]);
            node.ensure_cached(heap, image, gid, ClassId(cid))
        };
        // Fetch a valid copy at node 0 and take the lock there.
        assert!(p.get_field(0, 0, o0, 0).is_none());
        p.pump();
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o0), LockOutcome::Blocked);
        p.pump();
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o0), LockOutcome::EnteredShared);
        // Write through the cached copy (twin + dirty).
        p.set_field(0, o0, 1, 13);
        // Node 1 requests the lock back; node 0 releases.
        assert_eq!(p.nodes[1].monitor_enter(&mut p.heaps[1], 9, 5, o1), LockOutcome::Blocked);
        p.pump();
        p.nodes[0].monitor_exit(&mut p.heaps[0], 0, o0).unwrap();
        // The transfer is deferred behind the diff ack.
        assert!(p.nodes[0].stats.releases_awaiting_acks >= 1, "scalar release must await acks");
        p.pump();
        // After the pump: diff applied at home, ack received, grant sent.
        assert_eq!(p.nodes[0].stats.diffs_sent, 1);
        assert_eq!(p.nodes[1].stats.diffs_applied, 1);
        assert_eq!(p.wakes[1], vec![9]);
        assert_eq!(p.nodes[1].monitor_enter(&mut p.heaps[1], 9, 5, o1), LockOutcome::EnteredShared);
        // Home master already has the write.
        assert_eq!(p.get_field(1, 9, o1, 1), Some(13));
    }

    #[test]
    fn classic_mode_transfers_without_ack_wait() {
        let mut p = Pump::new(2, ProtocolMode::ClassicHlrc);
        let o1 = p.alloc_box(1);
        let gid = p.nodes[1].share_object(&mut p.heaps[1], o1);
        let cid = p.image.class_id("Box").unwrap().0;
        let o0 = {
            let image = &p.image;
            let (heap, node) = (&mut p.heaps[0], &mut p.nodes[0]);
            node.ensure_cached(heap, image, gid, ClassId(cid))
        };
        assert!(p.get_field(0, 0, o0, 0).is_none());
        p.pump();
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o0), LockOutcome::Blocked);
        p.pump();
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o0), LockOutcome::EnteredShared);
        p.set_field(0, o0, 1, 13);
        assert_eq!(p.nodes[1].monitor_enter(&mut p.heaps[1], 9, 5, o1), LockOutcome::Blocked);
        p.pump();
        p.nodes[0].monitor_exit(&mut p.heaps[0], 0, o0).unwrap();
        assert_eq!(p.nodes[0].stats.releases_awaiting_acks, 0, "vector timestamps need no ack wait");
        p.pump();
        assert_eq!(p.get_field(1, 9, o1, 1), Some(13));
    }

    #[test]
    fn wait_notify_is_local_to_owner() {
        let mut p = Pump::new(1, ProtocolMode::MtsHlrc);
        let o = p.alloc_box(0);
        // Thread 0 locks and waits.
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o), LockOutcome::EnteredLocal);
        p.nodes[0].obj_wait(&mut p.heaps[0], 0, 5, o).unwrap();
        let before = p.sends;
        // Thread 1 locks (lock free now), notifies, unlocks.
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 1, 5, o), LockOutcome::EnteredShared);
        p.nodes[0].obj_notify(&mut p.heaps[0], 1, o, false).unwrap();
        p.nodes[0].monitor_exit(&mut p.heaps[0], 1, o).unwrap();
        p.pump();
        assert_eq!(p.sends, before, "wait/notify must not communicate");
        // Thread 0 resumed as holder with its saved count.
        assert_eq!(p.wakes[0], vec![0]);
        p.nodes[0].monitor_exit(&mut p.heaps[0], 0, o).unwrap();
    }

    #[test]
    fn priority_wins_the_grant() {
        let mut p = Pump::new(1, ProtocolMode::MtsHlrc);
        let o = p.alloc_box(0);
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o), LockOutcome::EnteredLocal);
        // Low-priority thread 1 queues first, high-priority thread 2 second.
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 1, 1, o), LockOutcome::Blocked);
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 2, 10, o), LockOutcome::Blocked);
        p.nodes[0].monitor_exit(&mut p.heaps[0], 0, o).unwrap();
        p.pump();
        assert_eq!(p.wakes[0], vec![2], "highest priority must be granted first");
    }

    #[test]
    fn notify_on_never_shared_object_is_noop() {
        let mut p = Pump::new(1, ProtocolMode::MtsHlrc);
        let o = p.alloc_box(0);
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o), LockOutcome::EnteredLocal);
        p.nodes[0].obj_notify(&mut p.heaps[0], 0, o, true).unwrap();
        assert!(!p.heaps[0].get(o).dsm.is_shared());
    }

    #[test]
    fn monitor_misuse_is_detected() {
        let mut p = Pump::new(1, ProtocolMode::MtsHlrc);
        let o = p.alloc_box(0);
        assert!(p.nodes[0].monitor_exit(&mut p.heaps[0], 0, o).is_err());
        assert_eq!(p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, o), LockOutcome::EnteredLocal);
        // wait by a non-owner errors (thread 1 does not hold it).
        assert!(p.nodes[0].obj_wait(&mut p.heaps[0], 1, 5, o).is_err());
    }

    #[test]
    fn mts_notice_storage_is_bounded() {
        let mut p = Pump::new(2, ProtocolMode::MtsHlrc);
        let cid = p.image.class_id("Box").unwrap().0;
        // One lock object + 5 data objects homed at node 1, cached at 0.
        let lock1 = p.alloc_box(1);
        let lock_gid = p.nodes[1].share_object(&mut p.heaps[1], lock1);
        let mut data = Vec::new();
        for _ in 0..5 {
            let o = p.alloc_box(1);
            let g = p.nodes[1].share_object(&mut p.heaps[1], o);
            data.push((o, g));
        }
        let image = &p.image;
        let lock0 = {
            let (heap, node) = (&mut p.heaps[0], &mut p.nodes[0]);
            node.ensure_cached(heap, image, lock_gid, ClassId(cid))
        };
        let data0: Vec<ObjRef> = data
            .iter()
            .map(|(_, g)| {
                let (heap, node) = (&mut p.heaps[0], &mut p.nodes[0]);
                node.ensure_cached(heap, image, *g, ClassId(cid))
            })
            .collect();
        // Many rounds of lock ping-pong with writes: notices must stay
        // bounded by the number of CUs (6), not grow with rounds.
        for round in 0..50 {
            // Node 0 takes the lock, writes all data objects, releases.
            while p.nodes[0].monitor_enter(&mut p.heaps[0], 0, 5, lock0) == LockOutcome::Blocked {
                p.pump();
            }
            for (i, &o) in data0.iter().enumerate() {
                if p.get_field(0, 0, o, 0).is_none() {
                    p.pump();
                }
                p.set_field(0, o, 0, round * 10 + i as i32);
            }
            // Node 1 requests, node 0 releases -> transfer.
            if p.nodes[1].monitor_enter(&mut p.heaps[1], 9, 5, lock1) == LockOutcome::Blocked {
                p.nodes[0].monitor_exit(&mut p.heaps[0], 0, lock0).ok();
                p.pump();
            }
            p.pump();
            // Node 1 releases immediately so the next round can reacquire.
            if p.nodes[1].monitor_enter(&mut p.heaps[1], 9, 5, lock1) == LockOutcome::EnteredShared {
                p.nodes[1].monitor_exit(&mut p.heaps[1], 9, lock1).unwrap();
            }
            p.pump();
        }
        assert!(
            p.nodes[0].stats.notices_stored_max <= 6,
            "MTS notices bounded by #CUs, got {}",
            p.nodes[0].stats.notices_stored_max
        );
        assert!(p.nodes[0].stats.diffs_sent > 10, "rounds actually flushed diffs");
    }
}
