//! The backend-agnostic conservative synchronization engine.
//!
//! One [`SyncEngine`] is a node's event loop: drain inbound records →
//! derive a safe virtual-time horizon → execute local events below it →
//! publish progress — the conservative PDES core shared by every parallel
//! backend. Two loops exist, one per sync mode, and each reaches its
//! peers through one small trait:
//!
//! * [`EpochPeers`] — the windowed protocol's one primitive: the per-round
//!   slot exchange.
//! * [`AsyncPeers`] — what the roundless loop ([`SyncEngine::run_async`])
//!   needs: outcome polling, progress reports for the one termination rule
//!   ([`decide_async`]) and the final-flush rendezvous.
//!
//! Whatever the nodes agree on — the folded round, the run's outcome, the
//! end of the final flush — one pure [`Rendezvous`] decides. Both fabrics
//! only carry posts to it and answers back: the threads backend runs it
//! under a lock, with per-destination record counts bumped at send; the
//! sockets coordinator runs it in its relay loop, with counts taken at
//! relay.
//!
//! Peers that share memory also hand the async loop an [`AsyncShared`]:
//! published slots for the snapshot horizon, the §14.3 send-coverage acks
//! and demand-gated doorbells. Without one (sockets) the same loop runs
//! pure per-channel Chandy–Misra–Bryant promises (DESIGN.md §14).
//!
//! # Conservative virtual-time windows
//!
//! Virtual time is the semantic clock (instruction costs, link latencies);
//! only the *execution* is parallel. Every cross-node message carries at
//! least the sender's per-message base latency, so a node can safely
//! process local events up to a horizon no in-flight or future message can
//! undercut.
//!
//! ## Per-pair horizons
//!
//! Horizons are per-pair, built from the published per-node promises
//! (null-message style, [`Horizons::horizon`]): node `j` advances to
//!
//! ```text
//! h_j = min( min_{i≠j} (next_i + base_i),          direct influence
//!            next_j + base_j + min_{i≠j} base_i )  self-echo via a peer
//! ```
//!
//! The first term bounds any chain of causality *starting at a peer*: all
//! of `i`'s sends this round happen at virtual times ≥ `next_i` (what it
//! runs this round was queued at ≥ `next_i` — an early frame, below, waits
//! above the horizon — and every effect of an event at `t` is stamped
//! ≥ `t`), so anything reaching `j` — directly or through other nodes,
//! which only add nonnegative hops — arrives ≥ `next_i + base_i`.
//! The second term bounds chains starting at `j` itself: `j`'s earliest
//! send leaves at ≥ `next_j`, needs `base_j` to reach any peer and at
//! least the cheapest peer base to come back. Without it a two-hop echo
//! through an idle peer (`next_i = ∞`) could arrive inside an unbounded
//! window. Idle peers otherwise cost nothing — `∞ + base` never binds —
//! which is what lets lightly-coupled topologies run long windows.
//!
//! Within a window nodes run concurrently on real CPUs (the wall-clock
//! speedup), yet each node's virtual-time execution is identical to what
//! the sequential simulator would do — program output and protocol
//! counters match the sim backend under every backend and sync mode
//! (asserted by the cross-backend differential tests). The
//! residual freedom is tie-ordering of *distinct nodes'* events at exactly
//! equal virtual times, which the deterministic key resolves run-to-run
//! reproducibly.
//!
//! ## One exchange per epoch round
//!
//! A round is `flush → exchange → drain → decide → execute`. To decide,
//! every node needs every node's *post-drain* queue head `next_i`, yet
//! nobody has drained when the slots cross: each node publishes its
//! pre-drain head plus `min_out[d]`, the earliest delivery time of any
//! record it framed for `d` in the closing window, and [`Rendezvous`]
//! rebuilds `next_i = min(head_i, min_s min_out_s[i])` — exactly `i`'s
//! queue head once it drains, because the exchange returns only after
//! every peer's flush is in `i`'s inbound channel.
//!
//! *Early frames.* With one meeting per round a fast node can run window
//! `r` and flush before a slow peer's round-`r` drain, which then picks up
//! round-`r+1` records (never later ones: the fast node cannot leave
//! exchange `r+1` before the slow one entered it). Harmless: such a record
//! was sent at ≥ its sender's `next`, so it delivers at or above the
//! receiver's round-`r` horizon and is not run in window `r`; and its
//! `(time, step, lane)` key — unique among remote records, as per-pair
//! deliveries strictly increase — orders it the same whichever drain
//! queued it. The receiver's folded `next` is then an upper bound on its
//! queue head instead of equal to it.

use crate::config::ClusterConfig;
use crate::driver::{self, EventQueue, Host, NodeEv};
use crate::env::CONSOLE_NODE;
use crate::node::{Effect, LocalEv, NodeRuntime};
use crate::report::NodeResult;
use jsplit_dsm::Msg;
use jsplit_mjvm::heap::ThreadUid;
use jsplit_net::{ChannelEndpoint, NodeId};
use jsplit_trace::{
    Event, FlightRecorder, FlightTag, Metric, MetricsRegistry, NodeWallProfile, SpanKind, SpanRecorder,
    TraceEvent, TraceSink,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The lookahead tables every horizon decision reads — backend-independent
/// cluster constants, owned (small vectors) by each node's engine.
#[derive(Debug, Clone)]
pub(crate) struct Horizons {
    /// Per-sender zero-byte latency (ps): the lookahead each node's
    /// promise is extended by.
    pub base_ps: Vec<u64>,
    /// `min_{i≠j} base_ps[i]` per node `j` (the self-echo return hop).
    pub min_peer_base: Vec<u64>,
    pub max_ops: u64,
}

impl Horizons {
    /// The lookahead tables of a run of `config`, from its nodes' link
    /// models.
    pub fn of(config: &ClusterConfig) -> Horizons {
        let base_ps = config
            .nodes
            .iter()
            .map(|s| {
                let l = driver::link_params(*s);
                // The loopback bound is profile-derived and must sit below
                // every conservative horizon built from base latencies — the
                // clamp in `loopback_ps` guarantees it; this makes the
                // assumption explicit.
                assert!(l.loopback_ps() <= l.base_ps(), "loopback bound {} ps above link base {} ps", l.loopback_ps(), l.base_ps());
                l.base_ps()
            })
            .collect();
        Horizons::new(base_ps, config.max_ops)
    }

    /// Derive the cluster's lookahead tables from its per-node base
    /// latencies.
    pub fn new(base_ps: Vec<u64>, max_ops: u64) -> Horizons {
        let n = base_ps.len();
        let min_peer_base = (0..n)
            .map(|j| {
                base_ps
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != j)
                    .map(|(_, b)| *b)
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .collect();
        Horizons { base_ps, min_peer_base, max_ops }
    }

    /// Node `me`'s safe horizon given every node's earliest possible send
    /// time `next_of(i)` (module docs give the argument): the minimum of
    /// each peer's `next_i + base_i` and the self-echo `next_me + base_me +
    /// min_peer_base`. Idle peers (`next = ∞`) saturate and never bind; a
    /// single node has `min_peer_base = ∞`, i.e. one unbounded window.
    pub fn horizon(&self, me: usize, next_of: impl Fn(usize) -> u64) -> u64 {
        let mut h =
            next_of(me).saturating_add(self.base_ps[me]).saturating_add(self.min_peer_base[me]);
        for (i, &base) in self.base_ps.iter().enumerate() {
            if i != me {
                h = h.min(next_of(i).saturating_add(base));
            }
        }
        h
    }
}

/// One node's per-round aggregates under epoch sync: the values every node
/// publishes before its drain and reads, folded, from every peer before
/// deciding. The quintuple is what crosses backends — a post under a lock
/// in the threads backend, an explicit `Slot` wire record over sockets.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochSlot {
    /// As published: the earliest local event before this round's drain.
    /// As read (folded with every sender's `min_out`): the earliest after
    /// it — a lower bound on the virtual time of *any* future send by this
    /// node (`u64::MAX` if idle). Non-decreasing across rounds.
    pub next_event: u64,
    pub live: u64,
    /// Cumulative `SpawnThread` messages sent / installed (their difference
    /// is the cluster-wide in-flight count — the sim's `in_flight` sum).
    pub spawns_sent: u64,
    pub spawns_recv: u64,
    pub ops: u64,
}

impl EpochSlot {
    /// What a round's accumulator starts from: nothing queued or counted.
    pub const IDLE: EpochSlot = EpochSlot { next_event: u64::MAX, live: 0, spawns_sent: 0, spawns_recv: 0, ops: 0 };

    /// The quintuple in wire order (`jsplit_net::tcp::SlotWire`).
    pub fn to_array(self) -> [u64; 5] {
        [self.next_event, self.live, self.spawns_sent, self.spawns_recv, self.ops]
    }

    pub fn from_array(w: [u64; 5]) -> EpochSlot {
        EpochSlot { next_event: w[0], live: w[1], spawns_sent: w[2], spawns_recv: w[3], ops: w[4] }
    }
}

/// The epoch protocol's synchronization seam: one rendezvous per round
/// (module docs, "One exchange per epoch round").
pub(crate) trait EpochPeers {
    /// Publish this node's round record — its pre-drain `slot` and the
    /// window's `min_out` — and return once `out` holds all `n` folded
    /// slots for the round: the same values on every node, so every node
    /// derives the same decision. Everything a peer flushed before its own
    /// call is inbound here on return. `before_park` runs once, after any
    /// spin budget and before the blocking path — the engine hangs
    /// profiling marks and the parked gauge there. Returns whether the
    /// wait blocked.
    fn exchange(
        &mut self,
        round: u64,
        slot: &EpochSlot,
        min_out: &[u64],
        out: &mut [EpochSlot],
        before_park: &mut dyn FnMut(),
    ) -> bool;
}

/// The epoch round's termination rule (DESIGN.md §12.1), which every node
/// evaluates on the same folded round: FINISH once no thread is live or in
/// flight (a main that exits right after `start()` must not end the run),
/// ABORT past the op budget, DEADLOCK when live threads have no event
/// anywhere — what was sent was flushed before the exchange and drained
/// after it, so nothing can ever run again.
pub(crate) fn decide_epoch(slots: &[EpochSlot], max_ops: u64) -> Option<u64> {
    let sum = |f: fn(&EpochSlot) -> u64| slots.iter().map(f).sum::<u64>();
    if sum(|s| s.live) == 0 && sum(|s| s.spawns_sent) == sum(|s| s.spawns_recv) {
        Some(run_outcome::FINISH)
    } else if sum(|s| s.ops) > max_ops {
        Some(run_outcome::ABORT)
    } else {
        slots.iter().all(|s| s.next_event == u64::MAX).then_some(run_outcome::DEADLOCK)
    }
}

/// One node's progress report under async sync: its bare queue head
/// (`u64::MAX` when nothing is queued), the data records it has drained
/// so far, its live threads and its retired ops. Filed only after a flush,
/// so every record it accounts for is already on its way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AsyncState {
    pub qhead: u64,
    pub drained: u64,
    pub live: u64,
    pub ops: u64,
}

/// What the roundless async loop needs from its peers (DESIGN.md §14.2).
/// Both backends implement it around a [`Rendezvous`]; they differ only in
/// where the per-destination record counts are taken.
pub(crate) trait AsyncPeers {
    /// Has the run's outcome been decided? Non-blocking; returns an
    /// [`run_outcome`] value once it has.
    fn poll_done(&mut self) -> Option<u64>;
    /// File this node's latest report with the termination rule. Returns
    /// whether *this* report decided the run: the caller then owes parked
    /// peers a wakeup.
    fn send_state(&mut self, state: AsyncState) -> bool;
    /// Final-flush rendezvous: announce this node's last flush, block
    /// until every node's leftovers are in our inbound channel.
    fn flush_rendezvous(&mut self);
}

/// Run-outcome values: what [`decide_epoch`] and [`decide_async`] return,
/// [`AsyncPeers::poll_done`] reports and the sockets backend's `Done`
/// envelope carries.
pub(crate) mod run_outcome {
    pub const RUNNING: u64 = 0;
    pub const FINISH: u64 = 1;
    pub const DEADLOCK: u64 = 2;
    pub const ABORT: u64 = 3;
}

/// The one async termination rule (DESIGN.md §14.2), over every node's
/// latest report and `fwd_to(w)`, the data records sent toward node `w`
/// counted before any of them could be drained. ABORT as soon as the
/// reported ops exceed the budget; FINISH or DEADLOCK once every node has
/// reported, is idle (`qhead == MAX`) and has drained exactly what was
/// sent to it — nothing runnable anywhere and nothing in flight.
/// Evaluating it on each report arrival is enough: a count only moves when
/// a record is sent, and its receiver re-reports once it has drained it.
pub(crate) fn decide_async(states: &[Option<AsyncState>], fwd_to: impl Fn(usize) -> u64, max_ops: u64) -> Option<u64> {
    let ops: u64 = states.iter().flatten().map(|s| s.ops).sum();
    if ops > max_ops {
        return Some(run_outcome::ABORT);
    }
    let mut live = 0u64;
    for (w, st) in states.iter().enumerate() {
        let st = st.as_ref()?;
        if st.qhead != u64::MAX || st.drained != fwd_to(w) {
            return None;
        }
        live += st.live;
    }
    Some(if live == 0 { run_outcome::FINISH } else { run_outcome::DEADLOCK })
}

/// The one place the nodes of a run agree (DESIGN.md §12.1, §14.2): the
/// epoch round's fold, the async termination decision and the final-flush
/// count — pure, no I/O. The sockets coordinator feeds it the envelopes
/// its relay loop dequeues; the threads backend keeps it under a lock.
/// Posts apply one at a time, so exactly one completes a round, decides
/// the run or closes the flush.
pub(crate) struct Rendezvous {
    /// The epoch round in flight. Rounds are lockstep — no node can post
    /// `r+1` before round `r` is handed back — so one accumulator serves.
    round: u64,
    posted: Vec<bool>,
    acc: Vec<EpochSlot>,
    /// Every node's latest async report.
    states: Vec<Option<AsyncState>>,
    max_ops: u64,
    decided: bool,
    flushed: usize,
}

impl Rendezvous {
    pub fn new(n: usize, max_ops: u64) -> Rendezvous {
        Rendezvous {
            round: 1,
            posted: vec![false; n],
            acc: vec![EpochSlot::IDLE; n],
            states: vec![None; n],
            max_ops,
            decided: false,
            flushed: 0,
        }
    }

    /// Fold node `from`'s round record into the round in flight; the n-th
    /// post returns the folded round (valid until the next round's first
    /// post) and opens the next. A record the lockstep rules out — wrong
    /// round, a second post, a `min_out` not sized to the cluster — is
    /// refused (the caller names the node).
    pub fn post_slot(&mut self, from: usize, round: u64, slot: EpochSlot, min_out: &[u64]) -> Result<Option<&[EpochSlot]>, String> {
        let n = self.acc.len();
        if round != self.round || self.posted[from] {
            return Err(format!("posted a slot for round {round} while round {} awaits others", self.round));
        }
        if min_out.len() != n {
            return Err(format!("posted a slot with {} min_out entries in a {n}-node cluster", min_out.len()));
        }
        if !self.posted.contains(&true) {
            self.acc.fill(EpochSlot::IDLE);
        }
        // The record's counters land in its own entry; its pre-drain head
        // and each `min_out[d]` only ever lower a `next_event`. That is
        // order-independent: the fold is the same whoever posts last.
        self.acc[from] = EpochSlot { next_event: self.acc[from].next_event.min(slot.next_event), ..slot };
        for (a, &m) in self.acc.iter_mut().zip(min_out) {
            a.next_event = a.next_event.min(m);
        }
        self.posted[from] = true;
        if self.posted.contains(&false) {
            return Ok(None);
        }
        self.posted.fill(false);
        self.round += 1;
        Ok(Some(&self.acc))
    }

    /// File node `from`'s latest report and evaluate [`decide_async`]:
    /// returns the outcome to the one post that decides the run, `None` to
    /// every other.
    pub fn post_state(&mut self, from: usize, state: AsyncState, fwd_to: impl Fn(usize) -> u64) -> Option<u64> {
        self.states[from] = Some(state);
        if self.decided {
            return None;
        }
        let outcome = decide_async(&self.states, fwd_to, self.max_ops)?;
        self.decided = true;
        Some(outcome)
    }

    /// Count one node's final flush; true on the n-th, when every node's
    /// leftovers are on their way.
    pub fn post_flushed(&mut self) -> bool {
        self.flushed += 1;
        self.flushed == self.states.len()
    }
}

/// What async peers that share one address space can do better (DESIGN.md
/// §14.1, §14.3–14.4): read each other's published queue heads for the
/// snapshot horizon, hand send coverage over through per-pair ack cells,
/// and ring a peer only when it is parked on something a promise unblocks.
/// All accesses are `SeqCst`.
pub(crate) struct AsyncShared {
    pub slots: Vec<AsyncSlot>,
    /// Per-pair drain acknowledgements: `acked[src·n + dst]` counts the
    /// data records from `src` that `dst` has drained into its queue. A
    /// receiver credits its cell *after* republishing its own `next`
    /// (which then covers the drained events); the sender prunes its
    /// `unacked` send-time floor against the cell. Channels are FIFO per
    /// pair, so a bare count identifies exactly which sends are ack'd.
    pub acked: Vec<AtomicU64>,
    /// Data records sent toward each node, bumped before the record can
    /// enter a channel ([`SyncEngine::transmit`]): the in-process twin of
    /// the sockets coordinator's relay counts, read by [`decide_async`].
    pub fwd_to: Vec<AtomicU64>,
}

#[derive(Default)]
pub(crate) struct AsyncSlot {
    /// Pending-aware `next` ([`SyncEngine::async_next`]): earliest queued
    /// event, clamped to the node's in-flight send floor. Horizon input.
    pub next: AtomicU64,
    /// Bare queue head, published alongside `next`: the *executable*
    /// demand signal. A node parked at `qnext` can only be unblocked by a
    /// peer whose delivery bound crosses it — the gate standalone nulls
    /// ride on. (`next` would over-trigger: an in-flight-send floor pins
    /// it below anything the node could actually run.)
    pub qnext: AtomicU64,
    /// True while the node is parked on its inbound channel
    /// ([`SyncEngine::run_async`]'s horizon wait) — the other half of the
    /// demand signal: an awake peer recomputes its horizon from the
    /// published snapshot by itself and needs no frame.
    pub parked: AtomicBool,
}

impl AsyncShared {
    /// Every slot starts at `next = 0`, pinning peers until its node's
    /// first iteration publishes.
    pub fn new(n: usize) -> AsyncShared {
        let counters = |k: usize| (0..k).map(|_| AtomicU64::new(0)).collect();
        AsyncShared { slots: (0..n).map(|_| AsyncSlot::default()).collect(), acked: counters(n * n), fwd_to: counters(n) }
    }
}

/// What one node's engine hands back when the run is over: the node's
/// plain-data result, plus what only an in-process driver can merge.
pub(crate) struct NodeOutcome {
    pub result: NodeResult,
    pub trace: Option<OpenTrace>,
    /// Wall-clock span profile (`None` unless profiling was on).
    pub profile: Option<NodeWallProfile>,
}

/// A finished node's private trace sink, still open, with its leftovers
/// beside it: the DSM tail is stamped at the *global* finish time, which
/// no single node knows.
pub(crate) struct OpenTrace {
    sink: Box<dyn TraceSink + Send>,
    dsm_tail: Vec<TraceEvent>,
    net_tail: Option<Vec<Event>>,
}

impl OpenTrace {
    /// Flush the leftovers at `finish` — exactly the sim's final
    /// `drain_trace_buffers` pass — and drain the sink.
    pub fn close(mut self, finish: u64) -> Vec<Event> {
        driver::flush_trace(self.sink.as_mut(), self.dsm_tail, &mut self.net_tail, finish);
        self.sink.into_events()
    }
}

/// One drained data record awaiting its queue slot:
/// `(deliver, step, src, frame seq, message)`.
type Drained = (u64, u64, NodeId, u64, Msg);

/// Decode one drained record's payload. A frame is peer bytes: one that is
/// not a `Msg` takes this node down naming the sender (on the sockets
/// backend the panic travels to the coordinator as a `Fault`).
fn decode_record(src: NodeId, payload: &[u8]) -> Msg {
    Msg::decode_slice(payload).unwrap_or_else(|e| panic!("malformed message from node {src}: {e}"))
}

/// One node's conservative event loop, generic over how progress crosses
/// node boundaries (see the module docs). The threads backend runs one per
/// OS thread; the sockets backend one per worker process.
pub(crate) struct SyncEngine {
    pub node: NodeRuntime,
    pub endpoint: ChannelEndpoint,
    pub hz: Horizons,
    /// In-process async-mode shared state (`None` under epoch sync and in
    /// the sockets backend). Its presence also arms the send-side counts
    /// in [`SyncEngine::transmit`].
    pub asy: Option<Arc<AsyncShared>>,
    n_nodes: usize,
    /// Strided uid allocation: `id + k·n` — disjoint from every other node
    /// without global coordination. uids are fixed-width on the wire, so
    /// message sizes (and byte counters) match the sim's dense allocation.
    next_uid: ThreadUid,
    /// Local event queue, deterministically ordered by
    /// `(time, step, lane, seq)`: `step` is the virtual time of the event
    /// that produced the entry, `lane` the producing node, `seq` a local
    /// tie-breaker assigned in deterministic order.
    events: EventQueue<(u64, NodeId), NodeEv>,
    fx: Vec<Effect>,
    /// Reused drain staging buffer (sorted per round, never reallocated in
    /// the steady state).
    drain_scratch: Vec<Drained>,
    /// Cumulative data records shipped per destination (async sync);
    /// pairs with [`AsyncShared::acked`] to prune `unacked`.
    sent_to: Vec<u64>,
    /// Send times of records shipped but not yet drained by their
    /// receiver, per destination, in channel (FIFO) order:
    /// `(cumulative send index, virtual send time)`. The oldest front
    /// across all queues is the send-coverage floor every published
    /// `next` is clamped to — the invariant that keeps the async horizon
    /// snapshot valid with records in flight (§14.3).
    unacked: Vec<VecDeque<(u64, u64)>>,
    /// Reused per-drain record counts per source (ack credits).
    ack_scratch: Vec<u64>,
    windows: u64,
    /// Times the safe horizon strictly advanced (async sync only).
    horizon_advances: u64,
    /// This node's private trace sink (`None` = tracing off). Never shared:
    /// recording is a plain method call on thread-local state.
    pub recorder: Option<Box<dyn TraceSink + Send>>,
    /// Wall-clock span profiler (`None` = profiling off: one branch/site).
    pub profiler: Option<SpanRecorder>,
    /// Live-metrics registry (`None` = metrics off: one branch per publish
    /// site). Values go out as single relaxed stores of counters this loop
    /// already maintains — the sampler thread does all derived work.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Flight recorder for recent state transitions (`None` = off).
    pub flight: Option<Arc<FlightRecorder>>,
    /// Watchdog fault injection: sleep this many wall-clock ms before the
    /// first async iteration, pinning peers on our unpublished promise.
    pub stall_inject_ms: Option<u64>,
    /// Cross-process telemetry pump (`None` outside the sockets backend):
    /// ships this node's registry row toward the coordinator as a
    /// `Metrics` envelope. Invoked from the engine thread only — so the
    /// envelope never interleaves with the frame/control stream — at the
    /// same points the registry is published. Rate limiting lives in the
    /// closure, not here; `true` bypasses it (the end-of-run sample must
    /// reach the coordinator so whole-run rates come out right).
    pub metrics_pump: Option<Box<dyn FnMut(bool) + Send>>,
    /// Thread start instant, set by the node thread itself; `wall_ns` is
    /// measured from it independently of the span accounting.
    pub t0: Instant,
}

impl SyncEngine {
    /// Build an engine around a node and its endpoint for a run of
    /// `config`. The instruments that need a handle shared with the driver
    /// (async state, metrics, flight recorder) start disabled — drivers arm
    /// the ones their configuration asks for.
    pub fn new(node: NodeRuntime, endpoint: ChannelEndpoint, config: &ClusterConfig) -> SyncEngine {
        let n_nodes = config.nodes.len();
        SyncEngine {
            next_uid: node.id as ThreadUid,
            stall_inject_ms: config
                .metrics
                .as_ref()
                .and_then(|c| c.stall_inject)
                .filter(|&(stalled, _)| stalled == node.id)
                .map(|(_, ms)| ms),
            node,
            endpoint,
            hz: Horizons::of(config),
            asy: None,
            n_nodes,
            events: EventQueue::new(),
            fx: Vec::new(),
            drain_scratch: Vec::new(),
            sent_to: vec![0; n_nodes],
            unacked: (0..n_nodes).map(|_| VecDeque::new()).collect(),
            ack_scratch: vec![0; n_nodes],
            windows: 0,
            horizon_advances: 0,
            recorder: config.trace.map(jsplit_trace::make_sink),
            profiler: None,
            metrics: None,
            flight: None,
            metrics_pump: None,
            t0: Instant::now(),
        }
    }

    /// The first thing a node's own thread (or process) does. Wall time
    /// and the span profiler (`spans`: the driver's shared origin, and
    /// whether to keep raw spans) are anchored here, so thread-spawn
    /// latency stays outside the profile. The guest `main` starts on
    /// worker 0 (§2), before the first synchronization point so the first
    /// published snapshot counts it. Set-up activity (statics bootstrap,
    /// class shipping) is part of the trace: stamp it at t = 0 like the sim.
    pub fn start(&mut self, spans: Option<(Instant, bool)>) {
        self.t0 = Instant::now();
        self.profiler = spans.map(|(origin, keep)| SpanRecorder::new(origin, keep));
        if self.endpoint.id == CONSOLE_NODE {
            self.start_main();
        }
        self.flush_trace(self.endpoint.id, 0);
    }

    /// Close the wall-profile segment since the previous boundary as
    /// `kind` (no-op when profiling is off).
    #[inline]
    fn mark(&mut self, kind: SpanKind) {
        if let Some(p) = &mut self.profiler {
            p.mark(kind);
        }
    }

    /// Log one flight-recorder transition (no-op when disabled).
    #[inline]
    fn fly(&self, tag: FlightTag, a: u64, b: u64) {
        if let Some(f) = &self.flight {
            f.log(self.endpoint.id, tag, a, b);
        }
    }

    /// The one way a node blocks on its peers — the epoch exchange and both
    /// async horizon waits go through here, so none can park without the
    /// `Parked` gauge the stall watchdog insists on seeing before it blames
    /// anyone. `wait` runs the blocking primitive: it gets the endpoint and
    /// a hook to call once, right before it really blocks, and says whether
    /// it did. The hook closes the wall-profile segment so far as `spans.0`,
    /// raises the gauge, logs a flight `Park(a, b)` and offers the row to
    /// the cross-process pump — the only moment a coordinator can be shown
    /// `Parked = 1`, since the pump runs on this thread; a wait that blocked
    /// then lowers the gauge, logs `Unpark(a, b)` and closes as `spans.1`.
    /// (Callers refresh the other gauges first where those can be stale.)
    fn park(
        &mut self,
        (a, b): (u64, u64),
        spans: (SpanKind, SpanKind),
        wait: impl FnOnce(&mut ChannelEndpoint, &mut dyn FnMut()) -> bool,
    ) {
        let me = self.endpoint.id;
        let (profiler, metrics, flight, pump) = (&mut self.profiler, &self.metrics, &self.flight, &mut self.metrics_pump);
        let parked = wait(&mut self.endpoint, &mut || {
            if let Some(p) = profiler {
                p.mark(spans.0);
            }
            if let Some(reg) = metrics {
                reg.set(me, Metric::Parked, 1);
            }
            if let Some(f) = flight {
                f.log(me, FlightTag::Park, a, b);
            }
            if let Some(pump) = pump {
                pump(false);
            }
        });
        if parked {
            if let Some(reg) = &self.metrics {
                reg.set(me, Metric::Parked, 0);
            }
            self.fly(FlightTag::Unpark, a, b);
        }
        self.mark(if parked { spans.1 } else { spans.0 });
    }

    /// Publish this node's registry cells: one relaxed store per value, of
    /// counters the loop already maintains. Called at points the hot path
    /// visits anyway (epoch round decision, async burst publish, pre-park);
    /// with metrics off the whole thing is one untaken branch.
    fn publish_metrics(&self, horizon: u64, next: u64, qnext: u64) {
        let Some(reg) = &self.metrics else {
            return;
        };
        let me = self.endpoint.id;
        reg.set(me, Metric::Windows, self.windows);
        reg.set(me, Metric::HorizonAdvances, self.horizon_advances);
        let fs = &self.endpoint.frame_stats;
        reg.set(me, Metric::FramesSent, fs.frames_sent);
        reg.set(me, Metric::NullsSent, fs.nulls_sent + fs.nulls_piggybacked);
        driver::publish_node_cells(reg, &self.node, &self.endpoint.stats, [horizon, next, qnext]);
    }

    /// Ship the registry row cross-process (no-op when no pump is armed).
    #[inline]
    fn pump_metrics(&mut self, force: bool) {
        if let Some(f) = &mut self.metrics_pump {
            f(force);
        }
    }

    /// Drain inbound frames into the local queue. Records decode in place
    /// from the frame buffers (which return to their senders' pools).
    fn drain_inbox(&mut self) {
        let mut batch = std::mem::take(&mut self.drain_scratch);
        self.endpoint.drain_frames(&mut |src, _kind, deliver_ps, step_ps, seq, payload| {
            batch.push((deliver_ps, step_ps, src, seq, decode_record(src, payload)));
        });
        self.enqueue_drained(batch);
    }

    /// The tail of every drain: arrival interleaving across senders is
    /// scheduler noise, so order the staged records by their virtual-time
    /// key before they take local sequence numbers, then hand the (empty)
    /// staging buffer back.
    fn enqueue_drained(&mut self, mut batch: Vec<Drained>) {
        batch.sort_unstable_by_key(|&(deliver, step, src, seq, _)| (deliver, step, src, seq));
        for (deliver, step, src, _, msg) in batch.drain(..) {
            self.events.push(deliver, (step, src), NodeEv::Deliver { src, msg });
        }
        self.drain_scratch = batch;
    }

    /// Execute every queued event strictly below `horizon` (shared by
    /// every sync mode), calling `every_256` after each 256th so a long
    /// burst can keep refreshing the promises peers hang on. Returns the
    /// number of events executed — early once this node alone has spent
    /// the `max_ops` budget, which an unbounded window (a lone node) would
    /// otherwise never give the abort decision a chance to see.
    fn run_below(&mut self, horizon: u64, mut every_256: impl FnMut(&mut Self)) -> u64 {
        let mut burst = 0u64;
        let me = self.endpoint.id;
        while let Some((time, ev)) = self.events.pop_below(horizon) {
            self.process(time, me, ev);
            burst += 1;
            if self.node.ops > self.hz.max_ops {
                break;
            }
            if burst.is_multiple_of(256) {
                every_256(self);
            }
        }
        burst
    }

    /// The epoch-sync body: rounds of flush → exchange → drain → identical
    /// decision → process-window (module docs), until the cluster-wide
    /// decision says stop. Backend-independent: the one synchronization
    /// primitive goes through `peers`.
    pub fn run_epoch(mut self, peers: &mut dyn EpochPeers) -> NodeOutcome {
        let me = self.endpoint.id as usize;
        let n = self.n_nodes;
        let mut round: u64 = 0;
        let mut slots = vec![EpochSlot::default(); n];
        let mut min_out = vec![u64::MAX; n];
        let outcome = loop {
            round += 1;
            // Span accounting (when on) is boundary-chained: each `mark`
            // closes the segment since the previous boundary, so the
            // categories tile this thread's wall time with no gaps. The
            // mark here attributes everything since the last horizon
            // decision — window processing, plus bootstrap on round 1 — to
            // Execute.
            self.mark(SpanKind::Execute);
            // Everything this node sent in the previous window (and during
            // bootstrap) ships now, ahead of the slot that accounts for it.
            self.endpoint.flush();
            self.mark(SpanKind::FrameFlush);
            let slot = EpochSlot {
                next_event: self.queue_head(),
                live: self.node.live() as u64,
                spawns_sent: self.node.placement.shipped(),
                spawns_recv: self.node.placement.installed(),
                ops: self.node.ops,
            };
            self.endpoint.take_min_out(&mut min_out);
            self.fly(FlightTag::EpochPublish, round, slot.next_event);
            // The round's one rendezvous: every node then derives the same
            // global decision from the same folded values. Attribution
            // splits at the first park: time up to it is SlotSpin, the
            // remainder CondvarWait.
            self.park((round, slot.next_event), (SpanKind::SlotSpin, SpanKind::CondvarWait), |_, before_park| {
                peers.exchange(round, &slot, &min_out, &mut slots, before_park)
            });
            // Every peer flushed before it published, so the whole closing
            // window is inbound. Draining *before* deciding is
            // load-bearing: a message missed here could fall inside a
            // later (wider) horizon.
            self.drain_inbox();
            self.mark(SpanKind::InboxDrain);
            let next = slots[me].next_event;
            debug_assert!(self.queue_head() <= next, "folded next {next} below the drained queue head");
            if let Some(outcome) = decide_epoch(&slots, self.hz.max_ops) {
                break outcome;
            }
            self.windows += 1;
            // The safe horizon: no message can be delivered to this node
            // below it.
            let horizon = self.hz.horizon(me, |i| slots[i].next_event);
            if let Some(p) = &mut self.profiler {
                p.mark(SpanKind::Decide);
                // (Some node has an event: the round did not deadlock.)
                let min_next = slots.iter().map(|s| s.next_event).min().unwrap_or(u64::MAX);
                if horizon != u64::MAX {
                    p.window_ps.record(horizon - min_next);
                }
            }
            self.publish_metrics(horizon, next, next);
            self.pump_metrics(false);
            self.run_below(horizon, |_| {});
        };
        self.fly(FlightTag::Decide, outcome, round);
        self.finish_outcome(outcome)
    }

    /// Publish the closing sample, close the final profiling segment (the
    /// decision that broke the loop), reconcile against the independently
    /// measured thread wall time, and package the outcome (shared by every
    /// sync mode).
    fn finish_outcome(mut self, outcome: u64) -> NodeOutcome {
        // End-of-run counters, so whole-run mean rates come out right (the
        // horizon gauge goes to ∞: the run is over, nothing lags anything);
        // forced past the cross-process pump's rate limit.
        self.publish_metrics(u64::MAX, self.async_next(), self.queue_head());
        self.pump_metrics(true);
        let profile = self.profiler.take().map(|mut rec| {
            rec.mark(SpanKind::Decide);
            let wall_ns = u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut p = rec.finish(self.endpoint.id, wall_ns);
            if let Some(h) = self.endpoint.frame_hist.take() {
                p.frame_bytes = h;
            }
            p
        });
        let trace = self.recorder.take().map(|sink| OpenTrace {
            sink,
            dsm_tail: self.node.take_dsm_trace(),
            net_tail: self.endpoint.trace.take(),
        });
        let result = NodeResult {
            deadlocked: outcome == run_outcome::DEADLOCK,
            aborted: outcome == run_outcome::ABORT,
            slab_high_water: self.events.high_water(),
            windows: self.windows,
            horizon_advances: self.horizon_advances,
            frames: self.endpoint.frame_stats,
            ..self.node.into_result(self.endpoint.stats)
        };
        NodeOutcome { result, trace, profile }
    }

    /// This node's pending-aware `next` (async sync): the earliest local
    /// event, clamped to the send time of the oldest record we shipped
    /// whose receiver has not drained it yet. Publishing this — never the
    /// bare queue head — is the send-coverage invariant (§14.3): a record
    /// in flight is always covered by its *sender's* published `next`,
    /// which is what keeps the snapshot horizon valid with traffic in
    /// flight, without any global quiescence check.
    fn async_next(&self) -> u64 {
        let floor = self.unacked.iter().filter_map(|u| u.front().map(|&(_, t)| t)).min().unwrap_or(u64::MAX);
        self.queue_head().min(floor)
    }

    /// Bare earliest queued event — the node's *executable* demand, as
    /// opposed to the coverage-clamped [`Self::async_next`]. Published as
    /// `qnext` so peers can tell "parked on a runnable event" from
    /// "floor merely pinned by an un-drained send".
    fn queue_head(&self) -> u64 {
        self.events.head()
    }

    /// Drop receiver-acknowledged records from the send-coverage floor.
    /// Channels are FIFO per pair, so the receiver's drain count
    /// identifies exactly the prefix of `unacked` whose coverage has
    /// passed to the receiver's published `next`.
    fn prune_acked(&mut self, asy: &AsyncShared) {
        let me = self.endpoint.id as usize;
        let n = self.n_nodes;
        for dst in 0..n {
            if self.unacked[dst].is_empty() {
                continue;
            }
            let a = asy.acked[me * n + dst].load(Ordering::SeqCst);
            while self.unacked[dst].front().is_some_and(|&(c, _)| c <= a) {
                self.unacked[dst].pop_front();
            }
        }
    }

    /// Drain inbound frames under async sync: data records merge into the
    /// event queue exactly as [`SyncEngine::drain_inbox`], and additionally
    /// advance the per-peer channel clocks — a data record's delivery time
    /// is itself a promise (per-link deliveries are strictly increasing),
    /// a null record carries one explicitly.
    /// Returns the number of data records drained (null promises are not
    /// counted — a drain that only moved promises leaves the termination
    /// report unchanged).
    fn drain_inbox_async(&mut self, chan: &mut [u64]) -> u64 {
        let mut batch = std::mem::take(&mut self.drain_scratch);
        let mut records = 0u64;
        let drained = self.endpoint.drain_frames_with_nulls(
            &mut |src, _kind, deliver_ps, step_ps, seq, payload| {
                batch.push((deliver_ps, step_ps, src, seq, decode_record(src, payload)));
                records += 1;
            },
            &mut |src, promise| {
                let c = &mut chan[src as usize];
                *c = (*c).max(promise);
            },
        );
        drained.unwrap_or_else(|e| panic!("{e}"));
        for &(deliver, _, src, _, _) in batch.iter() {
            let c = &mut chan[src as usize];
            *c = (*c).max(deliver);
            self.ack_scratch[src as usize] += 1;
        }
        self.enqueue_drained(batch);
        if records > 0 {
            if let Some(asy) = self.asy.clone() {
                // Accounting order is load-bearing for §14.3: republish our
                // `next` (now covering the drained events) *before*
                // crediting the per-pair ack cells — a sender that prunes
                // its coverage floor must already see the handoff in our
                // published slot. (Without shared slots the per-channel
                // promise discipline alone carries coverage.)
                let me = self.endpoint.id as usize;
                let n = self.n_nodes;
                self.publish_slot(&asy);
                for src in 0..n {
                    let k = std::mem::replace(&mut self.ack_scratch[src], 0);
                    if k == 0 {
                        continue;
                    }
                    asy.acked[src * n + me].fetch_add(k, Ordering::SeqCst);
                    // Doorbell: the sender's published `next` may be pinned
                    // at these records' send times, capping every horizon in
                    // the cluster. If it is parked it cannot prune by itself
                    // — wake it (value 0 is a no-op promise, pure wakeup).
                    if asy.slots[src].parked.load(Ordering::SeqCst) {
                        self.endpoint.push_null(src as NodeId, 0);
                    }
                }
            } else {
                for k in self.ack_scratch.iter_mut() {
                    *k = 0;
                }
            }
        }
        records
    }

    /// Ship this node's promise to peers whose horizon may hang on it
    /// (async sync). The promise is `min(pending-aware next, input
    /// horizon) + lookahead`: a bound on the delivery time of anything we
    /// may still send — future sends are triggered either by a queued
    /// event (≥ `next`), by an in-flight record of ours (≥ its send time,
    /// the `async_next` floor), or by a future arrival (≥ the input
    /// horizon), and cost at least the lookahead in flight. Only strict
    /// increases ship: a promise never retracts. Per-pair FIFO keeps it
    /// sound with records in flight: a promise written after a data record
    /// can only be read after it.
    ///
    /// Without shared slots, promises are the only way a peer's channel
    /// clock advances, so every increase ships to every peer (classic eager
    /// Chandy–Misra–Bryant). With them ([`AsyncShared`]), every peer can
    /// compute the snapshot horizon itself ([`SyncEngine::snapshot_horizon`]),
    /// so nulls are *doorbells*: a standalone null ships only to a peer
    /// that is parked on a runnable event (`qnext < ∞`), and only at the
    /// *crossing* — the first promise that lifts our delivery bound past
    /// the peer's executable head. Below the head our term cannot be what
    /// unblocks it; above the head it already is not what blocks it. The
    /// peer whose term is the last to cross is by definition the blocker,
    /// and its crossing frame is the wakeup that matters; a crossing that
    /// happens while the peer is awake (ring skipped) is covered by the
    /// peer's own pre-park snapshot peek, and any residual race by its
    /// park timeout.
    fn refresh_promises(&mut self, asy: Option<&AsyncShared>, promised: &mut [u64], horizon: u64) {
        let me = self.endpoint.id as usize;
        let promise = self.async_next().min(horizon).saturating_add(self.hz.base_ps[me]);
        for (dst, sent) in promised.iter_mut().enumerate() {
            if dst == me || promise <= *sent {
                continue;
            }
            if let Some(asy) = asy {
                let slot = &asy.slots[dst];
                let qn = slot.qnext.load(Ordering::SeqCst);
                // Crossing rule: `*sent ≤ qn < promise`, i.e. this frame is
                // the one that first clears the peer's head.
                if qn == u64::MAX || *sent > qn || promise <= qn || !slot.parked.load(Ordering::SeqCst) {
                    continue;
                }
            }
            self.endpoint.push_null(dst as NodeId, promise);
            *sent = promise;
        }
    }

    /// Poke every peer with a (possibly repeated) null so that anyone
    /// parked on the inbound channel wakes immediately — owed by the node
    /// whose report decided the run, since doorbell gating means nobody
    /// else may be about to send them anything.
    fn wake_peers(&mut self, promised: &[u64]) {
        let me = self.endpoint.id as usize;
        for (dst, &sent) in promised.iter().enumerate() {
            if dst != me {
                self.endpoint.push_null(dst as NodeId, sent);
            }
        }
    }

    /// Publish this node's pending-aware `next` and bare queue head into
    /// its shared slot, if either moved (the first call lifts the initial
    /// 0 that pins every peer until this node has run).
    fn publish_slot(&self, asy: &AsyncShared) {
        let slot = &asy.slots[self.endpoint.id as usize];
        let (next, qhead) = (self.async_next(), self.queue_head());
        if slot.next.load(Ordering::SeqCst) != next || slot.qnext.load(Ordering::SeqCst) != qhead {
            slot.next.store(next, Ordering::SeqCst);
            slot.qnext.store(qhead, Ordering::SeqCst);
            self.fly(FlightTag::BurstPublish, qhead, next);
        }
    }

    /// Epoch-grade horizon from the published snapshot — valid at every
    /// instant, records in flight or not. The published `next` values are
    /// fed to the §12.2 per-pair horizon rule verbatim; our own slot
    /// contributes the live pending-aware `next`.
    ///
    /// Soundness rests on the send-coverage invariant (§14.3): a node's
    /// published `next` is at all times a lower bound on (a) every event
    /// in its queue — drains republish before acking, loopbacks land
    /// above the event being processed — and (b) the send time of
    /// every record it has shipped that is still undrained (`async_next`
    /// clamps to the `unacked` floor, and the floor only lifts after the
    /// receiver's published `next` covers the record — the ack-after-
    /// republish order in [`SyncEngine::drain_inbox_async`]). With every
    /// in-flight record covered by its sender, any future send by node
    /// `i` originates at ≥ its published `next_i`, and the §12.2
    /// induction goes through unchanged — no quiescence, no counter
    /// bracketing. A straggler in a busy cluster advances its horizon with
    /// `n` atomic loads per burst, waking nobody.
    fn snapshot_horizon(&self, asy: &AsyncShared, next_me: u64) -> u64 {
        let me = self.endpoint.id as usize;
        self.hz.horizon(me, |i| if i == me { next_me } else { asy.slots[i].next.load(Ordering::SeqCst) })
    }

    /// The body under `--sync async` on every fabric (DESIGN.md §14): no
    /// rounds. Each iteration drains whatever has arrived, advances the
    /// safe horizon, executes the burst of events strictly below it, ships
    /// pending frames plus null promises, and — when it has nothing left
    /// to run — files a progress report with `peers` and parks on the
    /// inbound channel. The horizon is the minimum of the per-peer channel
    /// clocks, raised by the snapshot horizon when peers share an
    /// [`AsyncShared`] (the engine's one fabric branch).
    pub fn run_async(mut self, peers: &mut dyn AsyncPeers) -> NodeOutcome {
        /// Retired-op quantum between busy-path reports: the only thing
        /// they feed is the `max_ops` abort, so window granularity is enough.
        const OPS_QUANTUM: u64 = 1 << 20;
        let me = self.endpoint.id as usize;
        let asy = self.asy.clone();
        let n = self.n_nodes;
        // chan[p] = channel clock for peer p: no future record from p can
        // deliver below it. Own entry pinned at ∞ so `min` skips it.
        let mut chan = vec![0u64; n];
        chan[me] = u64::MAX;
        let mut promised = vec![0u64; n];
        let mut horizon = 0u64;
        let mut drained = 0u64;
        let mut reported: Option<AsyncState> = None;
        let outcome;
        // Watchdog fault injection: sleep with our initial slot (next = 0)
        // still published — every peer's horizon pins on our promise until
        // we wake. Wall-clock only; virtual-time results are unchanged.
        if let Some(ms) = self.stall_inject_ms.take() {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        loop {
            let records = self.drain_inbox_async(&mut chan);
            drained += records;
            // (A lone node's only clock is its own, pinned at ∞.)
            let mut h = chan.iter().copied().min().unwrap_or(u64::MAX);
            if let Some(asy) = &asy {
                self.prune_acked(asy);
                if n > 1 {
                    // The snapshot horizon is valid at every instant (§14.3
                    // send coverage) — the self-serve path that lets a
                    // straggler climb through its own windows without a
                    // null round-trip or a peer wakeup. Channel clocks can
                    // still exceed it briefly (a data delivery outruns its
                    // sender's republished `next`), so take the max of both.
                    h = h.max(self.snapshot_horizon(asy, self.async_next()));
                }
            }
            self.mark(SpanKind::InboxDrain);
            if h > horizon {
                self.horizon_advances += 1;
                if let Some(p) = &mut self.profiler {
                    if h != u64::MAX {
                        p.window_ps.record(h - horizon);
                    }
                }
                self.fly(FlightTag::HorizonClimb, h, horizon);
                horizon = h;
            }
            self.mark(SpanKind::Decide);
            // A long burst must not starve peers whose horizon hangs on
            // our promise (the skew scenario): refresh periodically as
            // `next` climbs, not just at burst end.
            let burst = self.run_below(horizon, |eng| eng.refresh_promises(asy.as_deref(), &mut promised, horizon));
            if burst > 0 {
                self.windows += 1;
            }
            self.mark(SpanKind::Execute);
            if let Some(asy) = &asy {
                self.publish_slot(asy);
            }
            if records > 0 || burst > 0 {
                // (Quiet iterations publish from the park below.)
                self.publish_metrics(horizon, self.async_next(), self.queue_head());
                self.pump_metrics(false);
            }
            self.refresh_promises(asy.as_deref(), &mut promised, horizon);
            // Flush *before* any report: it must follow every record it
            // accounts for, or the rule could see "all drained" with our
            // records still in the pending buffers (a false quiescence).
            self.endpoint.flush();
            self.mark(SpanKind::FrameFlush);
            if let Some(o) = peers.poll_done() {
                outcome = o;
                break;
            }
            let st = AsyncState {
                qhead: self.queue_head(),
                drained,
                live: self.node.live() as u64,
                ops: self.node.ops,
            };
            // Executable work on the bare queue head: the published `next`
            // may sit below it (pinned by the in-flight floor), and
            // spinning on that would busy-wait for an ack instead of
            // parking for it. A node past the op budget stops running.
            let busy = st.qhead < horizon && st.ops <= self.hz.max_ops;
            // Only an empty queue can complete the rule's FINISH/DEADLOCK
            // test, and only a node over the budget is owed an ABORT right
            // away; anything else just feeds the abort, once per op
            // quantum. A report left stale by a later drain cannot decide:
            // its `drained` trails the count of the records drained since.
            let owed = st.qhead == u64::MAX || st.ops > self.hz.max_ops;
            if reported != Some(st) && (owed || st.ops - reported.map_or(0, |r| r.ops) >= OPS_QUANTUM) {
                reported = Some(st);
                if peers.send_state(st) {
                    self.wake_peers(&promised);
                    continue;
                }
            }
            if busy {
                continue;
            }
            // A burst that raised our published `next` usually raises the
            // snapshot horizon with it (the self-echo term): peek before
            // parking and spin straight into the next window if it moved —
            // the self-serve climb that replaces a null round-trip per
            // window with a handful of atomic loads.
            if let Some(asy) = &asy {
                if n > 1 && self.snapshot_horizon(asy, self.async_next()) > horizon {
                    continue;
                }
            }
            // Park until a peer's data or promise (or the outcome, within
            // the timeout) moves us. The parked bit is the demand signal
            // `refresh_promises` gates doorbells on; raise it only for the
            // wait itself. The registry's gauges refresh right before
            // parking so the watchdog judges the park against current
            // values.
            self.publish_metrics(horizon, self.async_next(), st.qhead);
            self.park((horizon, st.qhead), (SpanKind::Decide, SpanKind::HorizonWait), |endpoint, before_park| {
                before_park();
                let parked = asy.as_ref().map(|a| &a.slots[me].parked);
                if let Some(p) = parked {
                    p.store(true, Ordering::SeqCst);
                }
                endpoint.wait_inbound(std::time::Duration::from_millis(1));
                if let Some(p) = parked {
                    p.store(false, Ordering::SeqCst);
                }
                true
            });
        }
        // Two-phase shutdown: ship anything still pending, rendezvous,
        // then drain leftovers so receive accounting matches the sim
        // (which records both ends at send time). The drained events are
        // dropped unprocessed — exactly the events the sim discards after
        // its termination condition trips.
        self.fly(FlightTag::Decide, outcome, 0);
        self.endpoint.flush();
        peers.flush_rendezvous();
        self.drain_inbox_async(&mut chan);
        self.fly(
            FlightTag::FlushRendezvous,
            self.endpoint.frame_stats.frames_sent,
            self.endpoint.frame_stats.msgs_framed,
        );
        self.finish_outcome(outcome)
    }
}

/// The engine's side of the node event path: one node, its own queue keyed
/// `(time, step, lane, seq)`, encoded bytes over the endpoint, strided
/// uids, a private recorder. (`node`/`src` arguments always name this
/// node.)
impl Host for SyncEngine {
    fn node(&mut self, _id: NodeId) -> &mut NodeRuntime {
        &mut self.node
    }

    fn fx(&mut self) -> &mut Vec<Effect> {
        &mut self.fx
    }

    fn schedule(&mut self, node: NodeId, time: u64, step: u64, ev: LocalEv) {
        self.events.push(time, (step, node), NodeEv::Local(ev));
    }

    /// Encode, account and ship one protocol message at virtual `at`:
    /// remote messages into the destination's pending frame, self-sends
    /// straight back into the local queue.
    fn transmit(&mut self, at: u64, step: u64, src: NodeId, dst: NodeId, msg: Msg) {
        let kind = msg.kind();
        if let Some(a) = self.asy.as_ref().filter(|_| dst != src) {
            // The termination count goes up *before* the record can enter
            // a channel (`endpoint.transmit` may auto-flush a full frame):
            // a rule that has not seen the increment cannot see the record
            // drained either — the send-before-flight order §14.2 leans on.
            a.fwd_to[dst as usize].fetch_add(1, Ordering::SeqCst);
            // Send-coverage bookkeeping (§14.3): until the receiver acks
            // the drain, every published `next` of ours is clamped to this
            // record's send time, so the horizon snapshot keeps covering it
            // while it is in flight.
            self.sent_to[dst as usize] += 1;
            self.unacked[dst as usize].push_back((self.sent_to[dst as usize], at));
        }
        let (deliver, local) = self.endpoint.transmit(at, step, dst, kind, &mut |w| msg.encode_into(w));
        if let Some(wire) = local {
            // Loopback: delivered below any window horizon, so it never
            // crosses the mesh — it goes straight into our queue. The
            // bound is profile-derived (`LinkParams::loopback_ps`, clamped
            // to the base latency); strictly-future delivery keeps the
            // in-window processing order intact. Round-trip the codec
            // anyway: the wire sees what a peer would.
            debug_assert!(
                deliver >= at + self.endpoint.link().loopback_ps(),
                "loopback delivered before its profile bound"
            );
            self.endpoint.record_recv(wire.payload.len(), wire.kind);
            let msg = Msg::decode_slice(&wire.payload).expect("loopback codec round-trip");
            self.endpoint.recycle(wire.payload);
            self.events.push(deliver, (step, src), NodeEv::Deliver { src, msg });
        }
    }

    /// Strided (`id + k·n`): disjoint from every other node's without
    /// global coordination.
    fn alloc_uid(&mut self) -> ThreadUid {
        let uid = self.next_uid;
        self.next_uid += self.n_nodes as ThreadUid;
        uid
    }

    #[inline]
    fn record(&mut self, t: u64, ev: TraceEvent) {
        if let Some(r) = &mut self.recorder {
            r.record(Event { t, ev });
        }
    }

    fn flush_trace(&mut self, _node: NodeId, now: u64) {
        if let Some(r) = &mut self.recorder {
            driver::flush_trace(r.as_mut(), self.node.take_dsm_trace(), &mut self.endpoint.trace, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_net::MsgKind;

    #[test]
    fn horizon_keeps_self_echo_and_ignores_idle_peers() {
        let hz = Horizons::new(vec![700, 300, 500], u64::MAX);
        assert_eq!(hz.min_peer_base, vec![300, 500, 300]);
        // One busy node, every peer idle at ∞: only the self-echo term is
        // finite, so dropping it would open an unbounded window.
        let idle_peers = |i: usize| if i == 0 { 1_000 } else { u64::MAX };
        assert_eq!(hz.horizon(0, idle_peers), 1_000 + 700 + 300);
        // From a peer's side the busy node's `next + base` binds ...
        assert_eq!(hz.horizon(1, idle_peers), 1_000 + 700);
        // ... and an idle peer never does, however small its base.
        let one_idle = |i: usize| [1_000, u64::MAX, 1_200][i];
        assert_eq!(hz.horizon(2, one_idle), 1_000 + 700);
        assert_eq!(hz.horizon(0, one_idle), 1_200 + 500);
        // A single node has no peers: one unbounded window.
        assert_eq!(Horizons::new(vec![700], u64::MAX).horizon(0, |_| 5), u64::MAX);
    }

    #[test]
    fn async_decision_requires_full_quiescence() {
        let m = u64::MAX;
        let st = |qhead, drained, live, ops| Some(AsyncState { qhead, drained, live, ops });
        let sent = |v: &'static [u64]| move |w: usize| v[w];
        // Missing state: no decision.
        assert_eq!(decide_async(&[st(m, 0, 0, 1), None], sent(&[0, 0]), m), None);
        // Busy node: no decision.
        assert_eq!(decide_async(&[st(5, 0, 0, 1), st(m, 0, 0, 1)], sent(&[0, 0]), m), None);
        // Undrained record: no decision.
        assert_eq!(decide_async(&[st(m, 2, 0, 1), st(m, 0, 0, 1)], sent(&[3, 0]), m), None);
        // All idle and drained, no live threads: finish.
        assert_eq!(decide_async(&[st(m, 2, 0, 1), st(m, 1, 0, 1)], sent(&[2, 1]), m), Some(run_outcome::FINISH));
        // Same but a live (blocked) thread somewhere: deadlock.
        assert_eq!(decide_async(&[st(m, 2, 1, 1), st(m, 1, 0, 1)], sent(&[2, 1]), m), Some(run_outcome::DEADLOCK));
        // Op budget blown: abort, even with states missing.
        assert_eq!(decide_async(&[st(5, 0, 0, 100), None], sent(&[0, 0]), 99), Some(run_outcome::ABORT));
    }

    /// The epoch fold: the n-th post of the round in flight yields every
    /// node's post-drain head; anything the lockstep rules out is refused,
    /// not folded.
    #[test]
    fn rendezvous_folds_min_out_and_refuses_what_lockstep_rules_out() {
        let m = u64::MAX;
        let mut rv = Rendezvous::new(3, m);
        let mut post = |from, round, slot, min_out: &[u64]| {
            rv.post_slot(from, round, EpochSlot::from_array(slot), min_out)
                .map(|done| done.map(|s| s.iter().map(|s| s.to_array()).collect::<Vec<_>>()))
        };
        assert_eq!(post(1, 1, [400, 2, 0, 0, 7], &[m, m, 250]), Ok(None));
        // Not the round in flight, a second post, a mis-sized `min_out`.
        let err = post(0, 2, [0; 5], &[m; 3]).unwrap_err();
        assert!(err.contains("round 2") && err.contains("round 1"), "{err}");
        assert!(post(1, 1, [0; 5], &[m; 3]).is_err());
        for bad in [&[m; 2][..], &[m; 4][..], &[][..]] {
            let err = post(0, 1, [0; 5], bad).unwrap_err();
            assert!(err.contains("min_out") && err.contains("3-node"), "{err}");
        }
        assert_eq!(post(2, 1, [300, 3, 1, 1, 8], &[700, m, m]), Ok(None));
        let folded = post(0, 1, [m, 1, 0, 0, 6], &[m, 900, m]).unwrap().expect("third post completes the round");
        assert_eq!(folded, vec![[700, 1, 0, 0, 6], [400, 2, 0, 0, 7], [250, 3, 1, 1, 8]]);
        // The accumulator starts over: round 1 is history, round 2 is clean.
        assert!(post(0, 1, [0; 5], &[m; 3]).is_err());
        assert_eq!(post(0, 2, [5, 0, 0, 0, 0], &[m; 3]), Ok(None));
        assert_eq!(post(1, 2, [m, 0, 0, 0, 0], &[m; 3]), Ok(None));
        let folded = post(2, 2, [m, 0, 0, 0, 0], &[m; 3]).unwrap().unwrap();
        assert_eq!(folded, vec![[5, 0, 0, 0, 0], [m, 0, 0, 0, 0], [m, 0, 0, 0, 0]]);
    }

    /// Only the first deciding report carries the outcome — later ones,
    /// deciding or not, get nothing — and only the n-th flush closes.
    #[test]
    fn rendezvous_decides_once_and_closes_the_flush_on_the_nth() {
        let idle = |drained| AsyncState { qhead: u64::MAX, drained, live: 0, ops: 1 };
        let sent = |w: usize| [1, 0][w];
        let mut rv = Rendezvous::new(2, 1_000);
        // One record is on its way to node 0: nothing decides until node 0
        // reports it drained and idle.
        assert_eq!(rv.post_state(0, idle(0), sent), None);
        assert_eq!(rv.post_state(1, idle(0), sent), None);
        assert_eq!(rv.post_state(0, AsyncState { qhead: 5, ..idle(1) }, sent), None);
        assert_eq!(rv.post_state(0, idle(1), sent), Some(run_outcome::FINISH));
        assert_eq!(rv.post_state(1, idle(0), sent), None, "a second deciding report");
        assert_eq!(rv.post_state(0, AsyncState { ops: 2_000, ..idle(1) }, sent), None, "an over-budget report after the decision");
        assert!(!rv.post_flushed());
        assert!(rv.post_flushed());
        assert!(!rv.post_flushed(), "only the n-th flush closes");
    }

    use proptest::prelude::*;

    proptest! {
        /// The identity the single exchange rests on: fold every node's
        /// pre-drain head with every sender's `min_out` and you have each
        /// node's queue head *after* it drains the closing window — and
        /// when a peer's next-window frames land early (framed after its
        /// `take_min_out`, drained in the same pass), the folded value can
        /// only sit above the head, never below it.
        #[test]
        fn folded_next_is_the_post_drain_queue_head(
            n in 2usize..5,
            queued in proptest::collection::vec((0usize..4, 1u64..5_000_000), 0..12),
            window in proptest::collection::vec((0usize..4, 0usize..4, 0u64..5_000_000, 0usize..300), 0..24),
            early in proptest::collection::vec((0usize..4, 0usize..4, 5_000_000u64..9_000_000, 0usize..300), 0..6),
        ) {
            let links = vec![jsplit_net::LinkParams { base_ns: 85_800, per_byte_ns: 91 }; n];
            let mut mesh = ChannelEndpoint::mesh(&links, true);
            let mut queues: Vec<EventQueue<(), ()>> = (0..n).map(|_| EventQueue::new()).collect();
            for (i, t) in queued {
                queues[i % n].push(t, (), ());
            }
            let send = |mesh: &mut [ChannelEndpoint], (src, dst, at, len): (usize, usize, u64, usize)| {
                let (src, dst) = (src % n, dst % n);
                if src != dst {
                    mesh[src].transmit(at, at, dst as NodeId, MsgKind::Diff, &mut |w| {
                        for _ in 0..len {
                            w.u8(0);
                        }
                    });
                }
            };
            for &s in &window {
                send(&mut mesh, s);
            }
            let mut rv = Rendezvous::new(n, u64::MAX);
            let mut folded = Vec::new();
            let mut min_out = vec![0u64; n];
            for (i, ep) in mesh.iter_mut().enumerate() {
                ep.flush();
                ep.take_min_out(&mut min_out);
                let slot = EpochSlot { next_event: queues[i].head(), ..EpochSlot::IDLE };
                if let Some(round) = rv.post_slot(i, 1, slot, &min_out).unwrap() {
                    folded = round.to_vec();
                }
            }
            for &s in &early {
                send(&mut mesh, s);
            }
            let any_early = early.iter().any(|&(s, d, ..)| s % n != d % n);
            mesh.iter_mut().for_each(ChannelEndpoint::flush);
            for ((ep, q), f) in mesh.iter_mut().zip(&mut queues).zip(&folded) {
                ep.drain_frames(&mut |_, _, deliver, _, _, _| q.push(deliver, (), ()));
                prop_assert!(q.head() <= f.next_event);
                prop_assert!(any_early || q.head() == f.next_event);
            }
        }
    }
}
