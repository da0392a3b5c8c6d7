//! The driver layer: what owns time and message delivery.
//!
//! A driver takes the prepared program, builds one [`NodeRuntime`] per
//! worker, and executes the [`Effect`](crate::node::Effect) streams the
//! nodes emit against a [`Transport`]. Three drivers exist:
//!
//! * [`Cluster`](crate::exec::Cluster) — the discrete-event virtual-time
//!   simulator over [`jsplit_net::Network`]: one global event queue, fully
//!   deterministic, the *reference semantics* of the reproduction.
//! * [`ThreadsDriver`](crate::threads::ThreadsDriver) — each node on its
//!   own OS thread over [`jsplit_net::ChannelEndpoint`]s, encoded bytes
//!   crossing the channels, virtual time advanced in conservative windows.
//! * [`SocketsDriver`](crate::sockets::SocketsDriver) — the same engine,
//!   one OS process per node, frames relayed over TCP by a coordinator.
//!
//! A node's life is the same under all three: set-up (the helpers below)
//! → event loop → one [`NodeResult`](crate::report::NodeResult) →
//! [`RunReport::assemble`](crate::report::RunReport::assemble). This module
//! holds what every driver shares on the way there: program rewrite and
//! image load, the class-file broadcast (the one helper behind every
//! bootstrap path), the `C_static` singleton bootstrap of §4.2, the
//! scheduled-event queue, the node event path (`Host`: effect execution,
//! thread placement and shipping, message delivery), the telemetry start
//! and the registry cells every node publishes the same way.

use crate::config::{ClusterConfig, MetricsConfig, Mode, NodeSpec};
use crate::env::{NodeEnv, CONSOLE_NODE};
use crate::node::{Effect, LocalEv, NodeRuntime, SliceResult};
use crate::telemetry::{Telemetry, WatchdogSpec};
use jsplit_dsm::Msg;
use jsplit_mjvm::class::{Program, Sig};
use jsplit_mjvm::heap::{Gid, ObjRef, ThreadUid};
use jsplit_mjvm::interp::Frame;
use jsplit_mjvm::loader::{ClassId, Image, LoadError, MethodId};
use jsplit_mjvm::verifier;
use jsplit_mjvm::{stdlib, Value};
use jsplit_net::{LinkParams, MsgKind, NetStats, NodeId, Transport};
use jsplit_rewriter::{RewriteError, RewriteStats, STATICS_HOLDER};
use jsplit_trace::{Event, FlightRecorder, Metric, MetricsRegistry, TraceEvent, TraceSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Errors preparing a cluster run.
#[derive(Debug)]
pub enum ClusterError {
    Rewrite(RewriteError),
    Load(LoadError),
    Config(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
            ClusterError::Load(e) => write!(f, "load failed: {e}"),
            ClusterError::Config(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Everything every driver derives from the program before any node exists.
pub struct Prepared {
    pub image: Arc<Image>,
    pub rewrite: Option<RewriteStats>,
    /// Serialized size of the rewritten program (class distribution cost).
    pub class_bytes: usize,
    pub thread_class: ClassId,
    pub thread_main: MethodId,
}

/// Verify, rewrite (JavaSplit mode), load, resolve the runtime entry
/// points. The program is outside input: whatever is wrong with it comes
/// back as an error, never a panic.
pub fn prepare(config: &ClusterConfig, program: &Program) -> Result<Prepared, ClusterError> {
    if config.nodes.is_empty() {
        return Err(ClusterError::Config("at least one node required".into()));
    }
    if config.mode == Mode::Baseline && config.nodes.len() != 1 {
        return Err(ClusterError::Config("baseline mode runs on exactly one node".into()));
    }
    let (image, rewrite, class_bytes) = match config.mode {
        Mode::Baseline => {
            verifier::verify_original(program).map_err(|e| ClusterError::Load(LoadError::Unverified(e)))?;
            let image = Image::load(program).map_err(ClusterError::Load)?;
            (image, None, 0usize)
        }
        Mode::JavaSplit => {
            let rw = jsplit_rewriter::rewrite_program(program).map_err(ClusterError::Rewrite)?;
            let image = Image::load(&rw.program).map_err(ClusterError::Load)?;
            // §2: "the resulting rewritten classes are sent to one of
            // the worker nodes" — class distribution is real traffic. Size
            // it by streaming the encoding in wire-frame-sized chunks: the
            // serialized program never materializes as one giant buffer.
            let bytes = jsplit_mjvm::classfile_io::encode_program_chunked(
                &rw.program,
                jsplit_net::FRAME_CHUNK,
                &mut |_| {},
            );
            (image, Some(rw.stats), bytes)
        }
    };
    let image = Arc::new(image);
    let class = |name: &str| {
        image.class_id_any(name).ok_or_else(|| ClusterError::Load(LoadError::UnknownClass(name.into())))
    };
    let thread_class = class(stdlib::THREAD)?;
    let main_sig = Sig::new("threadMain", &[jsplit_mjvm::Ty::Ref], None);
    let thread_main = image.resolve_method(class(stdlib::JSRUNTIME)?, &main_sig).ok_or_else(|| {
        ClusterError::Load(LoadError::UnknownMethod { class: stdlib::JSRUNTIME.into(), sig: main_sig.to_string() })
    })?;
    Ok(Prepared { image, rewrite, class_bytes, thread_class, thread_main })
}

/// A node's link parameters, from its JVM-brand cost model (Table 3: the
/// socket-stack overhead differs by brand).
pub fn link_params(spec: NodeSpec) -> LinkParams {
    let m = spec.profile.cost_model();
    LinkParams { base_ns: m.net_base_ns, per_byte_ns: m.net_per_byte_ns }
}

/// Ship the rewritten class files from the console node to `dst` at `now`
/// (§2: class distribution is real traffic on the same links, counted in
/// the statistics). Returns the virtual arrival time. Every bootstrap path
/// — initial pool, mid-run joiner, threads backend — goes through here.
pub fn ship_classes(net: &mut dyn Transport, now: u64, dst: NodeId, class_bytes: usize) -> u64 {
    net.send(now, CONSOLE_NODE, dst, class_bytes, MsgKind::Control)
}

/// One fresh [`NodeRuntime`] per configured node, in node-id order.
pub(crate) fn build_nodes(config: &ClusterConfig, prepared: &Prepared) -> Vec<NodeRuntime> {
    config.nodes.iter().enumerate().map(|(i, spec)| NodeRuntime::new(i as NodeId, *spec, config, prepared)).collect()
}

/// Ready the initial pool (JavaSplit mode; a no-op in baseline): ship the
/// rewritten class files to every worker over `net` and create the shared
/// `C_static` singletons on `nodes[0]`, caching them on the rest (a sockets
/// worker 0 passes itself alone — its peers replay this in their own
/// processes). Like the paper's evaluation, the measured
/// execution window starts once the pool is ready, so distribution is
/// returned as setup time (and counted in the traffic statistics) but does
/// not delay t = 0.
pub(crate) fn set_up_pool(config: &ClusterConfig, prepared: &Prepared, nodes: &mut [NodeRuntime], net: &mut dyn Transport) -> u64 {
    if config.mode != Mode::JavaSplit {
        return 0;
    }
    let arrivals = (1..config.nodes.len()).map(|i| ship_classes(net, 0, i as NodeId, prepared.class_bytes));
    let setup_ps = arrivals.max().unwrap_or(0);
    bootstrap_statics(nodes, &prepared.image);
    setup_ps
}

/// One `C_static` singleton: (class, static slot, gid, companion class).
pub type SingletonSpec = (ClassId, u16, Gid, ClassId);

/// Create the shared `C_static` singletons on node 0 and fill every node's
/// constant holder slot with a (placeholder) local copy (§4.2).
pub fn bootstrap_statics(nodes: &mut [NodeRuntime], image: &Arc<Image>) {
    let mut singletons: Vec<SingletonSpec> = Vec::new();
    for rc in &image.classes {
        let Some(slot) = rc.static_names.iter().position(|n| &**n == STATICS_HOLDER) else {
            continue;
        };
        let comp_name = format!("{}{}", rc.name, jsplit_rewriter::STATIC_SUFFIX);
        let comp = image.class_id(&comp_name).expect("companion class exists");
        // Master on worker 0.
        let w0 = &mut nodes[0];
        let zeros = image.class(comp).zeroed_fields();
        let master = w0.heap.alloc_object(comp, zeros.len(), zeros);
        let gid = w0.env.js().dsm.share_object(&mut w0.heap, master);
        w0.heap.set_static(rc.id, slot as u16, Value::Ref(master));
        singletons.push((rc.id, slot as u16, gid, comp));
    }
    for w in nodes.iter_mut().skip(1) {
        install_singletons(w, image, &singletons);
    }
}

/// Read the already-bootstrapped singleton set back off node 0's heap (a
/// mid-run joiner needs the same installs the initial pool got).
pub fn singleton_specs(node0: &mut NodeRuntime, image: &Arc<Image>) -> Vec<SingletonSpec> {
    image
        .classes
        .iter()
        .filter_map(|rc| {
            let slot = rc.static_names.iter().position(|n| &**n == STATICS_HOLDER)?;
            let Value::Ref(master) = node0.heap.get_static(rc.id, slot as u16) else {
                return None;
            };
            let gid = node0.heap.get(master).dsm.gid?;
            Some((rc.id, slot as u16, gid, node0.heap.get(master).class))
        })
        .collect()
}

/// Cache the singleton set on one node and point its holder slots at the
/// local copies.
pub fn install_singletons(w: &mut NodeRuntime, image: &Arc<Image>, singletons: &[SingletonSpec]) {
    for (class, slot, gid, comp) in singletons {
        let local = w.env.js().dsm.ensure_cached(&mut w.heap, image, *gid, *comp);
        w.heap.set_static(*class, *slot, Value::Ref(local));
    }
}

/// The scheduled-event queue every driver runs on: a min-heap of
/// `(time, prefix, seq, slot)` keys over a slab of payloads. `prefix` is
/// the driver's ordering between equal times (nothing for the sim's one
/// global queue, `(step, lane)` for a node engine); `seq` is unique, so
/// ties always break by insertion order and dispatch order never depends
/// on which slot a payload landed in.
///
/// Bounded memory: a dispatched payload's slot is recycled through the
/// free list, so the slab is as long as the largest number of events that
/// were ever scheduled *at once*, not the number ever pushed
/// ([`EventQueue::high_water`], asserted by the bounded-memory regression
/// test).
pub(crate) struct EventQueue<P, T> {
    heap: BinaryHeap<Reverse<(u64, P, u64, usize)>>,
    payloads: Vec<Option<T>>,
    free: Vec<usize>,
    seq: u64,
}

impl<P: Ord + Copy, T> EventQueue<P, T> {
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), payloads: Vec::new(), free: Vec::new(), seq: 0 }
    }

    pub fn push(&mut self, time: u64, prefix: P, ev: T) {
        let idx = match self.free.pop() {
            Some(i) => {
                self.payloads[i] = Some(ev);
                i
            }
            None => {
                self.payloads.push(Some(ev));
                self.payloads.len() - 1
            }
        };
        self.heap.push(Reverse((time, prefix, self.seq, idx)));
        self.seq += 1;
    }

    /// Time of the earliest scheduled event (`u64::MAX` when empty).
    pub fn head(&self) -> u64 {
        self.heap.peek().map_or(u64::MAX, |Reverse((t, ..))| *t)
    }

    /// Dispatch the earliest event.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let Reverse((time, _, _, idx)) = self.heap.pop()?;
        self.free.push(idx);
        Some((time, self.payloads[idx].take().expect("event payload")))
    }

    /// Dispatch the earliest event if it is strictly below `horizon`.
    pub fn pop_below(&mut self, horizon: u64) -> Option<(u64, T)> {
        if self.head() < horizon {
            self.pop()
        } else {
            None
        }
    }

    /// Most events ever scheduled at once (the slab's final length).
    pub fn high_water(&self) -> u64 {
        self.payloads.len() as u64
    }
}

/// One node's scheduled event: what a driver's queue holds for it.
pub(crate) enum NodeEv {
    Local(LocalEv),
    /// A protocol/runtime message shipped by `src`, due for delivery.
    Deliver { src: NodeId, msg: Msg },
}

/// The node event path, written once: executing a node's effect stream,
/// placing and shipping a started thread (§2), and delivering a message.
/// A driver supplies what genuinely differs between one global virtual
/// clock and one conservative engine per node — how an event is queued,
/// how a message is sent, how a thread uid is allocated, where a trace
/// event goes — and gets the same node behaviour as every other driver by
/// construction. `step` is the virtual time of the event being processed
/// (the engine's queue key carries it; the sim's does not need it).
pub(crate) trait Host {
    fn node(&mut self, id: NodeId) -> &mut NodeRuntime;
    /// The effect scratch buffer, reused across events.
    fn fx(&mut self) -> &mut Vec<Effect>;
    /// Queue `node`'s local event at virtual `time`.
    fn schedule(&mut self, node: NodeId, time: u64, step: u64, ev: LocalEv);
    /// Account and ship `msg` at virtual `at`; the driver queues its
    /// delivery on `dst` as a [`NodeEv::Deliver`] from `src`.
    fn transmit(&mut self, at: u64, step: u64, src: NodeId, dst: NodeId, msg: Msg);
    /// The uid of a thread about to be installed.
    fn alloc_uid(&mut self) -> ThreadUid;
    /// Record one trace event at virtual `t` (no-op when tracing is off).
    fn record(&mut self, t: u64, ev: TraceEvent);
    /// Stamp and flush `node`'s buffered trace events at `now`.
    fn flush_trace(&mut self, node: NodeId, now: u64);

    /// Run `f` on `node` with the effect scratch buffer, then execute the
    /// effects it emitted, strictly in emission order (the determinism
    /// contract of [`Effect`]).
    fn on_node<R>(&mut self, node: NodeId, step: u64, f: impl FnOnce(&mut NodeRuntime, &mut Vec<Effect>) -> R) -> R {
        let mut fx = std::mem::take(self.fx());
        let r = f(self.node(node), &mut fx);
        for effect in fx.drain(..) {
            match effect {
                Effect::Local { time, ev } => self.schedule(node, time, step, ev),
                Effect::Send { at, dst, msg } => self.transmit(at, step, node, dst, msg),
                Effect::Spawn { now, thread_obj, priority } => self.dispatch_spawn(node, now, step, thread_obj, priority),
                Effect::Trace { t, ev } => self.record(t, ev),
                Effect::FlushTrace { now } => self.flush_trace(node, now),
            }
        }
        // Hand the (drained) scratch buffer back for the next event.
        *self.fx() = fx;
        r
    }

    fn add_thread(&mut self, node: NodeId, step: u64, frame: Frame, thread_obj: Option<ObjRef>, now: u64) {
        let uid = self.alloc_uid();
        self.on_node(node, step, |n, fx| n.add_thread(uid, frame, thread_obj, now, fx));
    }

    /// The guest `main` starts on worker 0 (§2: the rewritten classes are
    /// sent to one of the worker nodes that starts executing main()).
    fn start_main(&mut self) {
        let image = self.node(CONSOLE_NODE).image().clone();
        let main = image.main_method;
        let frame = Frame::new(main, image.method(main).max_locals, vec![], false);
        self.add_thread(CONSOLE_NODE, 0, frame, None, 0);
    }

    /// Place a thread `origin` just started (§2's load-balancing plug-in)
    /// and ship it there. The placement input is `origin`'s own estimate
    /// ([`Placement`](crate::balance::Placement)) — never another node's
    /// state, which a real deployment could not read; load gossip is the
    /// future refinement for long-lived remote threads.
    fn dispatch_spawn(&mut self, origin: NodeId, now: u64, step: u64, thread_obj: ObjRef, priority: i32) {
        let node = self.node(origin);
        if matches!(node.env, NodeEnv::Baseline(_)) {
            let frame = node.thread_frame(thread_obj);
            return self.add_thread(origin, step, frame, Some(thread_obj), now);
        }
        let dst = node.placement.place(node.live());
        // Shipping may share objects, but queues no sends of its own.
        let msg = node.prepare_spawn(thread_obj, priority);
        if let Msg::SpawnThread { thread_gid, .. } = &msg {
            self.record(now, TraceEvent::ThreadShip { from: origin, to: dst, thread_gid: thread_gid.0 });
        }
        self.transmit(now, step, origin, dst, msg);
    }

    /// Deliver one message from `src` to `dst` at virtual `time`.
    fn deliver(&mut self, time: u64, src: NodeId, dst: NodeId, msg: Msg) {
        match msg {
            // Forwarded console output lands in the console node's own
            // buffer so local and remote lines stay in arrival order.
            Msg::Println { line, .. } => self.node(dst).push_console(line),
            Msg::SpawnThread { thread_gid, class, state, priority } => {
                let uid = self.alloc_uid();
                self.on_node(dst, time, |n, fx| n.install_spawned_thread(uid, src, thread_gid, class, &state, priority, time, fx));
            }
            other => self.on_node(dst, time, |n, fx| n.handle_dsm(time, other, fx)),
        }
    }

    /// Execute one of `node`'s scheduled events at virtual `time`.
    fn process(&mut self, time: u64, node: NodeId, ev: NodeEv) -> SliceResult {
        match ev {
            NodeEv::Local(LocalEv::Slice { cpu, thread }) => {
                return self.on_node(node, time, |n, fx| n.run_slice(time, cpu, thread, fx));
            }
            NodeEv::Local(LocalEv::Wake { thread }) => self.on_node(node, time, |n, fx| n.make_ready(thread, time, fx)),
            NodeEv::Deliver { src, msg } => self.deliver(time, src, node, msg),
        }
        SliceResult::default()
    }
}

/// Start the side-band telemetry sampler when the run asks for metrics
/// (`None` otherwise, or when the output file cannot be created — the run
/// goes on unsampled). `base_ps` arms the horizon-stall watchdog when the
/// config carries a budget; the sim passes `None`, a sequential scheduler
/// cannot stall on a peer.
pub(crate) fn start_telemetry(
    cfg: Option<&MetricsConfig>,
    registry: Option<&Arc<MetricsRegistry>>,
    flight: Option<Arc<FlightRecorder>>,
    base_ps: Option<Vec<u64>>,
) -> Option<Telemetry> {
    let (cfg, registry) = (cfg?, registry?);
    let watchdog = cfg
        .watchdog_budget
        .zip(base_ps)
        .map(|(d, base_ps)| WatchdogSpec { budget_ms: (d.as_millis() as u64).max(1), base_ps });
    match Telemetry::start(cfg, registry.clone(), flight, watchdog) {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("jsplit: cannot open metrics output {:?}: {e}; sampling disabled", cfg.out);
            None
        }
    }
}

/// Publish `node`'s progress, its three virtual-time gauges and its network
/// and DSM counters into the live-metrics registry — the cells every
/// driver fills the same way.
pub(crate) fn publish_node_cells(reg: &MetricsRegistry, node: &NodeRuntime, net: &NetStats, [horizon, next, qnext]: [u64; 3]) {
    let id = node.id;
    reg.set(id, Metric::Ops, node.ops);
    reg.set(id, Metric::LiveThreads, node.live() as u64);
    reg.set(id, Metric::HorizonPs, horizon);
    reg.set(id, Metric::NextEventPs, next);
    reg.set(id, Metric::QueueHeadPs, qnext);
    reg.set(id, Metric::NetMsgsSent, net.msgs_sent);
    reg.set(id, Metric::NetBytesSent, net.bytes_sent);
    reg.set(id, Metric::NetMsgsRecv, net.msgs_recv);
    if let Some(d) = node.dsm_stats_ref() {
        reg.set(id, Metric::DsmFetches, d.fetches);
        reg.set(id, Metric::DsmDiffs, d.diffs_sent);
        reg.set(id, Metric::DsmInvalidations, d.invalidations);
        reg.set(id, Metric::DsmLockGrants, d.grants_sent);
    }
}

/// Stamp a node's clock-free DSM trace events at `now` and flush them into
/// `sink`, then its transport's pre-stamped send events. Every driver
/// calls this at the same points (wherever a node's effects are drained,
/// and once more at the run's finish time), which is what makes the
/// per-node recorded sequence — and so the canonical trace — identical
/// across backends.
pub(crate) fn flush_trace(sink: &mut dyn TraceSink, dsm_trace: Vec<TraceEvent>, net_trace: &mut Option<Vec<Event>>, now: u64) {
    for ev in dsm_trace {
        sink.record(Event { t: now, ev });
    }
    if let Some(buf) = net_trace {
        for e in buf.drain(..) {
            sink.record(e);
        }
    }
}
