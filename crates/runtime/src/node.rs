//! One worker node as an independent runtime (paper §2: each node is a
//! separate JVM on a commodity workstation).
//!
//! [`NodeRuntime`] owns everything that is per-node in the paper's design —
//! heap, interpreter threads, scheduler queues, the DSM engine and the
//! environment — and *nothing* that is global. It never touches a clock or
//! a network: every externally visible consequence of running it (future
//! local events, outgoing protocol messages, thread spawns, trace records)
//! is emitted as an ordered [`Effect`] list that the owning [driver]
//! executes. The effect order is exactly the event-push order of the
//! original monolithic scheduler, which is what keeps the virtual-time sim
//! driver bit-for-bit identical and lets the threads driver replay the same
//! semantics on real OS threads.
//!
//! [driver]: crate::driver

use crate::balance::Placement;
use crate::config::{ClusterConfig, Mode, NodeSpec};
use crate::driver::Prepared;
use crate::env::{JsEnv, NodeEnv};
use crate::report::NodeResult;
use jsplit_dsm::node::Action;
use jsplit_dsm::{DsmConfig, DsmNode, Msg};
use jsplit_mjvm::cost::CostModel;
use jsplit_mjvm::heap::{Heap, ObjRef, ThreadUid};
use jsplit_mjvm::interp::{self, Frame, StepCtx, StepState, Thread, VmError};
use jsplit_mjvm::loader::{Image, MethodId};
use jsplit_mjvm::opstats::OpStats;
use jsplit_mjvm::pcode::{self, PImage};
use jsplit_net::{NetStats, NodeId};
use jsplit_trace::TraceEvent;
use std::collections::VecDeque;
use std::sync::Arc;

/// Sentinel in [`NodeRuntime::thread_slot`] marking a uid whose thread has
/// exited or never lived here (slab slots are recycled, uids are not).
pub const DEAD_SLOT: u32 = u32::MAX;

/// A node-local scheduled event: what a driver's queue holds for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalEv {
    /// Run a quantum of `thread` on `cpu`.
    Slice { cpu: usize, thread: ThreadUid },
    /// Make `thread` runnable (sleep timer expiry or deferred wake).
    Wake { thread: ThreadUid },
}

/// One externally visible consequence of advancing a node, in emission
/// order. Drivers must execute effects strictly in order: the sim driver's
/// determinism contract is that its global event sequence numbers are
/// assigned in exactly this order.
#[derive(Debug)]
pub enum Effect {
    /// Schedule a node-local event at virtual `time`.
    Local { time: u64, ev: LocalEv },
    /// Transmit a protocol message at virtual time `at` (the driver owns
    /// latency, delivery and accounting via its transport).
    Send { at: u64, dst: NodeId, msg: Msg },
    /// A newly started thread needs placing and shipping
    /// (`driver::Host::dispatch_spawn`).
    Spawn { now: u64, thread_obj: ObjRef, priority: i32 },
    /// Record one trace event (emitted only when tracing is enabled).
    Trace { t: u64, ev: TraceEvent },
    /// Drain the node's buffered DSM trace events (and the driver's network
    /// trace buffer) at virtual time `now` — the stamping point.
    FlushTrace { now: u64 },
}

/// What one CPU slice did, for the driver's global bookkeeping.
#[derive(Debug, Default)]
pub struct SliceResult {
    /// Instructions retired in the slice.
    pub ops: u64,
    /// The thread exited (normally or by trap; a trap is recorded in
    /// [`NodeRuntime::errors`]).
    pub exited: bool,
}

/// A single worker node's complete runtime state.
pub struct NodeRuntime {
    pub id: NodeId,
    pub model: &'static CostModel,
    pub heap: Heap,
    pub env: NodeEnv,
    /// Where this node places the threads it starts (§2).
    pub placement: Placement,
    image: Arc<Image>,
    /// `JSRuntime.threadMain`, the entry frame of every started thread.
    thread_main: MethodId,
    /// Thread slab: a thread's slot is stable for its whole life (slots of
    /// exited threads are recycled through `free_slots`), so a CPU slice
    /// runs the thread in place.
    threads: Vec<Option<Thread>>,
    free_slots: Vec<u32>,
    /// Live threads on this node (the slab has holes, so it is counted).
    live: usize,
    ready: VecDeque<ThreadUid>,
    cpu_free: Vec<u64>,
    cpu_busy: Vec<bool>,
    /// uid → slot in the thread slab ([`DEAD_SLOT`] if exited or foreign).
    /// Grown on demand: uids are allocated by the driver and may be sparse
    /// on this node (dense-global under the sim driver, strided per node
    /// under the threads driver).
    thread_slot: Vec<u32>,
    /// uid → currently queued in the ready queue.
    in_ready: Vec<bool>,
    /// Instructions retired on this node.
    pub ops: u64,
    /// Virtual time at which this node's last thread so far finished.
    pub finish_time: u64,
    /// Threads created on this node over the run.
    pub spawned_here: u32,
    /// Threads that died with a trap on this node.
    pub errors: Vec<(ThreadUid, VmError)>,
    fuel: u32,
    tracing: bool,
    /// Predecoded bodies for this node's cost model (`None` = classic
    /// enum-dispatch interpreter, the A/B reference path).
    pimage: Option<Arc<PImage>>,
    /// Opcode/pair frequency counters (`repro opstats`); forces classic.
    opstats: Option<Box<OpStats>>,
}

impl NodeRuntime {
    /// Build a fresh worker: heap with statics, environment per mode.
    pub fn new(id: NodeId, spec: NodeSpec, config: &ClusterConfig, prepared: &Prepared) -> NodeRuntime {
        let (image, thread_class) = (prepared.image.clone(), prepared.thread_class);
        let model = spec.profile.cost_model();
        let mut heap = Heap::new();
        heap.init_statics(&image);
        let mut env = match config.mode {
            Mode::Baseline => NodeEnv::Baseline(jsplit_mjvm::BaselineEnv::new(model, thread_class)),
            Mode::JavaSplit => NodeEnv::Js(JsEnv::new(
                model,
                id,
                DsmNode::new(
                    id,
                    DsmConfig {
                        mode: config.protocol,
                        disable_local_locks: config.disable_local_locks,
                        array_chunk: config.array_chunk,
                    },
                ),
                thread_class,
            )),
        };
        let tracing = config.trace.is_some();
        if tracing {
            if let NodeEnv::Js(e) = &mut env {
                e.dsm.trace = Some(Vec::new());
            }
        }
        if config.objprof {
            if let NodeEnv::Js(e) = &mut env {
                e.dsm.objprof = Some(Box::new(jsplit_trace::ObjProfile::new()));
            }
        }
        // The micro-op image bakes in this node's cost model, so it is
        // per-node even though the loaded image is shared. Profiling runs
        // stay on the classic interpreter, where the counter hooks live.
        let opstats = config.opstats.then(|| Box::new(OpStats::default()));
        let pimage = (!config.classic_interp && opstats.is_none())
            .then(|| Arc::new(pcode::predecode(&image, model)));
        NodeRuntime {
            id,
            model,
            heap,
            env,
            placement: Placement::new(config.balancer, id, config.nodes.len()),
            image,
            thread_main: prepared.thread_main,
            threads: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            ready: VecDeque::new(),
            cpu_free: vec![0; config.cpus_per_node],
            cpu_busy: vec![false; config.cpus_per_node],
            thread_slot: Vec::new(),
            in_ready: Vec::new(),
            ops: 0,
            finish_time: 0,
            spawned_here: 0,
            errors: Vec::new(),
            fuel: config.fuel,
            tracing,
            pimage,
            opstats,
        }
    }

    /// The end of this node's life: everything it contributes to the run
    /// report, with `net` from whichever transport carried its messages.
    /// The driver fills in what only it knows (outcome, queue and sync
    /// counters, setup time).
    pub fn into_result(self, net: NetStats) -> NodeResult {
        // Only the console node's buffer ever holds lines: every other
        // node forwards its output there.
        let (console, objprof, dsm) = match self.env {
            NodeEnv::Js(mut e) => (e.console, e.dsm.take_objprof(), Some(e.dsm.stats)),
            NodeEnv::Baseline(e) => (e.output, None, None),
        };
        NodeResult {
            console,
            errors: self.errors,
            ops: self.ops,
            spawned_here: self.spawned_here,
            finish_time: self.finish_time,
            net,
            dsm,
            objprof,
            opstats: self.opstats.map(|b| *b),
            ..NodeResult::default()
        }
    }

    /// Live threads on this node.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Delay every CPU until `at` (a joiner downloading the class files).
    pub fn set_cpu_floor(&mut self, at: u64) {
        for c in &mut self.cpu_free {
            *c = at;
        }
    }

    /// The DSM engine (JavaSplit mode only; panics in baseline mode).
    pub fn dsm(&mut self) -> &mut DsmNode {
        &mut self.env.js().dsm
    }

    /// Borrowed view of the DSM statistics (`None` in baseline mode) —
    /// the metrics publish path reads a few counters per round and must
    /// not clone the whole struct each time.
    pub fn dsm_stats_ref(&self) -> Option<&jsplit_dsm::DsmStats> {
        match &self.env {
            NodeEnv::Js(e) => Some(&e.dsm.stats),
            NodeEnv::Baseline(_) => None,
        }
    }

    /// Take the buffered (unstamped) DSM trace events, if any.
    pub fn take_dsm_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.env {
            NodeEnv::Js(e) => e.dsm.take_trace(),
            NodeEnv::Baseline(_) => Vec::new(),
        }
    }

    /// Append a console line delivered to this (console) node.
    pub fn push_console(&mut self, line: String) {
        match &mut self.env {
            NodeEnv::Js(e) => e.console.push(line),
            NodeEnv::Baseline(e) => e.output.push(line),
        }
    }

    fn insert_thread(&mut self, th: Thread) -> u32 {
        self.live += 1;
        match self.free_slots.pop() {
            Some(s) => {
                self.threads[s as usize] = Some(th);
                s
            }
            None => {
                self.threads.push(Some(th));
                (self.threads.len() - 1) as u32
            }
        }
    }

    fn remove_thread(&mut self, slot: u32) -> Thread {
        self.live -= 1;
        self.free_slots.push(slot);
        self.threads[slot as usize].take().expect("live thread slot")
    }

    fn slot_of(&self, uid: ThreadUid) -> u32 {
        self.thread_slot.get(uid as usize).copied().unwrap_or(DEAD_SLOT)
    }

    fn set_slot(&mut self, uid: ThreadUid, slot: u32) {
        let i = uid as usize;
        if i >= self.thread_slot.len() {
            self.thread_slot.resize(i + 1, DEAD_SLOT);
            self.in_ready.resize(i + 1, false);
        }
        self.thread_slot[i] = slot;
    }

    #[inline]
    fn tr(&self, out: &mut Vec<Effect>, t: u64, ev: TraceEvent) {
        if self.tracing {
            out.push(Effect::Trace { t, ev });
        }
    }

    /// Install a new thread (uid allocated by the driver) and schedule it.
    pub fn add_thread(&mut self, uid: ThreadUid, frame: Frame, thread_obj: Option<ObjRef>, now: u64, out: &mut Vec<Effect>) {
        let mut th = Thread::new(uid, frame);
        th.thread_obj = thread_obj;
        if let Some(obj) = thread_obj {
            // Thread layout: target(0), priority(1), alive(2).
            if let jsplit_mjvm::ObjPayload::Fields(f) = &self.heap.get(obj).payload {
                if let Some(p) = f.get(1) {
                    th.priority = p.as_i32().clamp(1, 10);
                }
            }
        }
        let slot = self.insert_thread(th);
        self.tr(out, now, TraceEvent::ThreadSpawn { node: self.id, thread: uid });
        self.set_slot(uid, slot);
        self.in_ready[uid as usize] = true;
        self.ready.push_back(uid);
        self.spawned_here += 1;
        self.schedule(now, out);
    }

    /// A live thread's slab slot (panics if dead/foreign).
    fn thread_mut(&mut self, uid: ThreadUid) -> &mut Thread {
        let slot = self.slot_of(uid);
        self.threads[slot as usize].as_mut().expect("live thread")
    }

    /// Override a live thread's priority (shipped-thread install).
    pub fn set_priority(&mut self, uid: ThreadUid, priority: i32) {
        self.thread_mut(uid).priority = priority.clamp(1, 10);
    }

    /// Assign ready threads to idle CPUs.
    fn schedule(&mut self, now: u64, out: &mut Vec<Effect>) {
        loop {
            if self.ready.is_empty() {
                break;
            }
            let Some(cpu) = (0..self.cpu_free.len())
                .filter(|&c| !self.cpu_busy[c])
                .min_by_key(|&c| self.cpu_free[c])
            else {
                break;
            };
            let thread = self.ready.pop_front().unwrap();
            self.in_ready[thread as usize] = false;
            if self.slot_of(thread) == DEAD_SLOT {
                continue;
            }
            self.cpu_busy[cpu] = true;
            let start = now.max(self.cpu_free[cpu]);
            out.push(Effect::Local { time: start, ev: LocalEv::Slice { cpu, thread } });
        }
    }

    /// Make `thread` runnable (no-op for dead/queued threads).
    pub fn make_ready(&mut self, thread: ThreadUid, now: u64, out: &mut Vec<Effect>) {
        let i = thread as usize;
        if self.slot_of(thread) == DEAD_SLOT || self.in_ready[i] {
            return;
        }
        self.tr(out, now, TraceEvent::ThreadReady { node: self.id, thread });
        self.in_ready[i] = true;
        self.ready.push_back(thread);
        self.schedule(now, out);
    }

    /// Drain the environment's accumulated effects (DSM actions, spawns,
    /// sleepers, console sends) at virtual time `now`, in the fixed order
    /// the scheduler has always used: actions, sends, sleepers, spawns,
    /// then the trace flush point.
    pub fn drain_effects(&mut self, now: u64, out: &mut Vec<Effect>) {
        let (actions, sends, spawns, sleepers) = {
            match &mut self.env {
                NodeEnv::Js(e) => (
                    e.dsm.drain_actions(),
                    std::mem::take(&mut e.sends),
                    std::mem::take(&mut e.spawns),
                    std::mem::take(&mut e.sleepers),
                ),
                NodeEnv::Baseline(e) => {
                    let spawns: Vec<(ObjRef, i32)> = e.spawns.drain(..).map(|o| (o, 5)).collect();
                    let wakes: Vec<ThreadUid> = e.wakes.drain(..).collect();
                    let sleepers = std::mem::take(&mut e.sleepers);
                    let actions: Vec<Action> = wakes.into_iter().map(|t| Action::Wake { thread: t }).collect();
                    (actions, Vec::new(), spawns, sleepers)
                }
            }
        };

        for a in actions {
            match a {
                Action::Wake { thread } => self.make_ready(thread, now, out),
                Action::Send { dst, msg } => out.push(Effect::Send { at: now, dst, msg }),
            }
        }
        for (dst, msg) in sends {
            out.push(Effect::Send { at: now, dst, msg });
        }
        for (wake, thread) in sleepers {
            out.push(Effect::Local { time: wake.max(now), ev: LocalEv::Wake { thread } });
        }
        for (thread_obj, priority) in spawns {
            out.push(Effect::Spawn { now, thread_obj, priority });
        }
        if self.tracing {
            out.push(Effect::FlushTrace { now });
        }
    }

    /// Run one CPU quantum of `thread` at virtual `time`.
    pub fn run_slice(&mut self, time: u64, cpu: usize, thread: ThreadUid, out: &mut Vec<Effect>) -> SliceResult {
        let fuel = self.fuel;
        let tracing = self.tracing;
        let mut res = SliceResult::default();
        let slot = self.slot_of(thread);
        if slot == DEAD_SLOT {
            self.cpu_busy[cpu] = false;
            return res;
        }
        let node = self.id;
        // Buffered locally: trace effects are appended once the interpreter
        // borrow ends, in the order the monolithic scheduler recorded them.
        let mut tev: Vec<(u64, TraceEvent)> = Vec::new();
        let end = {
            let th = self.threads[slot as usize].as_mut().expect("live thread slot");
            self.env.set_now(time);
            let model = self.model;
            let step = {
                let mut ctx = StepCtx { image: &self.image, heap: &mut self.heap, env: &mut self.env, cost: model };
                if let Some(pim) = &self.pimage {
                    pcode::step(th, &mut ctx, pim, fuel)
                } else if let Some(stats) = self.opstats.as_deref_mut() {
                    interp::step_with_stats(th, &mut ctx, fuel, stats)
                } else {
                    interp::step(th, &mut ctx, fuel)
                }
            };
            match step {
                Ok(o) => {
                    let end = time + o.cost.max(1);
                    self.cpu_free[cpu] = end;
                    self.cpu_busy[cpu] = false;
                    self.ops += o.ops;
                    res.ops = o.ops;
                    if tracing {
                        tev.push((time, TraceEvent::Slice { node, cpu: cpu as u32, thread, end, ops: o.ops }));
                    }
                    match o.state {
                        StepState::Running => {
                            self.in_ready[thread as usize] = true;
                            self.ready.push_back(thread);
                        }
                        StepState::Blocked => {
                            if tracing {
                                let reason = self.env.take_block_reason();
                                tev.push((end, TraceEvent::ThreadBlock { node, thread, reason }));
                            }
                        }
                        StepState::Done => {
                            let th = self.remove_thread(slot);
                            self.thread_slot[thread as usize] = DEAD_SLOT;
                            res.exited = true;
                            self.finish_time = self.finish_time.max(end);
                            if tracing {
                                tev.push((end, TraceEvent::ThreadExit { node, thread }));
                            }
                            // Thread exit is a release point: flush its
                            // interval now so joiners don't wait behind it,
                            // and hand the Thread object's lock back to its
                            // home, where the joiner lives.
                            if let NodeEnv::Js(e) = &mut self.env {
                                e.dsm.flush_interval(&mut self.heap);
                                if let Some(tobj) = th.thread_obj {
                                    if let Some(gid) = self.heap.get(tobj).dsm.gid {
                                        e.dsm.release_ownership_to_home(&mut self.heap, gid);
                                    }
                                }
                            }
                        }
                    }
                    end
                }
                Err(e) => {
                    let end = time + 1;
                    self.cpu_free[cpu] = end;
                    self.cpu_busy[cpu] = false;
                    let th = self.remove_thread(slot);
                    self.thread_slot[thread as usize] = DEAD_SLOT;
                    res.exited = true;
                    self.errors.push((thread, e));
                    self.finish_time = self.finish_time.max(end);
                    if tracing {
                        tev.push((time, TraceEvent::Slice { node, cpu: cpu as u32, thread, end, ops: 0 }));
                        tev.push((end, TraceEvent::ThreadExit { node, thread }));
                    }
                    // A trapped thread is still a release point (it can
                    // never run again): flush its interval, force-drop any
                    // monitors it still holds so blocked siblings don't
                    // deadlock, and hand its Thread object's lock home for
                    // the joiner — mirroring normal termination above.
                    if let NodeEnv::Js(env) = &mut self.env {
                        env.dsm.flush_interval(&mut self.heap);
                        env.dsm.release_all_held(&mut self.heap, thread);
                        if let Some(tobj) = th.thread_obj {
                            if let Some(gid) = self.heap.get(tobj).dsm.gid {
                                env.dsm.release_ownership_to_home(&mut self.heap, gid);
                            }
                        }
                    }
                    end
                }
            }
        };
        for (t, ev) in tev {
            out.push(Effect::Trace { t, ev });
        }
        self.drain_effects(end, out);
        self.schedule(end, out);
        res
    }

    /// Handle a delivered DSM protocol message at virtual `time` (anything
    /// but `Println`/`SpawnThread`, which the driver routes itself).
    pub fn handle_dsm(&mut self, time: u64, msg: Msg, out: &mut Vec<Effect>) {
        let handler_ps = {
            let env = self.env.js();
            env.dsm.handle(&mut self.heap, &self.image, msg);
            self.model.handler_fixed_ns * 1_000
        };
        self.drain_effects(time + handler_ps, out);
    }

    /// The entry frame of a started thread: `threadMain(thread_obj)`.
    pub fn thread_frame(&self, thread_obj: ObjRef) -> Frame {
        let locals = self.image.method(self.thread_main).max_locals;
        Frame::new(self.thread_main, locals, vec![jsplit_mjvm::Value::Ref(thread_obj)], false)
    }

    /// Install a thread object shipped by `src` (driver-allocated `uid`),
    /// schedule it and drain the install's effects — the `SpawnThread`
    /// delivery path.
    #[allow(clippy::too_many_arguments)]
    pub fn install_spawned_thread(
        &mut self,
        uid: ThreadUid,
        src: NodeId,
        thread_gid: jsplit_mjvm::heap::Gid,
        class: u32,
        state: &jsplit_dsm::WireState,
        priority: i32,
        time: u64,
        out: &mut Vec<Effect>,
    ) {
        self.placement.credit(src);
        let obj = {
            let image = self.image.clone();
            let env = self.env.js();
            env.dsm.install_spawned(&mut self.heap, &image, thread_gid, class, state)
        };
        let frame = self.thread_frame(obj);
        self.add_thread(uid, frame, Some(obj), time, out);
        self.set_priority(uid, priority);
        self.drain_effects(time, out);
    }

    /// Share and serialize a locally started thread for shipping (§2).
    pub fn prepare_spawn(&mut self, thread_obj: ObjRef, priority: i32) -> Msg {
        self.env.js().dsm.prepare_spawn(&mut self.heap, thread_obj, priority)
    }

    /// The image this node executes.
    pub fn image(&self) -> &Arc<Image> {
        &self.image
    }
}
