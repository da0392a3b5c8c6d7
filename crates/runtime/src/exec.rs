//! The virtual-time driver: discrete-event simulation over the node
//! runtimes (the "runtime" of the paper's §2, with the testbed of §6 as
//! its virtual-time model).
//!
//! One global event queue orders CPU slices and message deliveries by
//! virtual time (ties broken by insertion order, so runs are bit-for-bit
//! deterministic). Each [`NodeRuntime`] owns a heap, a DSM engine, a ready
//! queue and `cpus_per_node` virtual CPUs; threads are green threads whose
//! instruction costs advance their CPU's clock per the node's JVM-brand
//! cost model. This driver is the *reference semantics*: the threads
//! backend ([`crate::threads`]) must agree with it on program output and
//! protocol counters.

use crate::balance::{BalancerState, LoadBalancer};
use crate::config::{Backend, ClusterConfig, Mode, NodeSpec};
use crate::driver::{self, EventQueue, Prepared};
use crate::env::CONSOLE_NODE;
use crate::node::{Effect, LocalEv, NodeRuntime};
use crate::report::{NodeResult, RunReport};
use crate::telemetry::Telemetry;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::heap::{ObjRef, ThreadUid};
use jsplit_mjvm::interp::Frame;
use jsplit_mjvm::Value;
use jsplit_net::{Network, NodeId};
use jsplit_trace::{make_sink, Metric, MetricsRegistry, TraceEvent, TraceSink};
use std::sync::Arc;

pub use crate::driver::ClusterError;

/// A scheduled event.
enum Ev {
    /// A node-local event (CPU slice or sleeper wake).
    Local { node: NodeId, ev: LocalEv },
    /// Deliver a protocol/runtime message.
    Deliver { dst: NodeId, msg: jsplit_dsm::Msg },
    /// A new worker joins the pool (paper §2).
    Join { spec: NodeSpec },
}

/// The distributed runtime under the deterministic virtual-time driver.
pub struct Cluster {
    config: ClusterConfig,
    prepared: Prepared,
    nodes: Vec<NodeRuntime>,
    net: Network,
    /// The one global queue, ordered by (time, insertion).
    events: EventQueue<(), Ev>,
    next_uid: ThreadUid,
    live_threads: usize,
    ops: u64,
    lb: BalancerState,
    /// Spawns dispatched but not yet delivered, per node — counted into the
    /// load-balancing loads so a burst of starts still spreads out.
    in_flight: Vec<u32>,
    /// Virtual time spent distributing class files before the run.
    setup_ps: u64,
    /// Structured event recorder (`None` = tracing disabled, the default;
    /// every producer site checks this before doing any work).
    recorder: Option<Box<dyn TraceSink>>,
    /// Scratch buffer for node effect drains, reused across events.
    fx: Vec<Effect>,
    /// Live-metrics registry (`None` = metrics off, the default; the
    /// publish path is one untaken branch per event batch).
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Cluster {
    /// Prepare a run: rewrite (JavaSplit mode), load, create workers, set up
    /// the shared `C_static` singletons and place `main` on worker 0.
    pub fn new(config: ClusterConfig, program: &Program) -> Result<Cluster, ClusterError> {
        let prepared = driver::prepare(&config, program)?;

        let links = config.nodes.iter().map(|s| driver::link_params(*s)).collect();
        let mut net = Network::new(links);
        if config.trace.is_some() {
            net.trace = Some(Vec::new());
        }

        let mut nodes = driver::build_nodes(&config, &prepared);
        let setup_ps = driver::set_up_pool(&config, &prepared, &mut nodes, &mut net);

        // Sized eagerly for the initial pool (and grown in `join_worker`),
        // never lazily in the dispatch path.
        let in_flight = vec![0; nodes.len()];
        let recorder = config.trace.map(make_sink);
        let metrics = config.metrics.as_ref().map(|_| MetricsRegistry::new(nodes.len()));
        let mut cluster = Cluster {
            lb: BalancerState::new(config.balancer),
            config,
            prepared,
            nodes,
            net,
            events: EventQueue::new(),
            next_uid: 0,
            live_threads: 0,
            ops: 0,
            in_flight,
            setup_ps,
            recorder,
            fx: Vec::new(),
            metrics,
        };

        // Mid-run joins.
        let joins = cluster.config.joins.clone();
        for (t, spec) in joins {
            cluster.push(t, Ev::Join { spec });
        }

        // The main thread starts on worker 0 (§2: the rewritten classes are
        // sent to one of the worker nodes that starts executing main()).
        let main = cluster.prepared.image.main_method;
        let locals = cluster.prepared.image.method(main).max_locals;
        let frame = Frame::new(main, locals, vec![], false);
        cluster.add_thread(CONSOLE_NODE, frame, None, 0);

        // Setup-phase activity (statics bootstrap, class shipping) is part
        // of the trace too; stamp its buffered DSM events at t = 0.
        for n in 0..cluster.nodes.len() {
            cluster.drain_trace_buffers(n as NodeId, 0);
        }

        Ok(cluster)
    }

    /// Record one trace event at virtual time `t` (no-op when disabled).
    #[inline]
    fn tr(&mut self, t: u64, ev: TraceEvent) {
        if let Some(r) = &mut self.recorder {
            r.record(jsplit_trace::Event { t, ev });
        }
    }

    /// Stamp and flush `node`'s buffered trace events at `now` (no-op when
    /// disabled).
    fn drain_trace_buffers(&mut self, node: NodeId, now: u64) {
        if let Some(r) = &mut self.recorder {
            driver::flush_trace(r.as_mut(), self.nodes[node as usize].take_dsm_trace(), &mut self.net.trace, now);
        }
    }

    fn push(&mut self, time: u64, ev: Ev) {
        self.events.push(time, (), ev);
    }

    /// Execute a node's ordered effect stream. Effects become event-queue
    /// pushes in emission order, which is what makes the refactored driver
    /// bit-identical to the old monolithic scheduler: global sequence
    /// numbers are assigned exactly where they always were.
    fn apply_effects(&mut self, node: NodeId) {
        let mut fx = std::mem::take(&mut self.fx);
        for f in fx.drain(..) {
            match f {
                Effect::Local { time, ev } => self.push(time, Ev::Local { node, ev }),
                Effect::Send { at, dst, msg } => self.transmit(at, node, dst, msg),
                Effect::Spawn { now, thread_obj, priority } => self.dispatch_spawn(node, thread_obj, priority, now),
                Effect::Trace { t, ev } => self.tr(t, ev),
                Effect::FlushTrace { now } => self.drain_trace_buffers(node, now),
            }
        }
        // Hand the (drained) scratch buffer back for the next event.
        self.fx = fx;
    }

    /// Run `f` on `node` with the effect scratch buffer, then execute the
    /// effects it emitted.
    fn on_node<R>(&mut self, node: NodeId, f: impl FnOnce(&mut NodeRuntime, &mut Vec<Effect>) -> R) -> R {
        debug_assert!(self.fx.is_empty());
        let mut fx = std::mem::take(&mut self.fx);
        let r = f(&mut self.nodes[node as usize], &mut fx);
        self.fx = fx;
        self.apply_effects(node);
        r
    }

    /// The next thread uid (dense and global under this driver); its
    /// thread counts as live from here on.
    fn alloc_uid(&mut self) -> ThreadUid {
        self.live_threads += 1;
        self.next_uid += 1;
        self.next_uid - 1
    }

    fn add_thread(&mut self, node: NodeId, frame: Frame, thread_obj: Option<ObjRef>, now: u64) {
        let uid = self.alloc_uid();
        self.on_node(node, |n, fx| n.add_thread(uid, frame, thread_obj, now, fx));
    }

    fn transmit(&mut self, now: u64, src: NodeId, dst: NodeId, msg: jsplit_dsm::Msg) {
        let bytes = msg.wire_len();
        let at = self.net.send(now, src, dst, bytes, msg.kind());
        self.push(at, Ev::Deliver { dst, msg });
    }

    /// Place a newly started thread per the load-balancing function (§2).
    fn dispatch_spawn(&mut self, origin: NodeId, thread_obj: ObjRef, priority: i32, now: u64) {
        match self.config.mode {
            Mode::Baseline => {
                let thread_main = self.prepared.thread_main;
                let m = self.prepared.image.method(thread_main);
                let frame = Frame::new(thread_main, m.max_locals, vec![Value::Ref(thread_obj)], false);
                self.add_thread(origin, frame, Some(thread_obj), now);
            }
            Mode::JavaSplit => {
                let loads: Vec<usize> = self
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(i, w)| w.live() + self.in_flight[i] as usize)
                    .collect();
                let dst = self.lb.pick(&loads, origin);
                self.in_flight[dst as usize] += 1;
                let msg = self.nodes[origin as usize].prepare_spawn(thread_obj, priority);
                if let jsplit_dsm::Msg::SpawnThread { thread_gid, .. } = &msg {
                    self.tr(now, TraceEvent::ThreadShip { from: origin, to: dst, thread_gid: thread_gid.0 });
                }
                // Shipping may have shared objects; nothing else to drain
                // (prepare_spawn itself queues no sends).
                self.transmit(now, origin, dst, msg);
            }
        }
    }

    fn run_slice(&mut self, time: u64, node: NodeId, cpu: usize, thread: ThreadUid) {
        let r = self.on_node(node, |n, fx| n.run_slice(time, cpu, thread, fx));
        self.ops += r.ops;
        if r.exited {
            self.live_threads -= 1;
        }
    }

    fn deliver(&mut self, time: u64, dst: NodeId, msg: jsplit_dsm::Msg) {
        match msg {
            jsplit_dsm::Msg::Println { line, .. } => {
                // Forwarded console output lands in the console node's own
                // buffer so local and remote lines stay in arrival order.
                self.nodes[dst as usize].push_console(line);
            }
            jsplit_dsm::Msg::SpawnThread { thread_gid, class, state, priority } => {
                let slot = &mut self.in_flight[dst as usize];
                *slot = slot.saturating_sub(1);
                let (uid, thread_main) = (self.alloc_uid(), self.prepared.thread_main);
                self.on_node(dst, |n, fx| {
                    n.install_spawned_thread(uid, thread_gid, class, &state, priority, thread_main, time, fx)
                });
            }
            other => self.on_node(dst, |n, fx| n.handle_dsm(time, other, fx)),
        }
    }

    fn wake(&mut self, time: u64, node: NodeId, thread: ThreadUid) {
        self.on_node(node, |n, fx| n.make_ready(thread, time, fx));
    }

    /// Publish every node's counters into the live-metrics registry. The
    /// sim driver is single-threaded, so the per-node horizon gauges of the
    /// threads backend all collapse to the one global virtual clock here
    /// (lag is identically zero, as it should be for a sequential
    /// scheduler). Mid-run joiners beyond the registry's initial size are
    /// not sampled — the registry is fixed at creation.
    fn publish_metrics(&self, now: u64) {
        let Some(reg) = &self.metrics else { return };
        for (i, node) in self.nodes.iter().enumerate().take(reg.n_nodes()) {
            let id = i as NodeId;
            reg.set(id, Metric::Ops, node.ops);
            reg.set(id, Metric::LiveThreads, node.live() as u64);
            reg.set(id, Metric::HorizonPs, now);
            reg.set(id, Metric::NextEventPs, now);
            reg.set(id, Metric::QueueHeadPs, now);
            driver::publish_node_cells(reg, id, &self.net.stats[i], node.dsm_stats_ref());
        }
    }

    fn join_worker(&mut self, time: u64, spec: NodeSpec) {
        let id = self.net.add_node(driver::link_params(spec));
        let image = self.prepared.image.clone();
        let mut w = NodeRuntime::new(id, spec, &self.config, image.clone(), self.prepared.thread_class);
        // The joiner downloads the rewritten classes first (the paper's
        // applet workers fetch them over HTTP).
        if self.config.mode == Mode::JavaSplit {
            let at = driver::ship_classes(&mut self.net, time, id, self.prepared.class_bytes);
            w.set_cpu_floor(at);
        }
        // Late joiners also need the statics singletons (paper: new nodes
        // join "simply by pointing a browser at the worker applet").
        if self.config.mode == Mode::JavaSplit {
            let singletons = driver::singleton_specs(&mut self.nodes[0], &image);
            driver::install_singletons(&mut w, &image, &singletons);
        }
        self.nodes.push(w);
        self.in_flight.push(0);
    }

    /// Run to completion and produce the report.
    pub fn run(mut self) -> RunReport {
        let started = std::time::Instant::now();
        // Side-band sampler: reads the registry on its own thread, never
        // touches virtual time (no watchdog or flight recorder here — the
        // sim driver cannot stall on a peer).
        let telemetry = driver::start_telemetry(self.config.metrics.as_ref(), self.metrics.as_ref(), None, None);
        let mut aborted = false;
        let mut processed: u64 = 0;
        while let Some((time, ev)) = self.events.pop() {
            processed += 1;
            if self.metrics.is_some() && processed.is_multiple_of(4096) {
                self.publish_metrics(time);
            }
            // Spawned-but-undelivered threads count as live: a main that
            // exits immediately after `start()` must not end the run.
            let spawning: u32 = self.in_flight.iter().sum();
            if self.live_threads == 0 && spawning == 0 {
                break;
            }
            if self.ops > self.config.max_ops {
                aborted = true;
                break;
            }
            match ev {
                Ev::Local { node, ev: LocalEv::Slice { cpu, thread } } => self.run_slice(time, node, cpu, thread),
                Ev::Local { node, ev: LocalEv::Wake { thread } } => self.wake(time, node, thread),
                Ev::Deliver { dst, msg } => self.deliver(time, dst, msg),
                Ev::Join { spec } => self.join_worker(time, spec),
            }
        }
        let deadlocked = self.live_threads > 0 && !aborted;
        // Flush every worker's remaining buffered trace events at the
        // horizon, then canonicalize the stream: per-node recording order
        // is kept, cross-node ties at equal t break by node id, and thread
        // uids are renamed by first appearance — the same normal form the
        // threads driver produces from its per-node sinks, so traces are
        // byte-comparable across backends.
        let finish = self.nodes.iter().map(|n| n.finish_time).max().unwrap_or(0);
        for n in 0..self.nodes.len() {
            self.drain_trace_buffers(n as NodeId, finish);
        }
        self.publish_metrics(finish);
        let telemetry = telemetry.map(Telemetry::finish);
        let trace = self.recorder.take().map(|r| jsplit_trace::canonicalize(r.into_events()));
        // The outcome, the queue and the setup window are the cluster's:
        // every node reports the same ones.
        let (slab_high_water, setup_ps) = (self.events.high_water(), self.setup_ps);
        let results = self
            .nodes
            .into_iter()
            .zip(self.net.stats)
            .map(|(node, net)| NodeResult { deadlocked, aborted, slab_high_water, setup_ps, ..node.into_result(net) })
            .collect();
        RunReport::assemble(&self.config, self.prepared, started, results, trace, None, telemetry)
    }
}

/// Convenience: configure-and-run in one call, dispatching on the
/// configured [`Backend`].
pub fn run_cluster(config: ClusterConfig, program: &Program) -> Result<RunReport, ClusterError> {
    match config.backend {
        Backend::Sim => Ok(Cluster::new(config, program)?.run()),
        Backend::Threads => Ok(crate::threads::ThreadsDriver::new(config, program)?.run()),
        Backend::Sockets => crate::sockets::SocketsDriver::new(config, program)?.run(),
    }
}
