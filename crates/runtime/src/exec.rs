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

use crate::config::{Backend, ClusterConfig, Mode, NodeSpec};
use crate::driver::{self, EventQueue, Host, NodeEv, Prepared};
use crate::node::{Effect, LocalEv, NodeRuntime};
use crate::report::{NodeResult, RunReport};
use crate::telemetry::Telemetry;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::heap::ThreadUid;
use jsplit_net::{Network, NodeId};
use jsplit_trace::{make_sink, MetricsRegistry, TraceEvent, TraceSink};
use std::sync::Arc;

pub use crate::driver::ClusterError;

/// A scheduled event.
enum Ev {
    /// One node's CPU slice, sleeper wake or message delivery.
    Node(NodeId, NodeEv),
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
    /// Virtual time spent distributing class files before the run.
    setup_ps: u64,
    /// Structured event recorder (`None` = tracing disabled, the default;
    /// every producer site checks this before doing any work).
    recorder: Option<Box<dyn TraceSink + Send>>,
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

        let recorder = config.trace.map(make_sink);
        let metrics = config.metrics.as_ref().map(|_| MetricsRegistry::new(nodes.len()));
        let mut cluster = Cluster {
            config,
            prepared,
            nodes,
            net,
            events: EventQueue::new(),
            next_uid: 0,
            live_threads: 0,
            ops: 0,
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

        cluster.start_main();

        // Setup-phase activity (statics bootstrap, class shipping) is part
        // of the trace too; stamp its buffered DSM events at t = 0.
        for n in 0..cluster.nodes.len() {
            cluster.flush_trace(n as NodeId, 0);
        }

        Ok(cluster)
    }

    fn push(&mut self, time: u64, ev: Ev) {
        self.events.push(time, (), ev);
    }

    /// Spawned-but-undelivered threads: shipped by some node, installed by
    /// none yet.
    fn spawns_in_flight(&self) -> u64 {
        let (shipped, installed) =
            self.nodes.iter().fold((0, 0), |(s, i), n| (s + n.placement.shipped(), i + n.placement.installed()));
        shipped - installed
    }

    /// Publish every node's counters into the live-metrics registry. The
    /// sim driver is single-threaded, so the per-node horizon gauges of the
    /// threads backend all collapse to the one global virtual clock here
    /// (lag is identically zero, as it should be for a sequential
    /// scheduler). Mid-run joiners beyond the registry's initial size are
    /// not sampled — the registry is fixed at creation.
    fn publish_metrics(&self, now: u64) {
        let Some(reg) = &self.metrics else { return };
        for (node, net) in self.nodes.iter().zip(&self.net.stats).take(reg.n_nodes()) {
            driver::publish_node_cells(reg, node, net, [now; 3]);
        }
    }

    fn join_worker(&mut self, time: u64, spec: NodeSpec) {
        let id = self.net.add_node(driver::link_params(spec));
        let image = self.prepared.image.clone();
        let mut w = NodeRuntime::new(id, spec, &self.config, &self.prepared);
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
        // Every origin's load estimate learns of the (idle) newcomer.
        for n in &mut self.nodes {
            n.placement.grow();
        }
        self.nodes.push(w);
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
            if self.live_threads == 0 && self.spawns_in_flight() == 0 {
                break;
            }
            if self.ops > self.config.max_ops {
                aborted = true;
                break;
            }
            match ev {
                Ev::Node(node, ev) => {
                    let r = self.process(time, node, ev);
                    self.ops += r.ops;
                    if r.exited {
                        self.live_threads -= 1;
                    }
                }
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
            self.flush_trace(n as NodeId, finish);
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

/// The sim's side of the node event path: one global queue (ties at equal
/// times break by insertion order, whatever the step), the virtual-time
/// network, dense global uids, one global recorder.
impl Host for Cluster {
    fn node(&mut self, id: NodeId) -> &mut NodeRuntime {
        &mut self.nodes[id as usize]
    }

    fn fx(&mut self) -> &mut Vec<Effect> {
        &mut self.fx
    }

    fn schedule(&mut self, node: NodeId, time: u64, _step: u64, ev: LocalEv) {
        self.push(time, Ev::Node(node, NodeEv::Local(ev)));
    }

    /// Priced from `wire_len()`: nothing is encoded under this driver.
    fn transmit(&mut self, now: u64, _step: u64, src: NodeId, dst: NodeId, msg: jsplit_dsm::Msg) {
        let at = self.net.send(now, src, dst, msg.wire_len(), msg.kind());
        self.push(at, Ev::Node(dst, NodeEv::Deliver { src, msg }));
    }

    /// Dense and global; the thread counts as live from here on.
    fn alloc_uid(&mut self) -> ThreadUid {
        self.live_threads += 1;
        self.next_uid += 1;
        self.next_uid - 1
    }

    #[inline]
    fn record(&mut self, t: u64, ev: TraceEvent) {
        if let Some(r) = &mut self.recorder {
            r.record(jsplit_trace::Event { t, ev });
        }
    }

    fn flush_trace(&mut self, node: NodeId, now: u64) {
        if let Some(r) = &mut self.recorder {
            driver::flush_trace(r.as_mut(), self.nodes[node as usize].take_dsm_trace(), &mut self.net.trace, now);
        }
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
