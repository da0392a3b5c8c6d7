//! The multi-threaded driver: each [`NodeRuntime`] on its own OS thread,
//! protocol messages crossing channels as *encoded bytes* — the paper's
//! actual deployment shape (§2: independent runtimes on commodity
//! workstations exchanging messages), where the sim driver is its
//! deterministic reference model.
//!
//! The conservative-sync protocol itself — the drain → horizon → execute →
//! publish loop, the per-pair horizon rule, the async send-coverage machinery
//! and the termination proofs — lives in [`crate::engine`], backend-
//! independent. This module is the *instantiation* over one address space:
//!
//! * frames cross [`ChannelEndpoint`] in-process channels,
//! * the epoch protocol's four primitives ([`crate::engine::EpochPeers`])
//!   are shared-memory: a `std::sync::Barrier` for the round barrier and
//!   seqlock-style [`NodeSlot`]s (plain stores + an epoch-counter release
//!   store; waiters spin briefly, then park on a condvar) for
//!   publish/wait/read,
//! * async mode shares an [`engine::AsyncShared`] directly — published
//!   slots, per-pair ack cells and CAS-decided termination, which only
//!   exist because the peers *can* share memory (the sockets backend
//!   replaces all of it with coordinator-side counting, DESIGN.md §16.3).
//!
//! Each epoch round: flush pending frames, cross the barrier (after it,
//! everything peers sent in the previous window is in our channel), drain,
//! publish per-node aggregates, wait for all peers' epochs, and derive the
//! same global decision on every thread — finish, abort, deadlock, or a
//! window horizon (argument in the engine docs).
//!
//! ## Tracing and profiling
//!
//! Virtual-time tracing works here too: each node records its own events
//! into a private `TraceSink` (no cross-thread synchronization), and the
//! driver merges the per-node streams at join through
//! [`jsplit_trace::canonicalize`] — the same normal form the sim driver
//! applies to its global recording — so a traced threads run produces a
//! byte-identical event stream to the sim backend (asserted by the
//! differential trace test). Wall-clock profiling ([`ClusterConfig`]'s
//! `profile`) adds a per-node [`SpanRecorder`]: boundary-timestamp marks
//! around each phase of the epoch loop (flush / barrier / drain / decide /
//! spin / condvar / execute), so the span categories tile each thread's
//! wall time exactly; disabled runs pay one `Option` branch per site.
//!
//! Restrictions vs the sim driver: no mid-run joins, and the `max_ops`
//! abort guard is enforced at window granularity rather than per event.

use crate::config::{ClusterConfig, SyncMode};
use crate::driver::{self, ClusterError, Prepared};
use crate::engine::{AsyncShared, EpochPeers, EpochSlot, Horizons, NodeOutcome, SyncEngine};
use crate::env::CONSOLE_NODE;
use crate::node::NodeRuntime;
use crate::report::RunReport;
use crate::telemetry::Telemetry;
use jsplit_net::{ChannelEndpoint, MeshSetup, NodeId};
use jsplit_trace::{FlightRecorder, MetricsRegistry, WallProfile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};

/// Per-node aggregates, published once per round. Field stores are plain
/// (`Relaxed`); the `epoch` release store makes them visible, seqlock
/// style — a reader that has observed `epoch ≥ r` reads round-`r` values.
/// A slot is never overwritten while readable: publishing round `r+1`
/// happens after the round-`r+1` barrier, which no peer reaches before it
/// finished reading round `r`.
#[derive(Default)]
struct NodeSlot {
    next_event: AtomicU64,
    live: AtomicU64,
    spawns_sent: AtomicU64,
    spawns_recv: AtomicU64,
    ops: AtomicU64,
    /// Publication counter: holds the latest round whose values are
    /// readable from this slot.
    epoch: AtomicU64,
}

struct Shared {
    slots: Vec<NodeSlot>,
    /// The one barrier per round, separating "all sends of the previous
    /// window are flushed" from "drain and decide".
    barrier: Barrier,
    /// Blocking fallback for the epoch wait: a publisher that stored its
    /// epoch takes this lock and notifies; a waiter whose short spin
    /// failed re-checks under the lock and parks. On machines with a core
    /// per node the spin almost always wins; on oversubscribed hosts
    /// parking beats a `yield_now` storm.
    epoch_lock: Mutex<()>,
    epoch_cv: Condvar,
}

impl Shared {
    /// Publish node `me`'s epoch counter for `round` and wake parked
    /// waiters. The lock round-trip *between* the store and the notify is
    /// what closes the lost-wakeup window: a waiter that missed the store
    /// in its spin holds the lock from its re-check until it parks, so this
    /// publisher either sees the re-check succeed (waiter never parks) or
    /// blocks here until the waiter is parked and notifiable.
    fn publish_epoch(&self, me: usize, round: u64) {
        self.slots[me].epoch.store(round, Ordering::Release);
        drop(self.epoch_lock.lock().unwrap());
        self.epoch_cv.notify_all();
    }

    fn epochs_published(&self, round: u64) -> bool {
        self.slots.iter().all(|s| s.epoch.load(Ordering::Acquire) >= round)
    }

    /// Wait until every node has published `round`: a short spin, then a
    /// parked (untimed) condvar wait. Returns whether the wait parked.
    /// `before_park` runs once, after the spin budget is exhausted and
    /// before the parking path's locked re-check — the epoch loop hangs
    /// its profiling mark there, and the lost-wakeup regression test
    /// injects a publisher to force the publish-between-spin-and-park
    /// interleaving. The wait is untimed on purpose: the publish protocol
    /// above makes a missed wakeup impossible, and the 200µs timeout the
    /// pre-async driver carried as a crutch cost a spurious-wakeup storm
    /// per round on oversubscribed hosts.
    fn wait_epochs(&self, round: u64, before_park: &mut dyn FnMut()) -> bool {
        let mut spins = 0u32;
        let mut parked = false;
        while !self.epochs_published(round) {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                if !parked {
                    parked = true;
                    before_park();
                }
                let guard = self.epoch_lock.lock().unwrap();
                if self.epochs_published(round) {
                    break;
                }
                drop(self.epoch_cv.wait(guard).unwrap());
            }
        }
        parked
    }
}

/// The shared-memory instantiation of the epoch protocol: the engine's
/// four primitives mapped onto the barrier + seqlock slots above. The
/// publish's release store pairs with the wait/read side's acquire loads —
/// the Release/Acquire contract [`EpochPeers`] names.
struct ThreadPeers {
    shared: Arc<Shared>,
}

impl EpochPeers for ThreadPeers {
    fn barrier(&mut self) {
        self.shared.barrier.wait();
    }

    fn publish(&mut self, me: NodeId, round: u64, slot: &EpochSlot) {
        let s = &self.shared.slots[me as usize];
        s.next_event.store(slot.next_event, Ordering::Relaxed);
        s.live.store(slot.live, Ordering::Relaxed);
        s.spawns_sent.store(slot.spawns_sent, Ordering::Relaxed);
        s.spawns_recv.store(slot.spawns_recv, Ordering::Relaxed);
        s.ops.store(slot.ops, Ordering::Relaxed);
        // Wake anyone parked on the epoch ([`Shared::publish_epoch`]'s
        // lock round-trip is what makes a missed wakeup impossible).
        self.shared.publish_epoch(me as usize, round);
    }

    fn wait(&mut self, round: u64, before_park: &mut dyn FnMut()) -> bool {
        self.shared.wait_epochs(round, before_park)
    }

    fn read(&mut self, _round: u64, out: &mut [EpochSlot]) {
        for (s, o) in self.shared.slots.iter().zip(out.iter_mut()) {
            o.next_event = s.next_event.load(Ordering::Relaxed);
            o.live = s.live.load(Ordering::Relaxed);
            o.spawns_sent = s.spawns_sent.load(Ordering::Relaxed);
            o.spawns_recv = s.spawns_recv.load(Ordering::Relaxed);
            o.ops = s.ops.load(Ordering::Relaxed);
        }
    }
}

/// The multi-threaded backend.
pub struct ThreadsDriver {
    config: ClusterConfig,
    prepared: Prepared,
    nodes: Vec<NodeRuntime>,
    endpoints: Vec<ChannelEndpoint>,
    setup_ps: u64,
}

impl ThreadsDriver {
    /// Prepare a run: rewrite, load, build the channel mesh and the node
    /// runtimes, ship classes, bootstrap statics — the same setup sequence
    /// as the sim driver, against the channel transport.
    pub fn new(config: ClusterConfig, program: &jsplit_mjvm::class::Program) -> Result<ThreadsDriver, ClusterError> {
        if !config.joins.is_empty() {
            return Err(ClusterError::Config("the threads backend does not support mid-run joins; use the sim backend".into()));
        }
        let prepared = driver::prepare(&config, program)?;
        let links: Vec<_> = config.nodes.iter().map(|s| driver::link_params(*s)).collect();
        let mut endpoints = ChannelEndpoint::mesh(&links, true);
        // Arm the per-endpoint trace/histogram buffers *before* class
        // shipping so setup-phase `NetSend`s are captured, like the sim's
        // global network trace.
        if config.trace.is_some() {
            for ep in &mut endpoints {
                ep.trace = Some(Vec::new());
            }
        }
        if config.profile || config.trace.is_some() {
            for ep in &mut endpoints {
                ep.frame_hist = Some(jsplit_trace::LogHist::new());
            }
        }
        let mut nodes = driver::build_nodes(&config, &prepared);
        let setup_ps = driver::set_up_pool(&config, &prepared, &mut nodes, &mut MeshSetup(&mut endpoints));
        Ok(ThreadsDriver { config, prepared, nodes, endpoints, setup_ps })
    }

    /// Run to completion: one OS thread per node, then merge the outcomes
    /// into the same [`RunReport`] shape the sim driver produces.
    pub fn run(self) -> RunReport {
        let started = std::time::Instant::now();
        let n = self.nodes.len();
        let shared = Arc::new(Shared {
            slots: (0..n).map(|_| NodeSlot::default()).collect(),
            barrier: Barrier::new(n),
            epoch_lock: Mutex::new(()),
            epoch_cv: Condvar::new(),
        });
        // Async sync mode swaps the epoch loop for the barrier-free burst
        // loop, sharing termination state directly.
        let asy = (self.config.sync == SyncMode::Async).then(|| Arc::new(AsyncShared::new(n)));
        // Live telemetry: registry + flight recorder shared with the node
        // threads, sampler/watchdog on a side-band thread. All `None`
        // without `--metrics` — the hot paths then pay one untaken branch.
        let metrics_cfg = self.config.metrics.clone();
        let registry = metrics_cfg.as_ref().map(|_| MetricsRegistry::new(n));
        let flight = metrics_cfg.as_ref().map(|_| FlightRecorder::new(n));
        if let Some(f) = &flight {
            jsplit_trace::arm_panic_dump(f);
        }
        let base_ps = Horizons::of(&self.config).base_ps;
        let telemetry = driver::start_telemetry(metrics_cfg.as_ref(), registry.as_ref(), flight.clone(), Some(base_ps));
        let trace_mode = self.config.trace;
        // Tracing implies span profiling; raw spans (the Chrome real-time
        // lanes) are only worth their memory when a trace export was
        // requested. `started` is the shared cross-thread span axis.
        let spans = (self.config.profile || trace_mode.is_some()).then_some((started, trace_mode.is_some()));

        let mut handles = Vec::with_capacity(n);
        for (node, endpoint) in self.nodes.into_iter().zip(self.endpoints) {
            let shared = shared.clone();
            let mut eng = SyncEngine::new(node, endpoint, &self.config);
            eng.asy = asy.clone();
            eng.metrics = registry.clone();
            eng.flight = flight.clone();
            handles.push(std::thread::spawn(move || {
                eng.start(spans);
                if eng.asy.is_some() {
                    eng.run_async()
                } else {
                    eng.run_epoch(&mut ThreadPeers { shared })
                }
            }));
        }
        // Joined in spawn order, so slice index = node id.
        let mut outcomes: Vec<NodeOutcome> =
            handles.into_iter().map(|h| h.join().expect("node thread panicked")).collect();
        // Stop the sampler (it takes one closing sample of the final
        // published counters) and fold the time series into the report.
        let telemetry = telemetry.map(Telemetry::finish);
        if let Some(f) = &flight {
            jsplit_trace::disarm_panic_dump(f);
        }
        // Class distribution was accounted centrally in `new`.
        outcomes[CONSOLE_NODE as usize].result.setup_ps = self.setup_ps;
        // Merge the per-node streams into the sim's canonical normal form:
        // close each node's sink at the global finish time, concatenate in
        // node order, then canonicalize — the result is byte-identical to a
        // sim trace of the same program as long as each node records the
        // same per-node event sequence, which the differential trace tests
        // assert.
        let trace = trace_mode.map(|_| {
            let finish = outcomes.iter().map(|o| o.result.finish_time).max().unwrap_or(0);
            let all = outcomes.iter_mut().filter_map(|o| o.trace.take()).flat_map(|t| t.close(finish)).collect();
            jsplit_trace::canonicalize(all)
        });
        let wall =
            spans.map(|_| WallProfile { nodes: outcomes.iter_mut().filter_map(|o| o.profile.take()).collect() });
        let results = outcomes.into_iter().map(|o| o.result).collect();
        RunReport::assemble(&self.config, self.prepared, started, results, trace, wall, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn shared_pair() -> Arc<Shared> {
        Arc::new(Shared {
            slots: (0..2).map(|_| NodeSlot::default()).collect(),
            barrier: Barrier::new(1),
            epoch_lock: Mutex::new(()),
            epoch_cv: Condvar::new(),
        })
    }

    /// Regression for the epoch-wait lost wakeup: a peer that publishes
    /// its epoch *between* a waiter's exhausted spin and its condvar park
    /// must still be observed. [`Shared::wait_epochs`] is untimed, so
    /// before the locked re-check + publish-side lock round-trip existed
    /// this interleaving parked forever (with the old 200µs-timeout wait
    /// it "only" cost a silent timeout per occurrence). The `before_park`
    /// hook pins the publish to exactly that window on even iterations;
    /// odd iterations race a late publisher against the park itself to
    /// cover the notify path too.
    #[test]
    fn epoch_wait_survives_publish_between_spin_and_park() {
        for i in 0..200u32 {
            let shared = shared_pair();
            shared.publish_epoch(0, 1);
            let (tx, rx) = mpsc::channel();
            let s = shared.clone();
            let waiter = std::thread::spawn(move || {
                let s2 = s.clone();
                let mut publisher = None;
                s.wait_epochs(1, &mut || {
                    if i % 2 == 0 {
                        s2.publish_epoch(1, 1);
                    } else {
                        let s3 = s2.clone();
                        publisher = Some(std::thread::spawn(move || {
                            std::thread::sleep(Duration::from_micros(50));
                            s3.publish_epoch(1, 1);
                        }));
                    }
                });
                if let Some(p) = publisher {
                    p.join().unwrap();
                }
                tx.send(()).unwrap();
            });
            rx.recv_timeout(Duration::from_secs(10))
                .expect("waiter hung: epoch publish lost between spin and park");
            waiter.join().unwrap();
        }
    }
}
