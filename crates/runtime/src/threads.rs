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
//! * the epoch protocol's one primitive ([`crate::engine::EpochPeers`]) is
//!   shared-memory: seqlock-style [`NodeSlot`]s, double-buffered by round
//!   parity (plain stores + an epoch-counter release store; waiters spin
//!   briefly, then park on a condvar),
//! * async mode shares an [`engine::AsyncShared`] directly — published
//!   slots, per-pair ack cells and CAS-decided termination, which only
//!   exist because the peers *can* share memory (the sockets backend
//!   replaces all of it with coordinator-side counting, DESIGN.md §16.3).
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
//! around each phase of the epoch loop (flush / spin / condvar / drain /
//! decide / execute), so the span categories tile each thread's wall time
//! exactly; disabled runs pay one `Option` branch per site.
//!
//! Restrictions vs the sim driver: no mid-run joins, and the `max_ops`
//! abort guard is enforced at window granularity rather than per event.

use crate::config::{ClusterConfig, SyncMode};
use crate::driver::{self, ClusterError, Prepared};
use crate::engine::{fold_slot, AsyncShared, EpochPeers, EpochSlot, Horizons, NodeOutcome, SyncEngine};
use crate::env::CONSOLE_NODE;
use crate::node::NodeRuntime;
use crate::report::RunReport;
use crate::telemetry::Telemetry;
use jsplit_net::{ChannelEndpoint, MeshSetup};
use jsplit_trace::{FlightRecorder, MetricsRegistry, WallProfile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One round's published record: the five [`EpochSlot`] values, then the
/// node's `n` `min_out` entries. Field stores are plain (`Relaxed`); the
/// owning slot's `epoch` release store makes them visible, seqlock style.
type Bank = Vec<AtomicU64>;

/// Per-node aggregates, published once per round into the bank of the
/// round's parity — a reader that has observed `epoch ≥ r` reads round-`r`
/// values from `banks[r % 2]`. Two banks are exactly enough: with one
/// rendezvous per round a fast node may publish `r+1` while a peer still
/// reads `r` (the other bank), but it cannot reach its `r+2` publish before
/// leaving exchange `r+1`, which waits for that peer's `r+1` publish — made
/// only after the peer finished reading `r`.
struct NodeSlot {
    banks: [Bank; 2],
    /// Publication counter: the latest round this node has published.
    epoch: AtomicU64,
}

struct Shared {
    slots: Vec<NodeSlot>,
    /// Blocking fallback for the epoch wait: a publisher that stored its
    /// epoch takes this lock and notifies; a waiter whose short spin
    /// failed re-checks under the lock and parks. On machines with a core
    /// per node the spin almost always wins; on oversubscribed hosts
    /// parking beats a `yield_now` storm.
    epoch_lock: Mutex<()>,
    epoch_cv: Condvar,
}

impl Shared {
    fn new(n: usize) -> Arc<Shared> {
        let bank = || (0..5 + n).map(|_| AtomicU64::new(0)).collect();
        Arc::new(Shared {
            slots: (0..n).map(|_| NodeSlot { banks: [bank(), bank()], epoch: AtomicU64::new(0) }).collect(),
            epoch_lock: Mutex::new(()),
            epoch_cv: Condvar::new(),
        })
    }

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
    /// its profiling mark there, and the regression test holds a node back
    /// there to force the publish-between-spin-and-park interleaving. The
    /// wait is untimed on purpose: the publish protocol above makes a
    /// missed wakeup impossible, and a timeout costs a spurious-wakeup
    /// storm per round on oversubscribed hosts.
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

/// The shared-memory instantiation of the epoch exchange. The publish's
/// release store pairs with the wait's acquire loads; the fold then runs
/// over all `n` banks on every reader, identically.
struct ThreadPeers {
    shared: Arc<Shared>,
    me: usize,
}

impl EpochPeers for ThreadPeers {
    fn exchange(
        &mut self,
        round: u64,
        slot: &EpochSlot,
        min_out: &[u64],
        out: &mut [EpochSlot],
        before_park: &mut dyn FnMut(),
    ) -> bool {
        let parity = (round % 2) as usize;
        let mine = &self.shared.slots[self.me].banks[parity];
        for (cell, &v) in mine.iter().zip(slot.to_array().iter().chain(min_out)) {
            cell.store(v, Ordering::Relaxed);
        }
        self.shared.publish_epoch(self.me, round);
        let parked = self.shared.wait_epochs(round, before_park);
        out.fill(EpochSlot::IDLE);
        for (from, s) in self.shared.slots.iter().enumerate() {
            let v = |i: usize| s.banks[parity][i].load(Ordering::Relaxed);
            fold_slot(out, from, EpochSlot::from_array(std::array::from_fn(v)), (5..5 + out.len()).map(v));
        }
        parked
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
        self.run_with(|peers| peers)
    }

    /// [`Self::run`] with each node's epoch peers passed through `wrap` —
    /// the seam the skewed-schedule test drives the engine through.
    fn run_with<P: EpochPeers>(self, wrap: impl Fn(ThreadPeers) -> P + Clone + Send + 'static) -> RunReport {
        let started = std::time::Instant::now();
        let n = self.nodes.len();
        let shared = Shared::new(n);
        // Async sync mode swaps the epoch loop for the roundless burst
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
        for (me, (node, endpoint)) in self.nodes.into_iter().zip(self.endpoints).enumerate() {
            let shared = shared.clone();
            let wrap = wrap.clone();
            let mut eng = SyncEngine::new(node, endpoint, &self.config);
            eng.asy = asy.clone();
            eng.metrics = registry.clone();
            eng.flight = flight.clone();
            handles.push(std::thread::spawn(move || {
                eng.start(spans);
                if eng.asy.is_some() {
                    eng.run_async()
                } else {
                    eng.run_epoch(&mut wrap(ThreadPeers { shared, me }))
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
    use crate::config::Backend;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Node `me`'s synthetic round-`r` record: every value names its round,
    /// so a reader handed another round's bank cannot go unnoticed, and
    /// some `min_out` entries undercut the heads they fold into.
    fn record(me: usize, r: u64, n: usize) -> (EpochSlot, Vec<u64>) {
        let v = |k: u64| r * 1_000 + 100 + me as u64 * 10 + k;
        let slot = EpochSlot { next_event: v(0), live: v(1), spawns_sent: v(2), spawns_recv: v(3), ops: v(4) };
        (slot, (0..n).map(|d| r * 1_000 + (me * 7 + d * 3 + r as usize) as u64 % 20 * 10).collect())
    }

    fn folded(r: u64, n: usize) -> Vec<EpochSlot> {
        let mut want = vec![EpochSlot::IDLE; n];
        for from in 0..n {
            let (slot, min_out) = record(from, r, n);
            fold_slot(&mut want, from, slot, min_out.into_iter());
        }
        want
    }

    /// The double buffer never tears, and no wakeup is lost. Every round
    /// is forced through the one interleaving a single bank per node
    /// cannot survive: node 2 holds its publish until node 1 is in its park
    /// hook; node 1 stays there until node 0 — racing, no delay — has read
    /// round `r` and published `r+1`; only then does node 1 read `r`. With
    /// one bank that publish lands on the values node 1 is about to read.
    /// The same schedule is the lost-wakeup regression: node 2 always
    /// publishes *between* node 1's exhausted spin and its park (only the
    /// locked re-check sees it), and while node 0 is already parked (only
    /// the notify wakes it) — and the wait is untimed, so before the
    /// re-check + publish-side lock round-trip existed this hung.
    #[test]
    fn forced_skew_neither_tears_a_slot_nor_loses_a_wakeup() {
        const N: usize = 3;
        const ROUNDS: u64 = 2_000;
        let shared = Shared::new(N);
        let (in_hook_tx, in_hook_rx) = mpsc::channel::<()>();
        let (published_tx, published_rx) = mpsc::channel::<u64>();
        let (torn_tx, torn_rx) = mpsc::channel();
        let (mut published_rx, mut in_hook_rx) = (Some(published_rx), Some(in_hook_rx));
        for me in 0..N {
            let mut peers = ThreadPeers { shared: shared.clone(), me };
            // Node 0 announces its publishes, node 1 waits on them in its
            // hook, node 2 waits for node 1 to be there.
            let published_tx = (me == 0).then(|| published_tx.clone());
            let published_rx = published_rx.take_if(|_| me == 1);
            let in_hook_rx = in_hook_rx.take_if(|_| me == 2);
            let (in_hook_tx, torn_tx) = (in_hook_tx.clone(), torn_tx.clone());
            std::thread::spawn(move || {
                let mut out = [EpochSlot::IDLE; N];
                // A panic mid-run would strand the peers in their next
                // exchange: note the first torn round instead.
                let mut torn = None;
                for r in 1..=ROUNDS {
                    if let Some(node_1_in_hook) = &in_hook_rx {
                        node_1_in_hook.recv().unwrap();
                    }
                    let (slot, min_out) = record(me, r, N);
                    peers.exchange(r, &slot, &min_out, &mut out, &mut || {
                        if let Some(tx) = &published_tx {
                            tx.send(r).unwrap();
                        }
                        if let Some(node_0_published) = &published_rx {
                            in_hook_tx.send(()).unwrap();
                            while r < ROUNDS && node_0_published.recv().unwrap() <= r {}
                        }
                    });
                    if out[..] != folded(r, N)[..] {
                        torn.get_or_insert(r);
                    }
                }
                torn_tx.send((me, torn)).unwrap();
            });
        }
        for _ in 0..N {
            let (me, torn) = torn_rx.recv_timeout(Duration::from_secs(30)).expect("a node hung: epoch publish lost");
            assert_eq!(torn, None, "node {me} read a torn round");
        }
    }

    /// [`ThreadPeers`] under the most skewed schedule one exchange per
    /// round allows: the slow node sits on every exchange result until
    /// each peer has run the window, flushed and entered the next
    /// exchange, so its round-`r` drain always finds the peers' round-`r+1`
    /// frames already inbound.
    struct Skewed {
        inner: ThreadPeers,
        slow: usize,
        /// Last round each node entered (`u64::MAX` once it left the run).
        entered: Arc<Vec<AtomicU64>>,
        early_rounds: Arc<AtomicU64>,
    }

    impl EpochPeers for Skewed {
        fn exchange(
            &mut self,
            round: u64,
            slot: &EpochSlot,
            min_out: &[u64],
            out: &mut [EpochSlot],
            before_park: &mut dyn FnMut(),
        ) -> bool {
            let me = self.inner.me;
            self.entered[me].store(round, Ordering::Release);
            let parked = self.inner.exchange(round, slot, min_out, out, before_park);
            if me == self.slow {
                let peer_rounds = || self.entered.iter().enumerate().filter(|&(i, _)| i != me).map(|(_, e)| e.load(Ordering::Acquire));
                while peer_rounds().any(|e| e <= round) {
                    std::thread::yield_now();
                }
                if peer_rounds().any(|e| e == round + 1) {
                    self.early_rounds.fetch_add(1, Ordering::Relaxed);
                }
            }
            parked
        }
    }

    impl Drop for Skewed {
        fn drop(&mut self) {
            self.entered[self.inner.me].store(u64::MAX, Ordering::Release);
        }
    }

    /// Early frames are harmless (engine docs, "One exchange per epoch
    /// round"): with each node in turn made the slow one, the run is the
    /// sim's — output, virtual time, per-node counters, canonical trace.
    #[test]
    fn early_frames_leave_the_run_identical_to_the_sim() {
        use jsplit_apps::tsp;
        let program = tsp::program(tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 });
        let config = |backend| {
            ClusterConfig::javasplit(jsplit_mjvm::cost::JvmProfile::SunSim, 3)
                .with_backend(backend)
                .with_trace(jsplit_trace::TraceMode::Full)
        };
        let sim = crate::exec::run_cluster(config(Backend::Sim), &program).expect("sim setup");
        sim.expect_clean();
        for slow in 0..3 {
            let entered: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
            let early_rounds = Arc::new(AtomicU64::new(0));
            let (e, c) = (entered.clone(), early_rounds.clone());
            let thr = ThreadsDriver::new(config(Backend::Threads), &program)
                .expect("threads setup")
                .run_with(move |inner| Skewed { inner, slow, entered: e.clone(), early_rounds: c.clone() });
            thr.expect_clean();
            assert!(early_rounds.load(Ordering::Relaxed) > 0, "slow node {slow}: the schedule never skewed");
            assert_eq!(sim.output, thr.output, "slow node {slow}: stdout");
            assert_eq!(sim.exec_time_ps, thr.exec_time_ps, "slow node {slow}: virtual time");
            assert_eq!(sim.ops_per_node, thr.ops_per_node, "slow node {slow}: per-node ops");
            assert_eq!(sim.dsm_per_node, thr.dsm_per_node, "slow node {slow}: DSM stats");
            assert_eq!(sim.net_per_node, thr.net_per_node, "slow node {slow}: net stats");
            assert_eq!(sim.trace, thr.trace, "slow node {slow}: canonical trace");
        }
    }
}
