//! The multi-threaded driver: each [`NodeRuntime`] on its own OS thread,
//! protocol messages crossing channels as *encoded bytes* — the paper's
//! actual deployment shape (§2: independent runtimes on commodity
//! workstations exchanging messages), where the sim driver is its
//! deterministic reference model.
//!
//! The conservative-sync protocol itself — both loops, the per-pair horizon
//! rule, the async send-coverage machinery and the one [`Rendezvous`] the
//! nodes agree through — lives in [`crate::engine`], backend-independent.
//! This module is the *instantiation* over one address space:
//!
//! * frames cross [`ChannelEndpoint`] in-process channels,
//! * each node thread holds a [`Seat`] at one [`Meeting`] — the run's
//!   [`Rendezvous`] under a lock, where the sockets backend has its
//!   coordinator — which is both its [`EpochPeers`] and its [`AsyncPeers`].
//!   A node thread that panics abandons the meeting: its waiting peers
//!   unwind too, and [`ThreadsDriver::run`] re-raises the first panic,
//! * the async loop also gets an [`AsyncShared`] (published slots, ack
//!   cells, doorbells, send counts) — what only shared memory can do.
//!
//! ## Tracing and profiling
//!
//! Each node records virtual-time events into a private `TraceSink`; the
//! driver merges the streams at join through [`jsplit_trace::canonicalize`],
//! the sim's normal form, so a traced run is byte-identical to the sim's
//! (asserted by the differential trace test). Wall-clock profiling
//! ([`ClusterConfig`]'s `profile`) adds a per-node [`SpanRecorder`] whose
//! boundary marks (flush / spin / condvar / drain / decide / execute) tile
//! each thread's wall time; disabled runs pay one branch per site.
//!
//! Restrictions vs the sim driver: no mid-run joins, and the `max_ops`
//! abort guard is enforced at window granularity rather than per event
//! (a node stops running once it alone is over budget).

use crate::config::{ClusterConfig, SyncMode};
use crate::driver::{self, ClusterError, Prepared};
use crate::engine::{
    run_outcome, AsyncPeers, AsyncShared, AsyncState, EpochPeers, EpochSlot, Horizons, NodeOutcome, Rendezvous,
    SyncEngine,
};
use crate::env::CONSOLE_NODE;
use crate::node::NodeRuntime;
use crate::report::RunReport;
use crate::telemetry::Telemetry;
use jsplit_net::{ChannelEndpoint, MeshSetup};
use jsplit_trace::{FlightRecorder, MetricsRegistry, WallProfile};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// [`Meeting::done_round`] once the n-th final flush is in: past every
/// epoch round.
const ALL_FLUSHED: u64 = u64::MAX;

/// The meeting every node thread of a run shares: its one [`Rendezvous`]
/// under a lock, plus what lets a waiter skip the lock.
struct Meeting {
    rv: Mutex<Rendezvous>,
    /// The last folded epoch round, five cells per node. One buffer is
    /// enough: round `r`'s is overwritten only when round `r+1` completes,
    /// which needs every node's `r+1` post — made after it read round `r`.
    folded: Vec<AtomicU64>,
    /// The last completed meeting (an epoch round, or [`ALL_FLUSHED`]),
    /// stored under the lock after `folded`: the spin target.
    done_round: AtomicU64,
    cv: Condvar,
    /// The async outcome ([`run_outcome`]), so polling takes no lock.
    outcome: AtomicU64,
    /// `1 + id` of the first node whose thread died (`0`: none).
    abandoned: AtomicUsize,
    asy: Arc<AsyncShared>,
}

impl Meeting {
    fn new(n: usize, max_ops: u64) -> Arc<Meeting> {
        Arc::new(Meeting {
            rv: Mutex::new(Rendezvous::new(n, max_ops)),
            folded: (0..5 * n).map(|_| AtomicU64::new(0)).collect(),
            done_round: AtomicU64::new(0),
            cv: Condvar::new(),
            outcome: AtomicU64::new(run_outcome::RUNNING),
            abandoned: AtomicUsize::new(0),
            asy: Arc::new(AsyncShared::new(n)),
        })
    }

    /// Poisoning is moot: the one panic under the lock (a refused post)
    /// leaves the rendezvous whole, and the dying node abandons the run.
    fn lock(&self) -> MutexGuard<'_, Rendezvous> {
        self.rv.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The node whose thread died first, if one did.
    fn culprit(&self) -> Option<usize> {
        self.abandoned.load(Ordering::Acquire).checked_sub(1)
    }

    /// Nothing a dead node owed will ever come: its waiters unwind too.
    fn check_abandoned(&self, me: usize) {
        if let Some(k) = self.culprit() {
            panic!("node {me}: node {k} panicked, abandoning the run");
        }
    }

    /// Mark meeting `round` complete and wake every waiter — stored under
    /// the lock a parking waiter re-checks under, so no wakeup is lost.
    fn complete(&self, rv: MutexGuard<'_, Rendezvous>, round: u64) {
        self.done_round.store(round, Ordering::Release);
        drop(rv);
        self.cv.notify_all();
    }

    /// Wait until meeting `round` is complete: a short spin, then an
    /// untimed condvar park (a timeout would cost a spurious-wakeup storm
    /// per round on oversubscribed hosts). `before_park` runs once, between
    /// the two — the epoch loop's profiling mark, and where the regression
    /// test holds a node back. Returns whether the spin failed.
    fn wait(&self, me: usize, round: u64, before_park: &mut dyn FnMut()) -> bool {
        let done = || self.done_round.load(Ordering::Acquire) >= round;
        for _ in 0..64 {
            if done() {
                return false;
            }
            std::hint::spin_loop();
        }
        before_park();
        let mut rv = self.lock();
        while !done() {
            self.check_abandoned(me);
            rv = self.cv.wait(rv).unwrap_or_else(PoisonError::into_inner);
        }
        true
    }
}

/// One node's handle on the [`Meeting`]: its epoch and async peers both.
struct Seat {
    meeting: Arc<Meeting>,
    me: usize,
}

impl EpochPeers for Seat {
    fn exchange(
        &mut self,
        round: u64,
        slot: &EpochSlot,
        min_out: &[u64],
        out: &mut [EpochSlot],
        before_park: &mut dyn FnMut(),
    ) -> bool {
        let m = &*self.meeting;
        let mut rv = m.lock();
        match rv.post_slot(self.me, round, *slot, min_out) {
            Ok(None) => drop(rv),
            // The post that completes the round stores its fold once, for
            // every reader.
            Ok(Some(folded)) => {
                for (cell, v) in m.folded.iter().zip(folded.iter().flat_map(|s| s.to_array())) {
                    cell.store(v, Ordering::Relaxed);
                }
                m.complete(rv, round);
            }
            Err(e) => panic!("node {}: {e}", self.me),
        }
        let parked = m.wait(self.me, round, before_park);
        for (o, cells) in out.iter_mut().zip(m.folded.chunks(5)) {
            *o = EpochSlot::from_array(std::array::from_fn(|i| cells[i].load(Ordering::Relaxed)));
        }
        parked
    }
}

impl AsyncPeers for Seat {
    fn poll_done(&mut self) -> Option<u64> {
        self.meeting.check_abandoned(self.me);
        Some(self.meeting.outcome.load(Ordering::Acquire)).filter(|&o| o != run_outcome::RUNNING)
    }

    /// A count read under the lock that misses a record's increment means
    /// that record was sent after its sender's last report was filed — the
    /// in-process form of the coordinator's relay order.
    fn send_state(&mut self, st: AsyncState) -> bool {
        let m = &*self.meeting;
        let decided = m.lock().post_state(self.me, st, |w| m.asy.fwd_to[w].load(Ordering::SeqCst));
        decided.inspect(|&o| m.outcome.store(o, Ordering::Release)).is_some()
    }

    /// Every node's final flush precedes its post, so once all `n` are in
    /// every leftover record is in its receiver's channel.
    fn flush_rendezvous(&mut self) {
        let m = &*self.meeting;
        let mut rv = m.lock();
        if rv.post_flushed() {
            m.complete(rv, ALL_FLUSHED);
        } else {
            drop(rv);
        }
        m.wait(self.me, ALL_FLUSHED, &mut || {});
    }
}

impl Drop for Seat {
    /// A dying node thread would strand its peers at the next meeting:
    /// mark the run abandoned (the first death wins) and wake every waiter.
    fn drop(&mut self) {
        if std::thread::panicking() {
            let m = &*self.meeting;
            let _ = m.abandoned.compare_exchange(0, self.me + 1, Ordering::AcqRel, Ordering::Acquire);
            drop(m.lock());
            m.cv.notify_all();
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
    /// into the same [`RunReport`] shape the sim driver produces. A node
    /// thread's panic is re-raised here, once every node has stopped.
    pub fn run(self) -> RunReport {
        self.run_with(|peers| peers)
    }

    /// [`Self::run`] with each node's epoch peers passed through `wrap` —
    /// the seam the skewed-schedule test drives the engine through.
    fn run_with<P: EpochPeers>(self, wrap: impl Fn(Seat) -> P + Clone + Send + 'static) -> RunReport {
        let started = std::time::Instant::now();
        let n = self.nodes.len();
        let meeting = Meeting::new(n, self.config.max_ops);
        let sync = self.config.sync;
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
            // Taken before the thread starts: whatever kills the thread
            // drops the seat, and with it abandons the meeting.
            let mut seat = Seat { meeting: meeting.clone(), me };
            let wrap = wrap.clone();
            let mut eng = SyncEngine::new(node, endpoint, &self.config);
            // Async sync swaps the epoch loop for the roundless burst loop,
            // which also reads and feeds the shared slots and send counts.
            eng.asy = (sync == SyncMode::Async).then(|| meeting.asy.clone());
            eng.metrics = registry.clone();
            eng.flight = flight.clone();
            handles.push(std::thread::spawn(move || {
                eng.start(spans);
                match sync {
                    SyncMode::Async => eng.run_async(&mut seat),
                    SyncMode::Epoch => eng.run_epoch(&mut wrap(seat)),
                }
            }));
        }
        // Every node is joined, in spawn order (slice index = node id).
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        // Stop the sampler (it takes one closing sample of the final
        // published counters) and fold the time series into the report.
        let telemetry = telemetry.map(Telemetry::finish);
        if let Some(f) = &flight {
            jsplit_trace::disarm_panic_dump(f);
        }
        // Every thread that dies drops its seat while panicking, so the
        // meeting names the first death: re-raise its panic, not a peer's
        // echo of it.
        if let Some(k) = meeting.culprit() {
            std::panic::resume_unwind(joined.into_iter().nth(k).and_then(Result::err).expect("the culprit panicked"));
        }
        let mut outcomes: Vec<NodeOutcome> = joined.into_iter().map(|j| j.expect("no node panicked")).collect();
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
    /// so a reader handed another round's fold cannot go unnoticed, and
    /// some `min_out` entries undercut the heads they fold into.
    fn record(me: usize, r: u64, n: usize) -> (EpochSlot, Vec<u64>) {
        let v = |k: u64| r * 1_000 + 100 + me as u64 * 10 + k;
        let slot = EpochSlot { next_event: v(0), live: v(1), spawns_sent: v(2), spawns_recv: v(3), ops: v(4) };
        (slot, (0..n).map(|d| r * 1_000 + (me * 7 + d * 3 + r as usize) as u64 % 20 * 10).collect())
    }

    /// Round `r`'s fold, written out: each node's own counters, its head
    /// lowered by every sender's `min_out` toward it.
    fn folded(r: u64, n: usize) -> Vec<EpochSlot> {
        let records: Vec<_> = (0..n).map(|from| record(from, r, n)).collect();
        let lowest = |i: usize| records.iter().map(|(_, min_out)| min_out[i]).fold(records[i].0.next_event, u64::min);
        (0..n).map(|i| EpochSlot { next_event: lowest(i), ..records[i].0 }).collect()
    }

    /// No wakeup is lost, and the one result buffer is never overwritten
    /// under a reader. Every round is forced through the same interleaving:
    /// node 2 holds its post until node 1 is in its park hook; node 1 stays
    /// there until node 0 — racing, no delay — has read round `r` and
    /// posted `r+1`; only then does node 1 read `r`, which must still be
    /// round `r`'s fold. The same schedule is the lost-wakeup regression:
    /// node 2's post always completes the round *between* node 1's
    /// exhausted spin and its park (only the locked re-check sees it), and
    /// while node 0 is already parked (only the notify wakes it) — and the
    /// wait is untimed, so a lost wakeup hangs.
    #[test]
    fn forced_skew_neither_tears_a_slot_nor_loses_a_wakeup() {
        const N: usize = 3;
        const ROUNDS: u64 = 2_000;
        let meeting = Meeting::new(N, u64::MAX);
        let (in_hook_tx, in_hook_rx) = mpsc::channel::<()>();
        let (published_tx, published_rx) = mpsc::channel::<u64>();
        let (torn_tx, torn_rx) = mpsc::channel();
        let (mut published_rx, mut in_hook_rx) = (Some(published_rx), Some(in_hook_rx));
        for me in 0..N {
            let mut peers = Seat { meeting: meeting.clone(), me };
            // Node 0 announces its posts, node 1 waits on them in its
            // hook, node 2 waits for node 1 to be there.
            let published_tx = (me == 0).then(|| published_tx.clone());
            let published_rx = published_rx.take_if(|_| me == 1);
            let in_hook_rx = in_hook_rx.take_if(|_| me == 2);
            let (in_hook_tx, torn_tx) = (in_hook_tx.clone(), torn_tx.clone());
            std::thread::spawn(move || {
                let mut out = [EpochSlot::IDLE; N];
                // A panic mid-run would abandon the meeting: note the
                // first torn round instead.
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
            let (me, torn) = torn_rx.recv_timeout(Duration::from_secs(30)).expect("a node hung: wakeup lost");
            assert_eq!(torn, None, "node {me} read another round's fold");
        }
    }

    /// The message a thread's panic carried.
    fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
        match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }

    /// A node thread that dies before posting must not strand its peers:
    /// nodes 0 and 2 wait on it in the epoch exchange, then in the async
    /// outcome poll and final flush, and every one of them unwinds —
    /// naming node 1 — within the deadline.
    #[test]
    fn a_dead_node_unwinds_every_waiter() {
        for sync in [SyncMode::Epoch, SyncMode::Async] {
            let meeting = Meeting::new(3, u64::MAX);
            let (tx, rx) = mpsc::channel();
            for me in 0..3 {
                let mut seat = Seat { meeting: meeting.clone(), me };
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || match (me, sync) {
                        (1, _) => {
                            // Let the peers reach their waits first.
                            std::thread::sleep(Duration::from_millis(50));
                            panic!("node 1 dies before posting");
                        }
                        (_, SyncMode::Epoch) => {
                            seat.exchange(1, &EpochSlot::IDLE, &[u64::MAX; 3], &mut [EpochSlot::IDLE; 3], &mut || {});
                        }
                        (0, SyncMode::Async) => {
                            seat.send_state(AsyncState { qhead: u64::MAX, drained: 0, live: 0, ops: 0 });
                            while seat.poll_done().is_none() {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                        (_, SyncMode::Async) => seat.flush_rendezvous(),
                    }));
                    let _ = tx.send((me, died.map_err(panic_text)));
                });
            }
            for _ in 0..3 {
                let (me, died) = rx.recv_timeout(Duration::from_secs(10)).unwrap_or_else(|_| panic!("{sync:?}: a waiter hung"));
                let text = died.expect_err("every wait on a dead node must unwind");
                let cause = if me == 1 { "node 1 dies" } else { "node 1 panicked" };
                assert!(text.contains(cause), "{sync:?}: node {me} unwound with {text:?}");
            }
        }
    }

    /// The driver joins every node and re-raises the panic of the node
    /// that died, not a waiting peer's echo of it.
    #[test]
    fn a_node_panic_fails_the_run_with_its_own_message() {
        struct Dies(Seat);
        impl EpochPeers for Dies {
            fn exchange(&mut self, r: u64, s: &EpochSlot, m: &[u64], o: &mut [EpochSlot], p: &mut dyn FnMut()) -> bool {
                assert!(self.0.me != 1 || r < 3, "node 1 dies in round 3");
                self.0.exchange(r, s, m, o, p)
            }
        }
        use jsplit_apps::tsp;
        let program = tsp::program(tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 });
        let config = ClusterConfig::javasplit(jsplit_mjvm::cost::JvmProfile::SunSim, 3).with_backend(Backend::Threads);
        let driver = ThreadsDriver::new(config, &program).expect("threads setup");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| driver.run_with(Dies)));
            let _ = tx.send(run.err().map(panic_text));
        });
        let text = rx.recv_timeout(Duration::from_secs(20)).expect("the run hung on a dead node");
        assert_eq!(text.as_deref(), Some("node 1 dies in round 3"));
    }

    /// A [`Seat`] under the most skewed schedule one exchange per
    /// round allows: the slow node sits on every exchange result until
    /// each peer has run the window, flushed and entered the next
    /// exchange, so its round-`r` drain always finds the peers' round-`r+1`
    /// frames already inbound.
    struct Skewed {
        inner: Seat,
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
