//! Run reports: everything the benchmarks and tests observe about a run.

use crate::config::{ClusterConfig, SyncMode};
use crate::driver::Prepared;
use crate::env::CONSOLE_NODE;
use jsplit_dsm::DsmStats;
use jsplit_mjvm::heap::ThreadUid;
use jsplit_mjvm::interp::VmError;
use jsplit_mjvm::opstats::OpStats;
use jsplit_net::transport::FrameStats;
use jsplit_net::NetStats;
use jsplit_rewriter::RewriteStats;
use jsplit_trace::{
    Event, LockStat, NodeBreakdown, ObjProfReport, ObjProfile, SpanKind, TelemetrySummary,
    WallProfile,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Synchronization-layer counters from the threads backend (all zero under
/// the sim backend, which has no windows or frames). Deliberately *not*
/// part of [`NetStats`]: message-level accounting must stay identical
/// across backends, while these describe how the parallel execution was
/// orchestrated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// Synchronization windows (epoch rounds) the cluster ran.
    pub windows: u64,
    /// Frames shipped across all nodes.
    pub frames_sent: u64,
    /// Total frame bytes (headers + payloads) across all nodes.
    pub frame_bytes: u64,
    /// Messages carried inside frames across all nodes.
    pub msgs_framed: u64,
    /// Standalone null-message promises shipped (async sync mode).
    pub nulls_sent: u64,
    /// Null promises that rode along in a data frame (async sync mode).
    pub nulls_piggybacked: u64,
    /// Times a node's safe horizon strictly advanced (async sync mode) —
    /// the async analogue of `windows`.
    pub horizon_advances: u64,
}

impl SyncStats {
    /// Channel crossings saved by coalescing: messages that rode along in
    /// an already-counted frame.
    pub fn msgs_batched(&self) -> u64 {
        self.msgs_framed.saturating_sub(self.frames_sent)
    }

    /// Mean shipped frame size in bytes.
    pub fn bytes_per_frame_avg(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.frame_bytes as f64 / self.frames_sent as f64
        }
    }
}

/// What one node hands back when its run is over: plain data, the same
/// shape whether the node lived in the sim's scheduler, on an OS thread or
/// in a worker process (where it is the body of the `Report` envelope —
/// everything but `opstats`). [`RunReport::assemble`] folds one per node
/// into the run's report.
#[derive(Debug, Default, PartialEq)]
pub struct NodeResult {
    /// Console output in arrival order (empty off the console node).
    pub console: Vec<String>,
    /// Threads that died with a trap on this node.
    pub errors: Vec<(ThreadUid, VmError)>,
    /// The run's outcome — cluster-wide, so identical on every node.
    pub deadlocked: bool,
    pub aborted: bool,
    pub ops: u64,
    pub spawned_here: u32,
    /// Virtual time at which this node's last thread finished.
    pub finish_time: u64,
    /// Most events ever scheduled at once in the queue this node ran on.
    pub slab_high_water: u64,
    /// Windows this node processed (identical on every node under epoch
    /// sync; per-node bursts-with-work under async; zero under the sim).
    pub windows: u64,
    pub horizon_advances: u64,
    /// Virtual time this node's share of class distribution took.
    pub setup_ps: u64,
    pub net: NetStats,
    /// `None` in baseline mode.
    pub dsm: Option<DsmStats>,
    pub frames: FrameStats,
    /// Rendered flight-recorder tail ("" unless armed) — the sockets
    /// coordinator prints it when its watchdog fired during the run.
    pub flight: String,
    /// Per-object sharing profile (`None` unless the profiler is on).
    pub objprof: Option<ObjProfile>,
    /// Opcode/pair counters (`None` unless the profiler is on).
    pub opstats: Option<OpStats>,
}

/// The result of a completed cluster run.
#[derive(Debug)]
pub struct RunReport {
    /// Virtual time at which the last application thread finished.
    pub exec_time_ps: u64,
    /// Console output in arrival order at the console node.
    pub output: Vec<String>,
    /// Threads that died with a trap.
    pub errors: Vec<(ThreadUid, VmError)>,
    /// `true` if the run stalled with live but unrunnable threads.
    pub deadlocked: bool,
    /// `true` if the `max_ops` guard aborted the run.
    pub aborted: bool,
    /// Instructions retired across all nodes.
    pub ops: u64,
    /// Threads created over the run (including main).
    pub threads: u32,
    /// Per-node network statistics.
    pub net_per_node: Vec<NetStats>,
    /// Per-node DSM statistics (empty in baseline mode).
    pub dsm_per_node: Vec<DsmStats>,
    /// Rewriter statistics (JavaSplit mode only).
    pub rewrite: Option<RewriteStats>,
    /// Setup time: distributing the rewritten class files to the initial
    /// pool (paper §2) — excluded from `exec_time_ps`, like the paper's
    /// measurement window.
    pub setup_ps: u64,
    /// Serialized size of the shipped program.
    pub class_bytes: u64,
    /// High-water mark of *simultaneously live* scheduler events: the final
    /// length of the event-payload slab, whose slots are recycled through a
    /// free list. Stays flat as total events processed grows — asserted by
    /// the bounded-memory regression test.
    pub event_slab_high_water: u64,
    /// Instructions retired per node.
    pub ops_per_node: Vec<u64>,
    /// The full structured event stream, sorted by virtual time (`None`
    /// unless the run was configured with [`ClusterConfig::with_trace`]).
    ///
    /// [`ClusterConfig::with_trace`]: crate::config::ClusterConfig::with_trace
    pub trace: Option<Vec<Event>>,
    /// Per-node time breakdown derived from the trace (empty when tracing
    /// is off). With [`jsplit_trace::TraceMode::Full`] each node's buckets
    /// sum exactly to `exec_time_ps × cpus`.
    pub breakdown: Vec<NodeBreakdown>,
    /// Per-lock contention statistics derived from the trace (empty when
    /// tracing is off).
    pub lock_stats: Vec<LockStat>,
    /// Host (real) time the driver spent executing the run. For the sim
    /// backend this measures the simulator itself; for the threads backend
    /// it is the wall-clock time of the parallel execution — the number the
    /// live benchmarks report.
    pub host_wall_secs: f64,
    /// Threads-backend synchronization counters (zero for sim runs).
    pub sync: SyncStats,
    /// Wall-clock span profile from the threads backend (`None` for sim
    /// runs or when profiling is off): per-node stall breakdown summing to
    /// each thread's wall time, plus latency/size histograms.
    pub wall: Option<WallProfile>,
    /// Live-telemetry time series summary (`None` unless the run was
    /// configured with [`ClusterConfig::with_metrics`]): sample count,
    /// peak/mean cluster rates, horizon-lag percentiles, watchdog stalls.
    ///
    /// [`ClusterConfig::with_metrics`]: crate::config::ClusterConfig::with_metrics
    pub telemetry: Option<TelemetrySummary>,
    /// Merged opcode/pair frequency counters (`None` unless the run was
    /// configured with [`ClusterConfig::with_opstats`]; they stay off the
    /// sockets wire, so `None` on that backend).
    ///
    /// [`ClusterConfig::with_opstats`]: crate::config::ClusterConfig::with_opstats
    pub opstats: Option<jsplit_mjvm::opstats::OpStats>,
    /// Per-object DSM sharing report (`None` unless the run was configured
    /// with [`ClusterConfig::with_objprof`]): every profiled object with its
    /// sharing class, per-node event matrix, heat rank and home-migration
    /// advice. Identical across backends for the same program.
    ///
    /// [`ClusterConfig::with_objprof`]: crate::config::ClusterConfig::with_objprof
    pub objprof: Option<ObjProfReport>,
}

impl RunReport {
    /// Fold one [`NodeResult`] per node (in node-id order) into the run's
    /// report — the end of every driver's `run`. `trace` is the canonical
    /// event stream when the run was traced, `wall` the threads backend's
    /// span profile; `started` is when `run` began.
    pub(crate) fn assemble(
        config: &ClusterConfig,
        prepared: Prepared,
        started: Instant,
        mut results: Vec<NodeResult>,
        trace: Option<Vec<Event>>,
        wall: Option<WallProfile>,
        telemetry: Option<TelemetrySummary>,
    ) -> RunReport {
        let finish = results.iter().map(|r| r.finish_time).max().unwrap_or(0);
        let (breakdown, lock_stats) = match &trace {
            Some(evs) => {
                let cpus = vec![config.cpus_per_node as u32; results.len()];
                (jsplit_trace::node_breakdown(evs, &cpus, finish), jsplit_trace::lock_contention(evs))
            }
            None => (Vec::new(), Vec::new()),
        };
        let objprof = config.objprof.then(|| {
            // Slice index = node id (joiners append in id order).
            let profiles: Vec<ObjProfile> =
                results.iter_mut().map(|r| r.objprof.take().unwrap_or_default()).collect();
            jsplit_trace::build_report(&profiles)
        });
        let mut opstats: Option<OpStats> = None;
        for st in results.iter().filter_map(|r| r.opstats.as_ref()) {
            opstats.get_or_insert_with(Default::default).merge(st);
        }
        let sum = |f: fn(&NodeResult) -> u64| results.iter().map(f).sum::<u64>();
        let ops_per_node: Vec<u64> = results.iter().map(|r| r.ops).collect();
        let sync = SyncStats {
            // Epoch rounds are cluster-global (identical on every node);
            // async bursts are per-node, so the cluster figure is the sum.
            windows: match config.sync {
                SyncMode::Epoch => results[0].windows,
                SyncMode::Async => sum(|r| r.windows),
            },
            frames_sent: sum(|r| r.frames.frames_sent),
            frame_bytes: sum(|r| r.frames.frame_bytes),
            msgs_framed: sum(|r| r.frames.msgs_framed),
            nulls_sent: sum(|r| r.frames.nulls_sent),
            nulls_piggybacked: sum(|r| r.frames.nulls_piggybacked),
            horizon_advances: sum(|r| r.horizon_advances),
        };
        RunReport {
            exec_time_ps: finish,
            output: std::mem::take(&mut results[CONSOLE_NODE as usize].console),
            errors: results.iter_mut().flat_map(|r| r.errors.drain(..)).collect(),
            deadlocked: results[0].deadlocked,
            aborted: results[0].aborted,
            ops: ops_per_node.iter().sum(),
            threads: results.iter().map(|r| r.spawned_here).sum(),
            net_per_node: results.iter_mut().map(|r| std::mem::take(&mut r.net)).collect(),
            dsm_per_node: results.iter_mut().filter_map(|r| r.dsm.take()).collect(),
            rewrite: prepared.rewrite,
            setup_ps: results.iter().map(|r| r.setup_ps).max().unwrap_or(0),
            class_bytes: prepared.class_bytes as u64,
            event_slab_high_water: results.iter().map(|r| r.slab_high_water).max().unwrap_or(0),
            ops_per_node,
            trace,
            breakdown,
            lock_stats,
            host_wall_secs: started.elapsed().as_secs_f64(),
            sync,
            wall,
            telemetry,
            opstats,
            objprof,
        }
    }

    /// Execution time in (virtual) seconds.
    pub fn exec_time_secs(&self) -> f64 {
        self.exec_time_ps as f64 / jsplit_mjvm::cost::PS_PER_SEC as f64
    }

    /// Cluster-wide network totals.
    pub fn net_total(&self) -> NetStats {
        let mut t = NetStats::default();
        for s in &self.net_per_node {
            t.merge(s);
        }
        t
    }

    /// Cluster-wide DSM totals.
    pub fn dsm_total(&self) -> DsmStats {
        let mut t = DsmStats::default();
        for s in &self.dsm_per_node {
            t.merge(s);
        }
        t
    }

    /// Assert the run completed cleanly (test helper).
    pub fn expect_clean(&self) -> &Self {
        assert!(!self.deadlocked, "run deadlocked");
        assert!(!self.aborted, "run aborted by max_ops");
        assert!(self.errors.is_empty(), "thread traps: {:?}", self.errors);
        self
    }

    /// A human-readable per-node summary table, plus — when the run was
    /// traced — the stall breakdown and the most contended locks.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "exec {:.6} s  ({} ops, {} threads{}{})",
            self.exec_time_secs(),
            self.ops,
            self.threads,
            if self.deadlocked { ", DEADLOCKED" } else { "" },
            if self.aborted { ", ABORTED" } else { "" },
        );
        let _ = writeln!(
            s,
            "{:>4} {:>14} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8} {:>8}",
            "node", "ops", "snd msgs", "snd bytes", "rcv msgs", "rcv bytes", "fetches", "diffs", "grants"
        );
        for (i, ops) in self.ops_per_node.iter().enumerate() {
            let net = self.net_per_node.get(i);
            let dsm = self.dsm_per_node.get(i);
            let _ = writeln!(
                s,
                "{:>4} {:>14} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8} {:>8}",
                i,
                ops,
                net.map_or(0, |n| n.msgs_sent),
                net.map_or(0, |n| n.bytes_sent),
                net.map_or(0, |n| n.msgs_recv),
                net.map_or(0, |n| n.bytes_recv),
                dsm.map_or(0, |d| d.fetches),
                dsm.map_or(0, |d| d.diffs_sent),
                dsm.map_or(0, |d| d.grants_sent),
            );
        }
        let net = self.net_total();
        let dsm = self.dsm_total();
        let _ = writeln!(
            s,
            "{:>4} {:>14} {:>9} {:>12} {:>9} {:>12} {:>8} {:>8} {:>8}",
            "all",
            self.ops,
            net.msgs_sent,
            net.bytes_sent,
            net.msgs_recv,
            net.bytes_recv,
            dsm.fetches,
            dsm.diffs_sent,
            dsm.grants_sent,
        );
        let mut cluster = format!(
            "cluster: {:.0} ops/sec host, {} bytes on the wire",
            self.ops as f64 / self.host_wall_secs.max(1e-9),
            net.bytes_sent,
        );
        if let Some((kind, ns)) = self.wall.as_ref().and_then(|w| w.dominant_stall()) {
            let wall_total: u64 =
                self.wall.as_ref().map_or(0, |w| w.nodes.iter().map(|n| n.accounted_ns()).sum());
            let _ = write!(
                cluster,
                ", dominant stall {} {:.1}%",
                kind.label(),
                100.0 * ns as f64 / wall_total.max(1) as f64
            );
        }
        let _ = writeln!(s, "{cluster}");
        if !self.breakdown.is_empty() {
            let _ = writeln!(
                s,
                "{:>4} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "node", "compute%", "lock%", "fetch%", "ack%", "idle%"
            );
            for b in &self.breakdown {
                let tot = b.total_ps().max(1) as f64;
                let pct = |v: u64| 100.0 * v as f64 / tot;
                let _ = writeln!(
                    s,
                    "{:>4} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                    b.node,
                    pct(b.compute_ps),
                    pct(b.lock_wait_ps),
                    pct(b.fetch_stall_ps),
                    pct(b.ack_wait_ps),
                    pct(b.idle_ps),
                );
            }
        }
        if self.sync.windows > 0 {
            let _ = writeln!(
                s,
                "sync: {} windows, {} frames ({} msgs framed, {} batched, {:.1} B/frame avg)",
                self.sync.windows,
                self.sync.frames_sent,
                self.sync.msgs_framed,
                self.sync.msgs_batched(),
                self.sync.bytes_per_frame_avg(),
            );
            if self.sync.horizon_advances > 0 {
                let _ = writeln!(
                    s,
                    "async: {} horizon advances, {} nulls sent, {} nulls piggybacked",
                    self.sync.horizon_advances,
                    self.sync.nulls_sent,
                    self.sync.nulls_piggybacked,
                );
            }
        }
        if let Some(wall) = &self.wall {
            let _ = writeln!(
                s,
                "{:>4} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9}",
                "node",
                "wall ms",
                "exec%",
                "hrzn%",
                "spin%",
                "cv%",
                "inbox%",
                "flush%",
                "decide%",
                "wait p50",
                "wait p90",
                "wait p99"
            );
            for n in &wall.nodes {
                let tot = n.accounted_ns().max(1) as f64;
                let pct = |k: SpanKind| 100.0 * n.stats_of(k).total_ns as f64 / tot;
                // Wait percentiles: the exchange's spin and park segments
                // under epoch sync, horizon waits under async (only one
                // of the two sides is ever populated).
                let mut wait = n.stats_of(SpanKind::HorizonWait).hist.clone();
                wait.merge(&n.stats_of(SpanKind::SlotSpin).hist);
                wait.merge(&n.stats_of(SpanKind::CondvarWait).hist);
                let us = |ns: u64| format!("{:.1}us", ns as f64 / 1_000.0);
                let _ = writeln!(
                    s,
                    "{:>4} {:>9.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9} {:>9} {:>9}",
                    n.node,
                    n.wall_ns as f64 / 1e6,
                    pct(SpanKind::Execute),
                    pct(SpanKind::HorizonWait),
                    pct(SpanKind::SlotSpin),
                    pct(SpanKind::CondvarWait),
                    pct(SpanKind::InboxDrain),
                    pct(SpanKind::FrameFlush),
                    pct(SpanKind::Decide),
                    us(wait.percentile(0.50)),
                    us(wait.percentile(0.90)),
                    us(wait.percentile(0.99)),
                );
            }
            if let Some((kind, ns)) = wall.dominant_stall() {
                let wall_total: u64 = wall.nodes.iter().map(|n| n.accounted_ns()).sum();
                let _ = writeln!(
                    s,
                    "dominant stall: {} ({:.1}% of cluster wall time; window p50 {:.3} us virtual)",
                    kind.label(),
                    100.0 * ns as f64 / wall_total.max(1) as f64,
                    wall.nodes.first().map_or(0.0, |n| n.window_ps.percentile(0.50) as f64 / 1e6),
                );
            }
        }
        if let Some(t) = &self.telemetry {
            let (p50, p90, p99) = crate::telemetry::lag_percentiles(t);
            let _ = writeln!(
                s,
                "telemetry: {} samples; ops/sec peak {:.0} mean {:.0}; bytes/sec peak {:.0} mean {:.0}; horizon lag p50/p90/p99 {}/{}/{} ps",
                t.samples,
                t.peak_ops_per_sec,
                t.mean_ops_per_sec,
                t.peak_bytes_per_sec,
                t.mean_bytes_per_sec,
                p50,
                p90,
                p99,
            );
            for stall in &t.stalls {
                let _ = writeln!(s, "{}", crate::telemetry::render_stall(stall));
            }
        }
        if let Some(op) = &self.objprof {
            let _ = writeln!(
                s,
                "{:>14} {:>5} {:>17} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7}",
                "object gid", "home", "class", "heat", "fetches", "diffs", "invals", "acq rem", "grants"
            );
            use jsplit_trace::ObjEvent as OE;
            for o in op.objects.iter().take(10) {
                let _ = writeln!(
                    s,
                    "{:>14} {:>5} {:>17} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7}",
                    o.gid,
                    o.home,
                    o.class.name(),
                    o.heat,
                    o.total[OE::Fetch.index()],
                    o.total[OE::DiffSent.index()],
                    o.total[OE::Invalidated.index()],
                    o.total[OE::AcquireRemote.index()],
                    o.total[OE::Grant.index()],
                );
            }
            if op.objects.len() > 10 {
                let _ = writeln!(s, "... {} more profiled objects", op.objects.len() - 10);
            }
            for &i in op.candidates.iter().take(5) {
                let o = &op.objects[i];
                let _ = writeln!(
                    s,
                    "migrate gid {} home {} -> node {} (saves ~{} coherence msgs, {})",
                    o.gid,
                    o.home,
                    o.advice.dominant,
                    o.advice.score,
                    o.class.name(),
                );
            }
        }
        if !self.lock_stats.is_empty() {
            let mut hot: Vec<_> = self.lock_stats.iter().collect();
            hot.sort_by_key(|l| std::cmp::Reverse(l.total_wait_ps));
            let _ = writeln!(
                s,
                "{:>12} {:>9} {:>9} {:>7} {:>14} {:>14}",
                "lock gid", "acquires", "transfers", "max q", "total wait ps", "mean wait ps"
            );
            for l in hot.iter().take(10) {
                let _ = writeln!(
                    s,
                    "{:>12} {:>9} {:>9} {:>7} {:>14} {:>14}",
                    l.gid, l.acquires, l.transfers, l.max_queue, l.total_wait_ps, l.mean_wait_ps()
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_mjvm::cost::JvmProfile;

    /// Three synthetic nodes through the one fold every driver ends in.
    #[test]
    fn assemble_folds_node_results() {
        let program = jsplit_apps::micro::block_array_kernel(8, 2);
        let epoch = ClusterConfig::javasplit(JvmProfile::SunSim, 3);
        let results = || -> Vec<NodeResult> {
            (0..3u64)
                .map(|i| NodeResult {
                    console: vec![format!("line from node {i}")],
                    errors: vec![(i as ThreadUid, VmError::VolatileStackEmpty)],
                    ops: 100 + i,
                    spawned_here: 1 + i as u32,
                    finish_time: [50, 90, 70][i as usize],
                    slab_high_water: 4 * (i + 1),
                    windows: 10 + i,
                    horizon_advances: i,
                    setup_ps: if i == 0 { 777 } else { 0 },
                    net: NetStats { msgs_sent: i, ..NetStats::default() },
                    dsm: Some(DsmStats { fetches: 2 * i, ..DsmStats::default() }),
                    frames: FrameStats { frames_sent: 5, frame_bytes: 500, msgs_framed: 9, ..FrameStats::default() },
                    ..NodeResult::default()
                })
                .collect()
        };
        let assemble = |config: &ClusterConfig| {
            let prepared = crate::driver::prepare(config, &program).expect("prepare");
            RunReport::assemble(config, prepared, Instant::now(), results(), None, None, None)
        };
        let r = assemble(&epoch);
        assert_eq!(r.output, ["line from node 0"], "console comes from the console node");
        assert_eq!(r.errors.iter().map(|(uid, _)| *uid).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(r.exec_time_ps, 90, "finish is the latest node's");
        assert_eq!((r.ops, r.threads), (303, 6));
        assert_eq!(r.ops_per_node, [100, 101, 102]);
        assert_eq!(r.net_total().msgs_sent, 3);
        assert_eq!(r.dsm_total().fetches, 6);
        assert_eq!((r.setup_ps, r.event_slab_high_water), (777, 12));
        assert!(r.class_bytes > 0 && r.rewrite.is_some(), "prepared program facts carried over");
        assert!(r.trace.is_none() && r.breakdown.is_empty() && r.opstats.is_none() && r.objprof.is_none());
        // Epoch rounds are cluster-global: node 0's count is the cluster's.
        assert_eq!(r.sync.windows, 10);
        assert_eq!(r.sync.horizon_advances, 3);
        assert_eq!((r.sync.frames_sent, r.sync.frame_bytes, r.sync.msgs_framed), (15, 1500, 27));
        // Async bursts are per-node: the cluster figure is the sum.
        assert_eq!(assemble(&epoch.clone().with_sync(SyncMode::Async)).sync.windows, 33);
    }
}
