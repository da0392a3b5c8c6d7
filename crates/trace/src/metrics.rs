//! Live cluster telemetry: a lock-free, dependency-free metrics registry.
//!
//! The trace layer (PR 2) and the span profiler (PR 5) answer questions
//! *after* a run ends. The registry answers them *while it runs*: each node
//! publishes a fixed set of cumulative counters and gauges into its own
//! cache-line-padded slot of atomics, and a side-band sampler thread
//! (`jsplit-runtime`'s telemetry module) snapshots the whole registry on a
//! wall-clock interval to compute deltas and rates.
//!
//! Design constraints, in the same spirit as the rest of this crate:
//!
//! * **Near-zero cost when off.** Producers hold an `Option<Arc<..>>`; a run
//!   without `--metrics` pays one untaken branch per publish site.
//! * **One relaxed store per value when on.** Publishers store the *current
//!   value* of counters they already maintain locally (ops retired, DSM
//!   fetches, frame bytes, the safe horizon) — never a read-modify-write,
//!   never a lock. Readers tolerate slight skew between cells: a sample is
//!   a statistical observation, not a consistent snapshot.
//! * **Strictly side-band.** Nothing in the registry feeds back into
//!   virtual time or scheduling; with metrics on or off, runs stay
//!   bit-identical (enforced by the metrics identity tests).

use crate::event::NodeId;
use crate::hist::LogHist;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Whether a metric accumulates (rates are meaningful) or levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone cumulative count — the sampler reports deltas per second.
    Counter,
    /// Instantaneous level — the sampler reports the raw value.
    Gauge,
}

/// One published per-node metric. The set is fixed at compile time so the
/// registry is a flat array of atomics with no name lookups on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Interpreted instructions retired (counter).
    Ops,
    /// DSM object fetches issued (counter).
    DsmFetches,
    /// DSM diff flushes sent (counter).
    DsmDiffs,
    /// Cached copies invalidated by write notices (counter).
    DsmInvalidations,
    /// Lock grants sent — ownership transfers (counter).
    DsmLockGrants,
    /// Protocol messages sent (counter).
    NetMsgsSent,
    /// Protocol bytes sent (counter).
    NetBytesSent,
    /// Protocol messages received (counter).
    NetMsgsRecv,
    /// Wire frames shipped (counter; threads backend).
    FramesSent,
    /// Null-message promises shipped standalone (counter; async sync).
    NullsSent,
    /// Sync windows / execution bursts processed (counter).
    Windows,
    /// Times the safe horizon strictly advanced (counter; async sync).
    HorizonAdvances,
    /// Live guest threads on this node (gauge).
    LiveThreads,
    /// Current safe horizon in virtual ps (gauge; `u64::MAX` = unbounded).
    HorizonPs,
    /// Published earliest pending event, clamped to the in-flight send
    /// floor (gauge; `u64::MAX` = idle).
    NextEventPs,
    /// Bare earliest queued event — executable demand (gauge; `u64::MAX`
    /// = no runnable work).
    QueueHeadPs,
    /// 1 while the node thread is parked waiting for peers (gauge).
    Parked,
}

/// Number of metrics (array-indexed registry cells).
pub const METRICS: usize = 17;

/// All metrics in display/serialization order.
pub const ALL_METRICS: [Metric; METRICS] = [
    Metric::Ops,
    Metric::DsmFetches,
    Metric::DsmDiffs,
    Metric::DsmInvalidations,
    Metric::DsmLockGrants,
    Metric::NetMsgsSent,
    Metric::NetBytesSent,
    Metric::NetMsgsRecv,
    Metric::FramesSent,
    Metric::NullsSent,
    Metric::Windows,
    Metric::HorizonAdvances,
    Metric::LiveThreads,
    Metric::HorizonPs,
    Metric::NextEventPs,
    Metric::QueueHeadPs,
    Metric::Parked,
];

impl Metric {
    pub fn index(self) -> usize {
        match self {
            Metric::Ops => 0,
            Metric::DsmFetches => 1,
            Metric::DsmDiffs => 2,
            Metric::DsmInvalidations => 3,
            Metric::DsmLockGrants => 4,
            Metric::NetMsgsSent => 5,
            Metric::NetBytesSent => 6,
            Metric::NetMsgsRecv => 7,
            Metric::FramesSent => 8,
            Metric::NullsSent => 9,
            Metric::Windows => 10,
            Metric::HorizonAdvances => 11,
            Metric::LiveThreads => 12,
            Metric::HorizonPs => 13,
            Metric::NextEventPs => 14,
            Metric::QueueHeadPs => 15,
            Metric::Parked => 16,
        }
    }

    pub fn kind(self) -> MetricKind {
        match self {
            Metric::LiveThreads
            | Metric::HorizonPs
            | Metric::NextEventPs
            | Metric::QueueHeadPs
            | Metric::Parked => MetricKind::Gauge,
            _ => MetricKind::Counter,
        }
    }

    /// Stable snake_case name (JSONL field names).
    pub fn name(self) -> &'static str {
        match self {
            Metric::Ops => "ops",
            Metric::DsmFetches => "fetches",
            Metric::DsmDiffs => "diffs",
            Metric::DsmInvalidations => "invalidations",
            Metric::DsmLockGrants => "lock_grants",
            Metric::NetMsgsSent => "msgs_sent",
            Metric::NetBytesSent => "bytes_sent",
            Metric::NetMsgsRecv => "msgs_recv",
            Metric::FramesSent => "frames_sent",
            Metric::NullsSent => "nulls_sent",
            Metric::Windows => "windows",
            Metric::HorizonAdvances => "horizon_advances",
            Metric::LiveThreads => "live_threads",
            Metric::HorizonPs => "horizon_ps",
            Metric::NextEventPs => "next_event_ps",
            Metric::QueueHeadPs => "queue_head_ps",
            Metric::Parked => "parked",
        }
    }
}

/// One node's published cells. Padded to its own cache lines so node `i`'s
/// relaxed stores never bounce node `j`'s publisher or the sampler's reads
/// of other nodes.
#[repr(align(128))]
struct NodeCells {
    vals: [AtomicU64; METRICS],
}

impl NodeCells {
    fn new() -> NodeCells {
        NodeCells { vals: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// The per-run registry: `n_nodes × METRICS` atomics, shared between the
/// node threads (writers) and the sampler thread (reader).
pub struct MetricsRegistry {
    nodes: Vec<NodeCells>,
}

impl MetricsRegistry {
    pub fn new(n_nodes: usize) -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry { nodes: (0..n_nodes).map(|_| NodeCells::new()).collect() })
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Publish one value: a single relaxed store. `HorizonPs`-style gauges
    /// that start life meaning "unbounded" should be published as
    /// `u64::MAX`; the sampler knows which values are sentinels.
    #[inline]
    pub fn set(&self, node: NodeId, m: Metric, v: u64) {
        self.nodes[node as usize].vals[m.index()].store(v, Ordering::Relaxed);
    }

    /// Read one cell (sampler side).
    #[inline]
    pub fn get(&self, node: NodeId, m: Metric) -> u64 {
        self.nodes[node as usize].vals[m.index()].load(Ordering::Relaxed)
    }

    /// Copy every cell into `out` (one `[u64; METRICS]` row per node),
    /// resizing as needed. Cells are read relaxed and independently — the
    /// result is a statistical sample, not a consistent cut.
    pub fn snapshot_into(&self, out: &mut Vec<[u64; METRICS]>) {
        out.resize(self.nodes.len(), [0; METRICS]);
        for (row, cells) in out.iter_mut().zip(&self.nodes) {
            for (slot, cell) in row.iter_mut().zip(&cells.vals) {
                *slot = cell.load(Ordering::Relaxed);
            }
        }
    }
}

/// One watchdog finding: a node whose safe horizon sat still past the
/// budget while it was parked on runnable work, with the peer whose
/// published promise is the binding term of its horizon — the paper-shaped
/// answer to "why is the cluster stuck".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The stalled node.
    pub node: NodeId,
    /// The peer whose promise bounds the stalled node's horizon (the
    /// argmin term of the per-pair lookahead rule).
    pub blamed: NodeId,
    /// How long the horizon had been frozen when the watchdog fired (ms).
    pub stalled_ms: u64,
    /// The frozen horizon (virtual ps).
    pub horizon_ps: u64,
    /// The stalled node's runnable queue head (virtual ps).
    pub queue_head_ps: u64,
    /// The blocker's promise term `next + base` (virtual ps).
    pub blocker_promise_ps: u64,
    /// Waits-for path starting at `node`, following each stalled node to
    /// its blamed peer until a non-stalled node or a cycle closes it.
    pub chain: Vec<NodeId>,
}

/// End-of-run time-series summary folded into `RunReport` and the live
/// bench JSON: sample count, peak/mean cluster rates and the distribution
/// of per-node horizon lag behind the cluster-max horizon.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySummary {
    /// Samples taken over the run.
    pub samples: u64,
    /// Peak per-sample cluster ops/sec.
    pub peak_ops_per_sec: f64,
    /// Whole-run mean cluster ops/sec (last−first delta over elapsed).
    pub mean_ops_per_sec: f64,
    /// Peak per-sample cluster network bytes/sec.
    pub peak_bytes_per_sec: f64,
    /// Whole-run mean cluster network bytes/sec.
    pub mean_bytes_per_sec: f64,
    /// Per-node horizon lag observations (virtual ps behind the cluster-max
    /// finite horizon), one per node per sample.
    pub horizon_lag_ps: LogHist,
    /// Watchdog findings (empty on a healthy run).
    pub stalls: Vec<StallReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_indices_are_dense_and_distinct() {
        let mut seen = [false; METRICS];
        for (pos, m) in ALL_METRICS.iter().enumerate() {
            assert_eq!(m.index(), pos, "{m:?} out of order");
            assert!(!seen[m.index()], "{m:?} collides");
            seen[m.index()] = true;
            assert!(!m.name().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn registry_set_get_snapshot() {
        let reg = MetricsRegistry::new(3);
        assert_eq!(reg.n_nodes(), 3);
        reg.set(1, Metric::Ops, 42);
        reg.set(2, Metric::HorizonPs, u64::MAX);
        assert_eq!(reg.get(1, Metric::Ops), 42);
        assert_eq!(reg.get(0, Metric::Ops), 0);
        let mut snap = Vec::new();
        reg.snapshot_into(&mut snap);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[1][Metric::Ops.index()], 42);
        assert_eq!(snap[2][Metric::HorizonPs.index()], u64::MAX);
        // Reuse shrinks/grows the caller's buffer.
        reg.snapshot_into(&mut snap);
        assert_eq!(snap.len(), 3);
    }

    #[test]
    fn concurrent_publish_is_visible() {
        let reg = MetricsRegistry::new(2);
        let r2 = reg.clone();
        let t = std::thread::spawn(move || {
            for v in 1..=1000u64 {
                r2.set(0, Metric::Ops, v);
            }
        });
        t.join().unwrap();
        assert_eq!(reg.get(0, Metric::Ops), 1000);
    }

    #[test]
    fn counters_and_gauges_partition() {
        let gauges: Vec<_> =
            ALL_METRICS.iter().filter(|m| m.kind() == MetricKind::Gauge).collect();
        assert_eq!(gauges.len(), 5);
        assert_eq!(Metric::Ops.kind(), MetricKind::Counter);
        assert_eq!(Metric::Parked.kind(), MetricKind::Gauge);
    }
}
