//! Wall-clock span profiling for the threads backend.
//!
//! Each node's OS thread owns one [`SpanRecorder`] — thread-local by
//! construction, so the hot path never takes a lock or touches a shared
//! cache line. Recording uses *boundary-timestamp chaining*: the recorder
//! keeps the `Instant` of the last segment boundary, and [`SpanRecorder::mark`]
//! attributes everything since that boundary to one [`SpanKind`] while
//! advancing the boundary to "now". Consecutive segments therefore share
//! their boundary timestamp and the categories tile the thread's wall time
//! exactly — the ±1% reconciliation against the independently measured
//! thread wall time only has to absorb the (tiny) head and tail outside the
//! instrumented loop, not clock-read skew between segments.
//!
//! A disabled run carries an `Option<SpanRecorder>` that stays `None`: one
//! branch per site, no timestamps taken.

use crate::event::NodeId;
use crate::hist::LogHist;
use std::time::Instant;

/// What a node's thread was doing between two boundaries of its epoch loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Serializing + shipping pending wire frames to peers.
    FrameFlush,
    /// Never recorded — the slot exchange is the epoch round's one
    /// rendezvous. Kept, with its `barrier_wait` label, only because the
    /// frozen benchmark manifest derives `runtime.threads.barrier_wait_share`
    /// from [`ALL_SPAN_KINDS`]; ROADMAP item 1 releases both.
    BarrierWait,
    /// Merging delivered frames into the local event queue.
    InboxDrain,
    /// Aggregating the round's slots, computing the horizon.
    Decide,
    /// In the epoch exchange up to the first park: posting the slot and
    /// spinning on the round's completion (the fast path).
    SlotSpin,
    /// Parked in the epoch exchange after the spin budget ran out.
    CondvarWait,
    /// Blocked waiting for a peer promise to advance the safe horizon
    /// (async sync mode only — the asynchronous analogue of `SlotSpin` +
    /// `CondvarWait`, which are both zero there).
    HorizonWait,
    /// Executing guest events below the horizon (the useful work).
    Execute,
}

/// Number of span kinds (array-indexed accounting). Any single run uses at
/// most six: epoch-mode runs never record `HorizonWait`, async-mode runs
/// never record `SlotSpin` or `CondvarWait` — either way the categories
/// that do appear tile the thread's wall time exactly.
pub const SPAN_KINDS: usize = 8;

/// All kinds, in display order: useful work first, stalls after.
pub const ALL_SPAN_KINDS: [SpanKind; SPAN_KINDS] = [
    SpanKind::Execute,
    SpanKind::BarrierWait,
    SpanKind::HorizonWait,
    SpanKind::SlotSpin,
    SpanKind::CondvarWait,
    SpanKind::InboxDrain,
    SpanKind::FrameFlush,
    SpanKind::Decide,
];

impl SpanKind {
    pub fn index(self) -> usize {
        match self {
            SpanKind::Execute => 0,
            SpanKind::BarrierWait => 1,
            SpanKind::HorizonWait => 2,
            SpanKind::SlotSpin => 3,
            SpanKind::CondvarWait => 4,
            SpanKind::InboxDrain => 5,
            SpanKind::FrameFlush => 6,
            SpanKind::Decide => 7,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Execute => "execute",
            SpanKind::BarrierWait => "barrier_wait",
            SpanKind::HorizonWait => "horizon_wait",
            SpanKind::SlotSpin => "slot_spin",
            SpanKind::CondvarWait => "condvar_wait",
            SpanKind::InboxDrain => "inbox_drain",
            SpanKind::FrameFlush => "frame_flush",
            SpanKind::Decide => "decide",
        }
    }
}

/// One raw span, kept only when a Chrome export is requested.
/// Times are nanoseconds relative to the driver's shared start instant, so
/// spans from different node threads line up on one real-time axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallSpan {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Keep at most this many raw spans per node (~24 MB/node worst case);
/// beyond it we keep aggregating but count dropped spans.
pub const MAX_RAW_SPANS: usize = 1 << 20;

/// Per-thread span accounting. See module docs for the chaining discipline.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    mark: Instant,
    totals_ns: [u64; SPAN_KINDS],
    counts: [u64; SPAN_KINDS],
    hists: [LogHist; SPAN_KINDS],
    spans: Vec<WallSpan>,
    keep_spans: bool,
    spans_dropped: u64,
    /// Virtual window length (ps) per round — fed by the driver loop.
    pub window_ps: LogHist,
}

impl SpanRecorder {
    /// `origin` is the driver-wide start instant shared by all node threads;
    /// `keep_spans` retains raw spans for the Chrome real-time lanes.
    pub fn new(origin: Instant, keep_spans: bool) -> SpanRecorder {
        SpanRecorder {
            origin,
            mark: Instant::now(),
            totals_ns: [0; SPAN_KINDS],
            counts: [0; SPAN_KINDS],
            hists: std::array::from_fn(|_| LogHist::new()),
            spans: Vec::new(),
            keep_spans,
            spans_dropped: 0,
            window_ps: LogHist::new(),
        }
    }

    /// Close the segment that started at the previous boundary, attributing
    /// it to `kind`, and open the next segment at "now".
    #[inline]
    pub fn mark(&mut self, kind: SpanKind) {
        let now = Instant::now();
        let dur = now.duration_since(self.mark);
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let i = kind.index();
        self.totals_ns[i] += dur_ns;
        self.counts[i] += 1;
        self.hists[i].record(dur_ns);
        if self.keep_spans {
            if self.spans.len() < MAX_RAW_SPANS {
                let start = self.mark.duration_since(self.origin);
                let start_ns = u64::try_from(start.as_nanos()).unwrap_or(u64::MAX);
                self.spans.push(WallSpan { kind, start_ns, dur_ns });
            } else {
                self.spans_dropped += 1;
            }
        }
        self.mark = now;
    }

    /// Fold the accounting into a per-node profile. `wall_ns` is the thread's
    /// independently measured wall time (start-of-thread to end), against
    /// which the categories are reconciled.
    pub fn finish(self, node: NodeId, wall_ns: u64) -> NodeWallProfile {
        let kinds = ALL_SPAN_KINDS
            .iter()
            .map(|&k| {
                let i = k.index();
                KindStats {
                    kind: k,
                    count: self.counts[i],
                    total_ns: self.totals_ns[i],
                    hist: self.hists[i].clone(),
                }
            })
            .collect();
        NodeWallProfile {
            node,
            wall_ns,
            kinds,
            window_ps: self.window_ps,
            frame_bytes: LogHist::new(),
            spans: self.spans,
            spans_dropped: self.spans_dropped,
        }
    }
}

/// Aggregate stats for one span kind on one node.
#[derive(Debug, Clone)]
pub struct KindStats {
    pub kind: SpanKind,
    pub count: u64,
    pub total_ns: u64,
    pub hist: LogHist,
}

/// Wall-clock profile of one node's thread.
#[derive(Debug, Clone)]
pub struct NodeWallProfile {
    pub node: NodeId,
    /// Thread wall time, measured independently of the span accounting.
    pub wall_ns: u64,
    /// One entry per [`SpanKind`], in `ALL_SPAN_KINDS` order.
    pub kinds: Vec<KindStats>,
    /// Virtual window length per round (ps).
    pub window_ps: LogHist,
    /// Shipped frame sizes (bytes), from the node's transport endpoint.
    pub frame_bytes: LogHist,
    /// Raw spans for Chrome export (empty unless a trace was requested).
    pub spans: Vec<WallSpan>,
    pub spans_dropped: u64,
}

impl NodeWallProfile {
    /// Sum of all span categories (ns).
    pub fn accounted_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.total_ns).sum()
    }

    pub fn stats_of(&self, kind: SpanKind) -> &KindStats {
        &self.kinds[ALL_SPAN_KINDS.iter().position(|&k| k == kind).unwrap()]
    }
}

/// Wall-clock profile of a whole threads-backend run.
#[derive(Debug, Clone, Default)]
pub struct WallProfile {
    /// One entry per node, sorted by node id.
    pub nodes: Vec<NodeWallProfile>,
}

impl WallProfile {
    /// The stall kind (anything but `Execute`) with the largest total across
    /// nodes — the headline answer to "where does the wall time go?".
    pub fn dominant_stall(&self) -> Option<(SpanKind, u64)> {
        ALL_SPAN_KINDS
            .iter()
            .filter(|&&k| k != SpanKind::Execute)
            .map(|&k| (k, self.nodes.iter().map(|n| n.stats_of(k).total_ns).sum::<u64>()))
            .max_by_key(|&(_, ns)| ns)
            .filter(|&(_, ns)| ns > 0)
    }

    /// Total wall ns across nodes attributed to `kind`.
    pub fn total_of(&self, kind: SpanKind) -> u64 {
        self.nodes.iter().map(|n| n.stats_of(kind).total_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_marks_tile_wall_time_exactly() {
        let t0 = Instant::now();
        let mut rec = SpanRecorder::new(t0, true);
        // Reset the boundary so the measured interval starts here.
        rec.mark(SpanKind::Decide);
        let begin = Instant::now();
        rec.mark = begin;
        for _ in 0..100 {
            std::hint::black_box((0..100).sum::<u64>());
            rec.mark(SpanKind::Execute);
            rec.mark(SpanKind::BarrierWait);
        }
        let measured = begin.elapsed().as_nanos() as u64;
        let prof = rec.finish(0, measured);
        let exec = prof.stats_of(SpanKind::Execute).total_ns;
        let barrier = prof.stats_of(SpanKind::BarrierWait).total_ns;
        // Chaining means the two categories (plus the pre-loop Decide mark,
        // excluded by resetting the boundary) account for everything between
        // `begin` and the last mark — within the final `elapsed()` call.
        let accounted = exec + barrier;
        assert!(accounted <= measured, "{accounted} > {measured}");
        assert!(measured - accounted < measured / 50 + 50_000, "gap too large");
        assert_eq!(prof.stats_of(SpanKind::Execute).count, 100);
        assert_eq!(prof.spans.len(), 201);
        // Spans are on the shared origin axis and non-overlapping in order.
        for w in prof.spans.windows(2) {
            assert!(w[0].start_ns + w[0].dur_ns <= w[1].start_ns + 1);
        }
    }

    #[test]
    fn disabled_span_keeping_aggregates_only() {
        let mut rec = SpanRecorder::new(Instant::now(), false);
        rec.mark(SpanKind::Execute);
        rec.window_ps.record(1_000_000);
        let prof = rec.finish(3, 123);
        assert!(prof.spans.is_empty());
        assert_eq!(prof.spans_dropped, 0);
        assert_eq!(prof.node, 3);
        assert_eq!(prof.stats_of(SpanKind::Execute).count, 1);
        assert_eq!(prof.window_ps.count(), 1);
    }

    #[test]
    fn dominant_stall_ignores_execute() {
        let mut rec = SpanRecorder::new(Instant::now(), false);
        rec.totals_ns[SpanKind::Execute.index()] = 1_000_000;
        rec.totals_ns[SpanKind::BarrierWait.index()] = 500;
        rec.totals_ns[SpanKind::FrameFlush.index()] = 900;
        let wall = WallProfile { nodes: vec![rec.finish(0, 1_001_400)] };
        let (kind, ns) = wall.dominant_stall().unwrap();
        assert_eq!(kind, SpanKind::FrameFlush);
        assert_eq!(ns, 900);
        assert_eq!(wall.total_of(SpanKind::Execute), 1_000_000);
    }
}
