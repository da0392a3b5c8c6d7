//! Per-node time breakdown: where did every CPU-picosecond go?
//!
//! For each node the run's time budget is `horizon × cpus`. A sweep over the
//! event stream splits that budget into five exclusive buckets:
//!
//! * `compute` — a thread was running on the CPU,
//! * `lock_wait` — CPU idle while ≥1 local thread was blocked on a monitor
//!   (including `Object.wait()` parks),
//! * `fetch_stall` — CPU idle while ≥1 local thread was blocked on a DSM
//!   object fetch,
//! * `ack_wait` — CPU idle while a lock transfer was deferred behind
//!   outstanding diff acks (§3.1's scalar-timestamp cost window),
//! * `idle` — nothing to do (includes sleeps and pre-join time).
//!
//! When several causes overlap, idle CPU time is attributed by priority
//! `fetch > lock > ack` — a fetch stall is the most specific protocol
//! latency, an open ack window the least. The buckets sum to the budget
//! *exactly* (no rounding: everything is integer picoseconds), so
//! [`NodeBreakdown::checks_out`] is a real invariant: it fails if the
//! scheduler ever enters a state the trace vocabulary cannot express.
//!
//! The sweep assumes a complete stream ([`TraceMode::Full`]); over a ring
//! recorder's truncated stream the identity does not hold.
//!
//! [`TraceMode::Full`]: crate::TraceMode::Full

use crate::event::{BlockReason, Event, NodeId, Ps, TraceEvent};
use std::collections::HashMap;

/// One node's time accounting. All `_ps` fields are CPU-picoseconds, i.e.
/// wall-picoseconds multiplied by the number of CPUs involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeBreakdown {
    pub node: NodeId,
    pub cpus: u32,
    pub compute_ps: u64,
    pub lock_wait_ps: u64,
    pub fetch_stall_ps: u64,
    pub ack_wait_ps: u64,
    pub idle_ps: u64,
}

impl NodeBreakdown {
    /// Sum of all buckets.
    pub fn total_ps(&self) -> u64 {
        self.compute_ps + self.lock_wait_ps + self.fetch_stall_ps + self.ack_wait_ps + self.idle_ps
    }

    /// The identity the tentpole promises: buckets sum to `horizon × cpus`.
    pub fn checks_out(&self, horizon: Ps) -> bool {
        self.total_ps() == horizon * self.cpus as u64
    }
}

// Sweep-line deltas: at time `t`, bucket `which` gains `delta` members.
const BUSY: usize = 0;
const FETCH: usize = 1;
const LOCK: usize = 2;
const ACK: usize = 3;

/// Compute the per-node breakdown over `[0, horizon)` virtual picoseconds.
///
/// `cpus_per_node[i]` is node `i`'s CPU count; the returned vector has one
/// entry per node in node order. Events past `horizon` (possible only in
/// aborted runs) are clipped.
pub fn node_breakdown(events: &[Event], cpus_per_node: &[u32], horizon: Ps) -> Vec<NodeBreakdown> {
    let nodes = cpus_per_node.len();
    // Per node: (time, which, delta) sweep points.
    let mut deltas: Vec<Vec<(Ps, usize, i64)>> = vec![Vec::new(); nodes];
    // Open blocked-thread intervals: (node, thread) -> (start, bucket).
    let mut open_block: HashMap<(NodeId, u32), (Ps, Option<usize>)> = HashMap::new();
    // Open ack-wait window per node.
    let mut open_ack: Vec<Option<Ps>> = vec![None; nodes];

    let push = |deltas: &mut Vec<Vec<(Ps, usize, i64)>>, node: NodeId, start: Ps, end: Ps, which: usize| {
        let (start, end) = (start.min(horizon), end.min(horizon));
        if start < end && (node as usize) < nodes {
            deltas[node as usize].push((start, which, 1));
            deltas[node as usize].push((end, which, -1));
        }
    };

    for e in events {
        match e.ev {
            TraceEvent::Slice { node, end, .. } => {
                push(&mut deltas, node, e.t, end, BUSY);
            }
            TraceEvent::ThreadBlock { node, thread, reason } => {
                let bucket = match reason {
                    BlockReason::Fetch => Some(FETCH),
                    BlockReason::Lock | BlockReason::Wait => Some(LOCK),
                    BlockReason::Sleep | BlockReason::Other => None,
                };
                open_block.insert((node, thread), (e.t, bucket));
            }
            TraceEvent::ThreadReady { node, thread } | TraceEvent::ThreadExit { node, thread } => {
                if let Some((start, Some(bucket))) = open_block.remove(&(node, thread)) {
                    push(&mut deltas, node, start, e.t, bucket);
                }
            }
            TraceEvent::AckWaitBegin { node }
                if (node as usize) < nodes && open_ack[node as usize].is_none() =>
            {
                open_ack[node as usize] = Some(e.t);
            }
            TraceEvent::AckWaitEnd { node } => {
                if let Some(start) = open_ack.get_mut(node as usize).and_then(|s| s.take()) {
                    push(&mut deltas, node, start, e.t, ACK);
                }
            }
            _ => {}
        }
    }
    // Threads still blocked (deadlock / end of run) and open ack windows
    // stall until the horizon.
    for ((node, _), (start, bucket)) in open_block {
        if let Some(bucket) = bucket {
            push(&mut deltas, node, start, horizon, bucket);
        }
    }
    for (node, start) in open_ack.iter().enumerate() {
        if let Some(start) = start {
            push(&mut deltas, node as NodeId, *start, horizon, ACK);
        }
    }

    let mut out = Vec::with_capacity(nodes);
    for (node, node_deltas) in deltas.iter_mut().enumerate() {
        let cpus = cpus_per_node[node] as u64;
        let mut b = NodeBreakdown { node: node as NodeId, cpus: cpus as u32, ..Default::default() };
        node_deltas.sort_unstable();
        let mut counts = [0i64; 4];
        let mut prev = 0u64;
        let mut i = 0;
        while i < node_deltas.len() {
            let t = node_deltas[i].0;
            let dt = t - prev;
            if dt > 0 {
                account(&mut b, &counts, cpus, dt);
                prev = t;
            }
            while i < node_deltas.len() && node_deltas[i].0 == t {
                counts[node_deltas[i].1] += node_deltas[i].2;
                i += 1;
            }
        }
        if horizon > prev {
            account(&mut b, &counts, cpus, horizon - prev);
        }
        out.push(b);
    }
    out
}

fn account(b: &mut NodeBreakdown, counts: &[i64; 4], cpus: u64, dt: u64) {
    // `busy` never exceeds `cpus` in a well-formed trace; if it ever did,
    // compute would overshoot and `checks_out` would flag it — by design.
    let busy = counts[BUSY].max(0) as u64;
    b.compute_ps += busy * dt;
    let idle_cpus = cpus.saturating_sub(busy);
    if idle_cpus == 0 {
        return;
    }
    let stall = idle_cpus * dt;
    if counts[FETCH] > 0 {
        b.fetch_stall_ps += stall;
    } else if counts[LOCK] > 0 {
        b.lock_wait_ps += stall;
    } else if counts[ACK] > 0 {
        b.ack_wait_ps += stall;
    } else {
        b.idle_ps += stall;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BlockReason;

    fn ev(t: Ps, ev: TraceEvent) -> Event {
        Event { t, ev }
    }

    #[test]
    fn empty_trace_is_all_idle() {
        let b = node_breakdown(&[], &[2, 4], 100);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].idle_ps, 200);
        assert_eq!(b[1].idle_ps, 400);
        assert!(b.iter().all(|n| n.checks_out(100)));
    }

    #[test]
    fn slices_become_compute_rest_idle() {
        // 1 CPU, horizon 100: run [10,40), run [60,100).
        let events = [
            ev(10, TraceEvent::Slice { node: 0, cpu: 0, thread: 1, end: 40, ops: 5 }),
            ev(60, TraceEvent::Slice { node: 0, cpu: 0, thread: 1, end: 100, ops: 5 }),
        ];
        let b = node_breakdown(&events, &[1], 100);
        assert_eq!(b[0].compute_ps, 70);
        assert_eq!(b[0].idle_ps, 30);
        assert!(b[0].checks_out(100));
    }

    #[test]
    fn blocked_thread_attributes_idle_cpu_by_reason() {
        // 2 CPUs. Thread 1 runs [0,50). Thread 2 blocks on a fetch at 10,
        // wakes at 30, blocks on a lock at 30, never wakes.
        let events = [
            ev(0, TraceEvent::Slice { node: 0, cpu: 0, thread: 1, end: 50, ops: 1 }),
            ev(10, TraceEvent::ThreadBlock { node: 0, thread: 2, reason: BlockReason::Fetch }),
            ev(30, TraceEvent::ThreadReady { node: 0, thread: 2 }),
            ev(30, TraceEvent::ThreadBlock { node: 0, thread: 2, reason: BlockReason::Lock }),
        ];
        let b = node_breakdown(&events, &[2], 100);
        assert_eq!(b[0].compute_ps, 50);
        // [10,30): one idle CPU, fetch pending -> 20. [30,100): lock -> 70
        // on the second CPU; [50,100) on the first CPU also lock -> +50.
        assert_eq!(b[0].fetch_stall_ps, 20);
        assert_eq!(b[0].lock_wait_ps, 120);
        // [0,10): one CPU idle, nothing pending.
        assert_eq!(b[0].idle_ps, 10);
        assert!(b[0].checks_out(100));
    }

    #[test]
    fn fetch_outranks_lock_outranks_ack() {
        let events = [
            ev(0, TraceEvent::AckWaitBegin { node: 0 }),
            ev(10, TraceEvent::ThreadBlock { node: 0, thread: 1, reason: BlockReason::Lock }),
            ev(20, TraceEvent::ThreadBlock { node: 0, thread: 2, reason: BlockReason::Fetch }),
            ev(30, TraceEvent::ThreadReady { node: 0, thread: 2 }),
            ev(40, TraceEvent::ThreadReady { node: 0, thread: 1 }),
            ev(50, TraceEvent::AckWaitEnd { node: 0 }),
        ];
        let b = node_breakdown(&events, &[1], 60);
        assert_eq!(b[0].ack_wait_ps, 10 + 10); // [0,10) + [40,50)
        assert_eq!(b[0].lock_wait_ps, 10 + 10); // [10,20) + [30,40)
        assert_eq!(b[0].fetch_stall_ps, 10); // [20,30)
        assert_eq!(b[0].idle_ps, 10);
        assert!(b[0].checks_out(60));
    }

    #[test]
    fn sleep_counts_as_idle_and_clipping_holds_identity() {
        let events = [
            ev(0, TraceEvent::ThreadBlock { node: 0, thread: 1, reason: BlockReason::Sleep }),
            // Slice overshooting the horizon (aborted run) gets clipped.
            ev(90, TraceEvent::Slice { node: 0, cpu: 0, thread: 2, end: 150, ops: 1 }),
        ];
        let b = node_breakdown(&events, &[1], 100);
        assert_eq!(b[0].compute_ps, 10);
        assert_eq!(b[0].idle_ps, 90);
        assert!(b[0].checks_out(100));
    }
}
