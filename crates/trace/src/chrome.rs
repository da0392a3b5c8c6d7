//! Chrome trace-event JSON exporter (loadable in Perfetto / chrome://tracing).
//!
//! Mapping: one `pid` per node, one `tid` per thread uid, plus two
//! pseudo-lanes per node (`net-out` for wire occupancy, `dsm` for protocol
//! instants). CPU slices and stall intervals become `"X"` complete events;
//! lock grants and object fetches become `"s"`/`"f"` flow pairs — exactly
//! one `"s"` per `LockGrant` event, so the exported lock-grant flow count
//! equals `DsmStats::grants_sent` on a full trace. Timestamps convert
//! virtual picoseconds to the format's microseconds with six fractional
//! digits, so nothing is lost and the output is byte-deterministic.
//!
//! The format is the "JSON Array Format" of the Trace Event spec wrapped in
//! `{"traceEvents": [...]}`; all strings we emit are ASCII without escapes.
//!
//! [`chrome_trace_unified`] additionally renders a **second clock domain**:
//! real-time wall spans from the threads backend's per-node profiler. The
//! two domains share the one timeline axis the format offers, so they are
//! kept apart by pid namespace — virtual-time lanes use `pid = node`, wall
//! lanes use `pid = 100000 + node` ("node N wall-clock") — and by category
//! (`"wall"` vs `"cpu"`/`"stall"`/`"net"`/`"dsm"`). Within the wall lanes,
//! timestamps are real microseconds since the driver's shared start instant.

use crate::event::{Event, NodeId, Ps, TraceEvent};
use crate::wall::WallProfile;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

/// Pseudo-tid for the per-node network lane (real uids are far smaller).
const NET_TID: u64 = 9_000_000;
/// Pseudo-tid for the per-node DSM-protocol instant lane.
const DSM_TID: u64 = 9_000_001;
/// Pid offset for real-time wall lanes (> u16::MAX, so node pids can't collide).
const WALL_PID_BASE: u64 = 100_000;

fn us(ps: Ps) -> String {
    // 1 µs = 1e6 ps; six fractional digits keep full picosecond precision.
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

fn us_from_ns(ns: u64) -> String {
    // Wall lanes: 1 µs = 1e3 ns; three fractional digits keep nanoseconds.
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[allow(clippy::too_many_arguments)]
fn push_event(out: &mut String, ph: char, name: &str, cat: &str, pid: NodeId, tid: u64, ts: Ps, extra: &str) {
    let _ = writeln!(
        out,
        "{{\"ph\":\"{}\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}{}}},",
        ph,
        name,
        cat,
        pid,
        tid,
        us(ts),
        extra
    );
}

/// Render a full event stream as Chrome trace-event JSON.
pub fn chrome_trace(events: &[Event]) -> String {
    chrome_trace_unified(events, None)
}

/// Render the virtual-time event stream plus (optionally) the threads
/// backend's real-time wall spans as one Chrome trace with two clock
/// domains (see module docs for the pid-namespace mapping).
pub fn chrome_trace_unified(events: &[Event], wall: Option<&WallProfile>) -> String {
    // Pass 1: discover nodes and threads (for metadata), index lock
    // acquires and fetch completions (for flow binding).
    let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
    let mut threads: BTreeMap<(NodeId, u32), ()> = BTreeMap::new();
    // (gid, node, thread) -> queue of acquire timestamps, consumed in order.
    let mut acquires: HashMap<(u64, NodeId, u32), Vec<Ps>> = HashMap::new();
    for e in events {
        nodes.insert(e.ev.node());
        match e.ev {
            TraceEvent::ThreadSpawn { node, thread }
            | TraceEvent::Slice { node, thread, .. }
            | TraceEvent::ThreadBlock { node, thread, .. }
            | TraceEvent::ThreadReady { node, thread }
            | TraceEvent::ThreadExit { node, thread } => {
                threads.insert((node, thread), ());
            }
            TraceEvent::LockAcquire { node, gid, thread } => {
                acquires.entry((gid, node, thread)).or_default().push(e.t);
            }
            TraceEvent::NetSend { dst, .. } => {
                nodes.insert(dst);
            }
            _ => {}
        }
    }
    let mut acq_cursor: HashMap<(u64, NodeId, u32), usize> = HashMap::new();

    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");

    // Metadata: process and thread names.
    for &node in &nodes {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"args\":{{\"name\":\"node {}\"}}}},",
            node, node
        );
        for (tid, label) in [(NET_TID, "net-out"), (DSM_TID, "dsm")] {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}},",
                node, tid, label
            );
        }
    }
    for &(node, thread) in threads.keys() {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"thread {}\"}}}},",
            node, thread, thread
        );
    }

    // Pass 2: emit. Open stall intervals per (node, thread); open fetch
    // flows per (node, gid) in FIFO order (the DSM coalesces concurrent
    // fetches of one object, so one FetchRequest precedes one FetchDone).
    let mut open_stall: HashMap<(NodeId, u32), (Ps, &'static str)> = HashMap::new();
    let mut open_fetch: HashMap<(NodeId, u64), Vec<(Ps, u32)>> = HashMap::new();
    let mut flow_id: u64 = 0;
    let horizon = events
        .iter()
        .map(|e| if let TraceEvent::Slice { end, .. } = e.ev { e.t.max(end) } else { e.t })
        .max()
        .unwrap_or(0);

    for e in events {
        match e.ev {
            TraceEvent::Slice { node, cpu, thread, end, ops } => {
                let extra = format!(
                    ",\"dur\":{},\"args\":{{\"cpu\":{},\"ops\":{}}}",
                    us(end.saturating_sub(e.t)),
                    cpu,
                    ops
                );
                push_event(&mut out, 'X', "run", "cpu", node, thread as u64, e.t, &extra);
            }
            TraceEvent::ThreadBlock { node, thread, reason } => {
                open_stall.insert((node, thread), (e.t, reason.name()));
            }
            TraceEvent::ThreadReady { node, thread } | TraceEvent::ThreadExit { node, thread } => {
                if let Some((t0, name)) = open_stall.remove(&(node, thread)) {
                    let extra = format!(",\"dur\":{}", us(e.t - t0));
                    push_event(&mut out, 'X', name, "stall", node, thread as u64, t0, &extra);
                }
            }
            TraceEvent::ThreadSpawn { node, thread } => {
                let extra = format!(",\"s\":\"t\",\"args\":{{\"thread\":{}}}", thread);
                push_event(&mut out, 'i', "spawn", "sched", node, thread as u64, e.t, &extra);
            }
            TraceEvent::ThreadShip { from, to, thread_gid } => {
                let extra = format!(",\"s\":\"p\",\"args\":{{\"to\":{},\"thread_gid\":{}}}", to, thread_gid);
                push_event(&mut out, 'i', "ship-thread", "sched", from, DSM_TID, e.t, &extra);
            }
            TraceEvent::LockGrant { node, gid, to_node, to_thread } => {
                // One "s" per grant, unconditionally: flow count == grants_sent.
                flow_id += 1;
                let extra = format!(",\"id\":{},\"args\":{{\"gid\":{},\"to\":{}}}", flow_id, gid, to_node);
                push_event(&mut out, 's', "lock-grant", "lock", node, DSM_TID, e.t, &extra);
                // Bind the "f" to the next acquire of this lock by the grantee.
                let key = (gid, to_node, to_thread);
                let cursor = acq_cursor.entry(key).or_insert(0);
                if let Some(list) = acquires.get(&key) {
                    while *cursor < list.len() && list[*cursor] < e.t {
                        *cursor += 1;
                    }
                    if *cursor < list.len() {
                        let t_acq = list[*cursor];
                        *cursor += 1;
                        let extra = format!(",\"id\":{},\"bp\":\"e\",\"args\":{{\"gid\":{}}}", flow_id, gid);
                        push_event(&mut out, 'f', "lock-grant", "lock", to_node, to_thread as u64, t_acq, &extra);
                    }
                }
            }
            TraceEvent::FetchRequest { node, gid, thread } => {
                flow_id += 1;
                open_fetch.entry((node, gid)).or_default().push((flow_id, thread));
                let extra = format!(",\"id\":{},\"args\":{{\"gid\":{}}}", flow_id, gid);
                push_event(&mut out, 's', "fetch", "dsm", node, thread as u64, e.t, &extra);
            }
            TraceEvent::FetchDone { node, gid, woken } => {
                if let Some(list) = open_fetch.get_mut(&(node, gid)) {
                    if !list.is_empty() {
                        let (id, thread) = list.remove(0);
                        let extra =
                            format!(",\"id\":{},\"bp\":\"e\",\"args\":{{\"gid\":{},\"woken\":{}}}", id, gid, woken);
                        push_event(&mut out, 'f', "fetch", "dsm", node, thread as u64, e.t, &extra);
                    }
                }
            }
            TraceEvent::NetSend { src, dst, kind, bytes, deliver } => {
                let extra = format!(
                    ",\"dur\":{},\"args\":{{\"dst\":{},\"bytes\":{}}}",
                    us(deliver.saturating_sub(e.t)),
                    dst,
                    bytes
                );
                push_event(&mut out, 'X', kind.name(), "net", src, NET_TID, e.t, &extra);
            }
            TraceEvent::DiffFlush { node, gid, entries } => {
                let extra = format!(",\"s\":\"t\",\"args\":{{\"gid\":{},\"entries\":{}}}", gid, entries);
                push_event(&mut out, 'i', "diff-flush", "dsm", node, DSM_TID, e.t, &extra);
            }
            TraceEvent::DiffAck { node, gid, version } => {
                let extra = format!(",\"s\":\"t\",\"args\":{{\"gid\":{},\"version\":{}}}", gid, version);
                push_event(&mut out, 'i', "diff-ack", "dsm", node, DSM_TID, e.t, &extra);
            }
            TraceEvent::Invalidate { node, gid } => {
                let extra = format!(",\"s\":\"t\",\"args\":{{\"gid\":{}}}", gid);
                push_event(&mut out, 'i', "invalidate", "dsm", node, DSM_TID, e.t, &extra);
            }
            TraceEvent::WaitPark { node, gid, thread } => {
                let extra = format!(",\"s\":\"t\",\"args\":{{\"gid\":{}}}", gid);
                push_event(&mut out, 'i', "wait-park", "dsm", node, thread as u64, e.t, &extra);
            }
            TraceEvent::Notify { node, gid, thread, all } => {
                let name = if all { "notify-all" } else { "notify" };
                let extra = format!(",\"s\":\"t\",\"args\":{{\"gid\":{}}}", gid);
                push_event(&mut out, 'i', name, "dsm", node, thread as u64, e.t, &extra);
            }
            TraceEvent::Promote { node, gid } => {
                let extra = format!(",\"s\":\"t\",\"args\":{{\"gid\":{}}}", gid);
                push_event(&mut out, 'i', "promote", "dsm", node, DSM_TID, e.t, &extra);
            }
            TraceEvent::AckWaitBegin { .. }
            | TraceEvent::AckWaitEnd { .. }
            | TraceEvent::LockRequest { .. }
            | TraceEvent::LockAcquire { .. }
            | TraceEvent::LockHomeRelease { .. } => {
                // Represented via derived metrics / flow targets; skipping
                // keeps the export compact.
            }
        }
    }
    // Stalls still open at the end of the run (deadlocked threads) are
    // clipped to the horizon so they render.
    let mut tail: Vec<_> = open_stall.into_iter().collect();
    tail.sort_unstable_by_key(|&((node, thread), _)| (node, thread));
    for ((node, thread), (t0, name)) in tail {
        let extra = format!(",\"dur\":{}", us(horizon.saturating_sub(t0)));
        push_event(&mut out, 'X', name, "stall", node, thread as u64, t0, &extra);
    }

    // Second clock domain: real-time wall lanes (threads-backend profiler).
    if let Some(w) = wall {
        for n in &w.nodes {
            if n.spans.is_empty() {
                continue;
            }
            let pid = WALL_PID_BASE + n.node as u64;
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"args\":{{\"name\":\"node {} wall-clock\"}}}},",
                pid, n.node
            );
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"epoch loop\"}}}},",
                pid
            );
            for s in &n.spans {
                let _ = writeln!(
                    out,
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"wall\",\"pid\":{},\"tid\":0,\"ts\":{},\"dur\":{}}},",
                    s.kind.label(),
                    pid,
                    us_from_ns(s.start_ns),
                    us_from_ns(s.dur_ns)
                );
            }
            if n.spans_dropped > 0 {
                let _ = writeln!(
                    out,
                    "{{\"ph\":\"M\",\"name\":\"spans_dropped\",\"pid\":{},\"args\":{{\"count\":{}}}}},",
                    pid, n.spans_dropped
                );
            }
        }
    }

    // Closing sentinel avoids trailing-comma bookkeeping at every emit site.
    let _ = writeln!(
        out,
        "{{\"ph\":\"M\",\"name\":\"trace_done\",\"pid\":0,\"args\":{{\"events\":{}}}}}",
        events.len()
    );
    out.push_str("]}\n");
    out
}

/// Count occurrences of a `"ph":"<ph>"` + `"name":"<name>"` event in an
/// exported trace (acceptance checks: lock-grant flow count, etc.).
pub fn count_exported(json: &str, ph: char, name: &str) -> usize {
    let needle = format!("{{\"ph\":\"{}\",\"name\":\"{}\",", ph, name);
    json.matches(&needle).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BlockReason, NetKind};
    use crate::json::validate_json;

    fn sample() -> Vec<Event> {
        vec![
            Event { t: 0, ev: TraceEvent::ThreadSpawn { node: 0, thread: 1 } },
            Event { t: 0, ev: TraceEvent::Slice { node: 0, cpu: 0, thread: 1, end: 50, ops: 10 } },
            Event { t: 50, ev: TraceEvent::ThreadBlock { node: 0, thread: 1, reason: BlockReason::Lock } },
            Event { t: 55, ev: TraceEvent::LockRequest { node: 0, gid: 4, thread: 1 } },
            Event { t: 60, ev: TraceEvent::LockGrant { node: 1, gid: 4, to_node: 0, to_thread: 1 } },
            Event {
                t: 60,
                ev: TraceEvent::NetSend { src: 1, dst: 0, kind: NetKind::LockGrant, bytes: 32, deliver: 80 },
            },
            Event { t: 80, ev: TraceEvent::ThreadReady { node: 0, thread: 1 } },
            Event { t: 80, ev: TraceEvent::LockAcquire { node: 0, gid: 4, thread: 1 } },
            Event { t: 90, ev: TraceEvent::FetchRequest { node: 0, gid: 9, thread: 1 } },
            Event { t: 120, ev: TraceEvent::FetchDone { node: 0, gid: 9, woken: 1 } },
        ]
    }

    #[test]
    fn export_is_valid_json_with_expected_shapes() {
        let json = chrome_trace(&sample());
        validate_json(&json).expect("exporter must emit well-formed JSON");
        assert_eq!(count_exported(&json, 's', "lock-grant"), 1);
        assert_eq!(count_exported(&json, 'f', "lock-grant"), 1);
        assert_eq!(count_exported(&json, 's', "fetch"), 1);
        assert_eq!(count_exported(&json, 'f', "fetch"), 1);
        assert_eq!(count_exported(&json, 'X', "run"), 1);
        assert_eq!(count_exported(&json, 'X', "lock-wait"), 1);
        assert!(json.contains("\"name\":\"node 0\""));
        assert!(json.contains("\"name\":\"thread 1\""));
        // 60 ps -> 0.000060 µs: picosecond precision survives.
        assert!(json.contains("\"ts\":0.000060"));
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace(&sample());
        let b = chrome_trace(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn unmatched_grant_still_emits_flow_start() {
        let events = [Event { t: 5, ev: TraceEvent::LockGrant { node: 0, gid: 1, to_node: 1, to_thread: 9 } }];
        let json = chrome_trace(&events);
        validate_json(&json).unwrap();
        assert_eq!(count_exported(&json, 's', "lock-grant"), 1);
        assert_eq!(count_exported(&json, 'f', "lock-grant"), 0);
    }

    #[test]
    fn unified_export_adds_wall_lanes_in_their_own_pid_namespace() {
        use crate::wall::{NodeWallProfile, SpanKind, WallProfile, WallSpan};
        use crate::hist::LogHist;
        let wall = WallProfile {
            nodes: vec![NodeWallProfile {
                node: 2,
                wall_ns: 3_000,
                kinds: Vec::new(),
                window_ps: LogHist::new(),
                frame_bytes: LogHist::new(),
                spans: vec![
                    WallSpan { kind: SpanKind::Execute, start_ns: 0, dur_ns: 1_500 },
                    WallSpan { kind: SpanKind::BarrierWait, start_ns: 1_500, dur_ns: 1_500 },
                ],
                spans_dropped: 0,
            }],
        };
        let json = chrome_trace_unified(&sample(), Some(&wall));
        validate_json(&json).unwrap();
        // Wall lanes live at pid 100000 + node, category "wall".
        assert!(json.contains("\"pid\":100002"));
        assert!(json.contains("\"name\":\"node 2 wall-clock\""));
        assert_eq!(count_exported(&json, 'X', "barrier_wait"), 1);
        assert_eq!(count_exported(&json, 'X', "execute"), 1);
        // 1500 ns -> 1.500 µs in the real-time domain.
        assert!(json.contains("\"ts\":1.500"));
        // Virtual lanes are unchanged relative to the plain export.
        assert_eq!(count_exported(&json, 'X', "run"), 1);
        // And with no wall profile the unified export equals the plain one.
        assert_eq!(chrome_trace_unified(&sample(), None), chrome_trace(&sample()));
    }

    #[test]
    fn open_stall_is_clipped_to_horizon() {
        let events = [
            Event { t: 0, ev: TraceEvent::Slice { node: 0, cpu: 0, thread: 1, end: 100, ops: 1 } },
            Event { t: 40, ev: TraceEvent::ThreadBlock { node: 0, thread: 2, reason: BlockReason::Fetch } },
        ];
        let json = chrome_trace(&events);
        validate_json(&json).unwrap();
        assert_eq!(count_exported(&json, 'X', "fetch-stall"), 1);
        assert!(json.contains("\"dur\":0.000060"));
    }
}
