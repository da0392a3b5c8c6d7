//! Live telemetry: the wall-clock sampler thread and the horizon-stall
//! watchdog.
//!
//! The drivers publish into a [`MetricsRegistry`] (one relaxed store per
//! value, at points the hot paths already visit); this module owns the
//! *reader* side. One side-band thread snapshots the registry on a fixed
//! wall-clock interval, computes deltas and rates, streams one JSON object
//! per sample to the `--metrics` file, accumulates the end-of-run
//! [`TelemetrySummary`] (peak/mean rates, horizon-lag percentiles), and —
//! on the threads backend — runs the stall watchdog over the same
//! snapshots.
//!
//! Two clocks, strictly separated: samples are timestamped with *host*
//! wall time (`Instant`), while every sampled value is denominated in the
//! run's own units (virtual ps for horizons, cumulative counts for
//! counters). The sampler only ever loads atomics the nodes publish — it
//! cannot perturb virtual time, scheduling, or any other run state, which
//! is why a `--metrics` run stays bit-identical to a bare one
//! (DESIGN.md §15).
//!
//! # Watchdog blame rule
//!
//! Under conservative sync a node's safe horizon is bounded by the peer
//! terms `min_{i≠j}(next_i + base_i)` of the per-pair rule (§12.2, the only
//! horizon rule): if the horizon stops moving, some peer's published
//! promise is the binding term. A node counts as
//! *stalled* when, for a full budget window, (1) its horizon and retired
//! ops have not changed, (2) it has runnable work at or above the horizon
//! (`queue_head < ∞` and `horizon ≤ queue_head`), and (3) it was observed
//! parked at least once — a runnable-but-descheduled thread on an
//! oversubscribed host fails (3) and never false-positives. The *blamed*
//! peer is the argmin of `next_i + base_i` over peers, i.e. exactly the
//! term pinning the horizon; following blamed→blamed while each link is
//! itself horizon-frozen yields the waits-for chain. The watchdog
//! diagnoses (prints the chain and the flight-recorder timeline) and
//! records a [`StallReport`]; it never kills the run.

use crate::config::MetricsConfig;
use jsplit_net::NodeId;
use jsplit_trace::{
    FlightRecorder, LogHist, Metric, MetricsRegistry, StallReport, TelemetrySummary, METRICS,
};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What the watchdog needs beyond the registry: the budget and the per-node
/// lookahead bases the blame rule evaluates promises with.
#[derive(Debug, Clone)]
pub struct WatchdogSpec {
    /// Horizon-frozen budget before a stall fires (ms).
    pub budget_ms: u64,
    /// Per-node base link latency (ps): peer `i`'s promise term is
    /// `next_i + base_ps[i]`.
    pub base_ps: Vec<u64>,
}

#[derive(Clone, Copy)]
struct NodeWatch {
    horizon: u64,
    ops: u64,
    /// Sample time the (horizon, ops) pair was last seen changing.
    since_ms: u64,
    /// Node observed parked at least once since `since_ms`.
    parked_seen: bool,
    /// Stall already reported for this frozen window (re-arms on change).
    reported: bool,
}

/// The horizon-stall watchdog. Pure state machine over registry snapshots —
/// the caller supplies `now_ms`, so tests drive it with a fake clock.
pub struct Watchdog {
    spec: WatchdogSpec,
    states: Vec<NodeWatch>,
}

impl Watchdog {
    pub fn new(spec: WatchdogSpec) -> Watchdog {
        Watchdog { spec, states: Vec::new() }
    }

    /// The peer whose published promise `next_i + base_i` is the minimum —
    /// the binding term of `node`'s horizon (ties break to the lowest id).
    fn blame(&self, snap: &[[u64; METRICS]], node: usize) -> (usize, u64) {
        let mut best = (node, u64::MAX);
        for (i, row) in snap.iter().enumerate() {
            if i == node {
                continue;
            }
            let term = row[Metric::NextEventPs.index()]
                .saturating_add(self.spec.base_ps.get(i).copied().unwrap_or(0));
            if term < best.1 {
                best = (i, term);
            }
        }
        best
    }

    /// Advance the stall state machine over one snapshot taken at `now_ms`.
    /// Returns newly fired stall reports (each frozen window fires once).
    pub fn tick(&mut self, snap: &[[u64; METRICS]], now_ms: u64) -> Vec<StallReport> {
        if self.states.len() != snap.len() {
            self.states = snap
                .iter()
                .map(|row| NodeWatch {
                    horizon: row[Metric::HorizonPs.index()],
                    ops: row[Metric::Ops.index()],
                    since_ms: now_ms,
                    parked_seen: false,
                    reported: false,
                })
                .collect();
            return Vec::new();
        }
        let mut fired = Vec::new();
        for (j, row) in snap.iter().enumerate() {
            let horizon = row[Metric::HorizonPs.index()];
            let ops = row[Metric::Ops.index()];
            let st = &mut self.states[j];
            if horizon != st.horizon || ops != st.ops {
                *st = NodeWatch { horizon, ops, since_ms: now_ms, parked_seen: false, reported: false };
                continue;
            }
            st.parked_seen |= row[Metric::Parked.index()] == 1;
            let qnext = row[Metric::QueueHeadPs.index()];
            let stalled_ms = now_ms.saturating_sub(st.since_ms);
            if st.reported
                || snap.len() < 2
                || stalled_ms < self.spec.budget_ms
                || !st.parked_seen
                || qnext == u64::MAX
                || horizon > qnext
            {
                continue;
            }
            self.states[j].reported = true;
            let (blamed, promise) = self.blame(snap, j);
            // Waits-for chain: follow blamed→blamed while each hop is
            // itself horizon-frozen past the budget, until a live node or
            // a cycle closes it.
            let mut chain: Vec<NodeId> = vec![j as NodeId, blamed as NodeId];
            let mut cur = blamed;
            while chain.len() <= snap.len() {
                let st = &self.states[cur];
                if now_ms.saturating_sub(st.since_ms) < self.spec.budget_ms {
                    break;
                }
                let (next_hop, _) = self.blame(snap, cur);
                if next_hop == cur || chain.contains(&(next_hop as NodeId)) {
                    break;
                }
                chain.push(next_hop as NodeId);
                cur = next_hop;
            }
            fired.push(StallReport {
                node: j as NodeId,
                blamed: blamed as NodeId,
                stalled_ms,
                horizon_ps: horizon,
                queue_head_ps: qnext,
                blocker_promise_ps: promise,
                chain,
            });
        }
        fired
    }
}

/// Render one stall report as the blame-chain diagnosis the watchdog
/// prints.
pub fn render_stall(r: &StallReport) -> String {
    let chain: Vec<String> = r.chain.iter().map(|n| n.to_string()).collect();
    format!(
        "watchdog: node {} horizon frozen {} ms at {} ps (queue head {} ps) \
         — blocked by node {} (promise {} ps); waits-for: {}",
        r.node,
        r.stalled_ms,
        r.horizon_ps,
        r.queue_head_ps,
        r.blamed,
        r.blocker_promise_ps,
        chain.join(" -> "),
    )
}

/// Handle to the running sampler thread.
pub struct Telemetry {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<TelemetrySummary>,
}

impl Telemetry {
    /// Spawn the sampler. `watchdog` arms the stall watchdog (threads
    /// backend); `flight` is dumped alongside any stall diagnosis. Returns
    /// `Err` if the `--metrics` output file cannot be created.
    pub fn start(
        cfg: &MetricsConfig,
        registry: Arc<MetricsRegistry>,
        flight: Option<Arc<FlightRecorder>>,
        watchdog: Option<WatchdogSpec>,
    ) -> std::io::Result<Telemetry> {
        let out = match &cfg.out {
            Some(path) => Some(std::io::BufWriter::new(std::fs::File::create(path)?)),
            None => None,
        };
        let interval = cfg.interval.max(std::time::Duration::from_millis(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("jsplit-telemetry".into())
            .spawn(move || sampler_loop(registry, flight, watchdog, out, interval, stop2))
            .expect("spawn telemetry thread");
        Ok(Telemetry { stop, handle })
    }

    /// Stop the sampler (it takes one final sample) and collect the run's
    /// time-series summary.
    pub fn finish(self) -> TelemetrySummary {
        self.stop.store(true, Ordering::Release);
        self.handle.thread().unpark();
        self.handle.join().expect("telemetry thread panicked")
    }
}

/// Append one metric value as a JSON field; the ps-gauge sentinel
/// `u64::MAX` (idle / unbounded) serializes as `null`.
fn push_field(line: &mut String, m: Metric, v: u64) {
    use std::fmt::Write as _;
    if v == u64::MAX
        && matches!(m, Metric::HorizonPs | Metric::NextEventPs | Metric::QueueHeadPs)
    {
        let _ = write!(line, "\"{}\":null", m.name());
    } else {
        let _ = write!(line, "\"{}\":{}", m.name(), v);
    }
}

fn sampler_loop(
    registry: Arc<MetricsRegistry>,
    flight: Option<Arc<FlightRecorder>>,
    watchdog: Option<WatchdogSpec>,
    mut out: Option<std::io::BufWriter<std::fs::File>>,
    interval: std::time::Duration,
    stop: Arc<AtomicBool>,
) -> TelemetrySummary {
    use std::fmt::Write as _;
    let t0 = Instant::now();
    let mut wd = watchdog.map(Watchdog::new);
    let mut summary = TelemetrySummary::default();
    let mut prev: Vec<[u64; METRICS]> = Vec::new();
    let mut cur: Vec<[u64; METRICS]> = Vec::new();
    let mut prev_us: u64 = 0;
    let mut first: Option<(u64, u64, u64)> = None; // (t_us, ops, bytes)
    let mut last: (u64, u64, u64);
    let mut line = String::new();
    let mut seq: u64 = 0;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        registry.snapshot_into(&mut cur);
        let now_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        let dt_secs = (now_us.saturating_sub(prev_us)) as f64 / 1e6;

        // Cluster aggregates over this snapshot.
        let sum = |m: Metric| cur.iter().map(|r| r[m.index()]).sum::<u64>();
        let ops = sum(Metric::Ops);
        let bytes = sum(Metric::NetBytesSent);
        let live = sum(Metric::LiveThreads);
        let (ops_rate, bytes_rate) = if prev.len() == cur.len() && dt_secs > 0.0 {
            let psum = |m: Metric| prev.iter().map(|r| r[m.index()]).sum::<u64>();
            (
                ops.saturating_sub(psum(Metric::Ops)) as f64 / dt_secs,
                bytes.saturating_sub(psum(Metric::NetBytesSent)) as f64 / dt_secs,
            )
        } else {
            (0.0, 0.0)
        };
        summary.peak_ops_per_sec = summary.peak_ops_per_sec.max(ops_rate);
        summary.peak_bytes_per_sec = summary.peak_bytes_per_sec.max(bytes_rate);
        first.get_or_insert((now_us, ops, bytes));
        last = (now_us, ops, bytes);

        // Per-node horizon lag behind the cluster-max finite horizon.
        let hmax = cur
            .iter()
            .map(|r| r[Metric::HorizonPs.index()])
            .filter(|&h| h != u64::MAX)
            .max();
        let mut lag_max: u64 = 0;
        if let Some(hmax) = hmax {
            for row in &cur {
                let h = row[Metric::HorizonPs.index()];
                if h != u64::MAX {
                    let lag = hmax - h;
                    summary.horizon_lag_ps.record(lag);
                    lag_max = lag_max.max(lag);
                }
            }
        }

        if let Some(w) = &mut out {
            line.clear();
            let _ = write!(
                line,
                "{{\"seq\":{seq},\"t_ms\":{:.3},\"cluster\":{{\"ops\":{ops},\
                 \"ops_per_sec\":{:.0},\"bytes_sent\":{bytes},\"bytes_per_sec\":{:.0},\
                 \"live_threads\":{live},\"horizon_lag_max_ps\":{lag_max}}},\"nodes\":[",
                now_us as f64 / 1e3,
                ops_rate,
                bytes_rate,
            );
            for (i, row) in cur.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{{\"node\":{i},");
                for m in jsplit_trace::ALL_METRICS {
                    push_field(&mut line, m, row[m.index()]);
                    line.push(',');
                }
                let h = row[Metric::HorizonPs.index()];
                let lag = match hmax {
                    Some(hmax) if h != u64::MAX => hmax - h,
                    _ => 0,
                };
                let _ = write!(line, "\"lag_ps\":{lag}}}");
            }
            line.push_str("]}\n");
            // Write-and-flush per sample: the file tails live and is whole
            // even if the run aborts.
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }

        if let Some(wd) = &mut wd {
            for r in wd.tick(&cur, now_us / 1000) {
                eprintln!("{}", render_stall(&r));
                if let Some(f) = &flight {
                    eprint!("{}", f.render());
                }
                summary.stalls.push(r);
            }
        }

        summary.samples += 1;
        seq += 1;
        prev_us = now_us;
        std::mem::swap(&mut prev, &mut cur);
        if stopping {
            break;
        }
        std::thread::park_timeout(interval);
    }
    // Whole-run means from the first/last snapshots.
    if let Some((t_first, ops_first, bytes_first)) = first {
        let span = (last.0.saturating_sub(t_first)) as f64 / 1e6;
        if span > 0.0 {
            summary.mean_ops_per_sec = last.1.saturating_sub(ops_first) as f64 / span;
            summary.mean_bytes_per_sec = last.2.saturating_sub(bytes_first) as f64 / span;
        }
    }
    summary
}

/// Cluster-wide horizon-lag percentiles (p50, p90, p99) straight from a
/// summary.
pub fn lag_percentiles(s: &TelemetrySummary) -> (u64, u64, u64) {
    let h: &LogHist = &s.horizon_lag_ps;
    (h.percentile(0.50), h.percentile(0.90), h.percentile(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(n: usize) -> Vec<[u64; METRICS]> {
        vec![[0; METRICS]; n]
    }

    fn set(s: &mut [[u64; METRICS]], node: usize, m: Metric, v: u64) {
        s[node][m.index()] = v;
    }

    fn spec(n: usize, budget_ms: u64) -> WatchdogSpec {
        WatchdogSpec { budget_ms, base_ps: vec![1000; n] }
    }

    /// A parked node with runnable work above a frozen horizon fires after
    /// the budget and blames the argmin-promise peer.
    #[test]
    fn watchdog_fires_and_blames_argmin_peer() {
        let mut wd = Watchdog::new(spec(3, 100));
        let mut s = snap(3);
        // Node 2 parked at horizon 5000 with a runnable event at 7000.
        set(&mut s, 2, Metric::HorizonPs, 5000);
        set(&mut s, 2, Metric::QueueHeadPs, 7000);
        set(&mut s, 2, Metric::Parked, 1);
        // Peer promises: node 0 pins (next 4000 + base 1000 = 5000), node 1
        // is comfortably ahead.
        set(&mut s, 0, Metric::NextEventPs, 4000);
        set(&mut s, 1, Metric::NextEventPs, 50_000);
        set(&mut s, 0, Metric::HorizonPs, u64::MAX);
        set(&mut s, 1, Metric::HorizonPs, u64::MAX);
        assert!(wd.tick(&s, 0).is_empty(), "first tick only initializes");
        assert!(wd.tick(&s, 50).is_empty(), "budget not yet exhausted");
        let fired = wd.tick(&s, 150);
        assert_eq!(fired.len(), 1);
        let r = &fired[0];
        assert_eq!(r.node, 2);
        assert_eq!(r.blamed, 0);
        assert_eq!(r.blocker_promise_ps, 5000);
        assert!(r.stalled_ms >= 100);
        assert_eq!(r.chain[0], 2);
        assert_eq!(r.chain[1], 0);
        // One report per frozen window.
        assert!(wd.tick(&s, 300).is_empty());
        // Horizon moves → re-armed; freeze again → fires again.
        set(&mut s, 2, Metric::HorizonPs, 6000);
        assert!(wd.tick(&s, 310).is_empty());
        let again = wd.tick(&s, 500);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].horizon_ps, 6000);
    }

    /// A node that is frozen but never observed parked (e.g. runnable yet
    /// descheduled on an oversubscribed host) must not fire; neither must a
    /// node with no runnable work or with work already below its horizon.
    #[test]
    fn watchdog_requires_parked_and_runnable_above_horizon() {
        let mut wd = Watchdog::new(spec(2, 50));
        let mut s = snap(2);
        set(&mut s, 1, Metric::HorizonPs, 100);
        set(&mut s, 1, Metric::QueueHeadPs, 200);
        wd.tick(&s, 0);
        assert!(wd.tick(&s, 1000).is_empty(), "not parked → no fire");
        // Parked but idle (no queued work): parking is legitimate.
        set(&mut s, 1, Metric::Parked, 1);
        set(&mut s, 1, Metric::QueueHeadPs, u64::MAX);
        let mut wd = Watchdog::new(spec(2, 50));
        wd.tick(&s, 0);
        assert!(wd.tick(&s, 1000).is_empty(), "idle → no fire");
        // Parked with executable work below the horizon: it will run it.
        set(&mut s, 1, Metric::QueueHeadPs, 50);
        let mut wd = Watchdog::new(spec(2, 50));
        wd.tick(&s, 0);
        assert!(wd.tick(&s, 1000).is_empty(), "work below horizon → no fire");
    }

    /// Progress in ops (or horizon) resets the freeze window.
    #[test]
    fn watchdog_resets_on_progress() {
        let mut wd = Watchdog::new(spec(2, 100));
        let mut s = snap(2);
        set(&mut s, 0, Metric::HorizonPs, 10);
        set(&mut s, 0, Metric::QueueHeadPs, 20);
        set(&mut s, 0, Metric::Parked, 1);
        wd.tick(&s, 0);
        for t in 1..10u64 {
            set(&mut s, 0, Metric::Ops, t); // steady progress
            assert!(wd.tick(&s, t * 60).is_empty());
        }
    }

    /// The chain follows frozen blamed nodes and terminates on cycles.
    #[test]
    fn watchdog_chain_follows_frozen_blame_links() {
        let mut wd = Watchdog::new(spec(3, 100));
        let mut s = snap(3);
        // 0 parked on 1's promise; 1 frozen too (blames 2); 2 is the root.
        set(&mut s, 0, Metric::HorizonPs, 1000);
        set(&mut s, 0, Metric::QueueHeadPs, 5000);
        set(&mut s, 0, Metric::Parked, 1);
        set(&mut s, 0, Metric::NextEventPs, 40_000);
        set(&mut s, 1, Metric::HorizonPs, 900);
        set(&mut s, 1, Metric::NextEventPs, 0); // pins node 0
        set(&mut s, 2, Metric::HorizonPs, 800);
        set(&mut s, 2, Metric::NextEventPs, 20_000);
        wd.tick(&s, 0);
        let fired = wd.tick(&s, 200);
        assert_eq!(fired.len(), 1);
        let r = &fired[0];
        assert_eq!(r.node, 0);
        assert_eq!(r.blamed, 1);
        // 1 is frozen → follow its blame (argmin over {0: 40000+1000,
        // 2: 20000+1000} = 2); 2 is frozen but its blame (1) already in the
        // chain → stop.
        assert_eq!(r.chain, vec![0, 1, 2]);
        let txt = render_stall(r);
        assert!(txt.contains("waits-for: 0 -> 1 -> 2"), "{txt}");
    }

    /// Single-node runs never fire (there is no peer to wait for).
    #[test]
    fn watchdog_single_node_never_fires() {
        let mut wd = Watchdog::new(spec(1, 10));
        let mut s = snap(1);
        set(&mut s, 0, Metric::Parked, 1);
        set(&mut s, 0, Metric::QueueHeadPs, 100);
        wd.tick(&s, 0);
        assert!(wd.tick(&s, 10_000).is_empty());
    }
}
