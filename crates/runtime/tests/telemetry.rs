//! Live-telemetry integration tests: the sampler is side-band (a metrics
//! run is observationally identical to a bare one), the JSONL stream is
//! well-formed and monotone, and the horizon-stall watchdog fires on an
//! injected stalled peer — blaming exactly that peer — while staying
//! silent on a healthy cluster.

use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, MetricsConfig, RunReport, SyncMode};
use std::path::PathBuf;
use std::time::Duration;

mod common;

fn tsp() -> Program {
    jsplit_apps::tsp::program(jsplit_apps::tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 })
}

fn cfg(backend: Backend, sync: SyncMode, nodes: usize) -> ClusterConfig {
    ClusterConfig::javasplit(JvmProfile::SunSim, nodes).with_backend(backend).with_sync(sync)
}

fn run(cfg: ClusterConfig, p: &Program) -> RunReport {
    let r = run_cluster(cfg, p).expect("cluster setup");
    r.expect_clean();
    r
}

/// A unique scratch path for JSONL output (cleaned up by each test).
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jsplit-telemetry-{}-{name}.jsonl", std::process::id()))
}

/// Sampling must not perturb the run: program output, virtual time, and
/// every deterministic protocol counter are identical with metrics on and
/// off, on both backends and both sync modes.
#[test]
fn metrics_do_not_change_results() {
    let p = tsp();
    for (backend, sync) in [
        (Backend::Sim, SyncMode::Epoch),
        (Backend::Threads, SyncMode::Epoch),
        (Backend::Threads, SyncMode::Async),
    ] {
        let bare = run(cfg(backend, sync, 4), &p);
        let metered = run(
            cfg(backend, sync, 4).with_metrics(MetricsConfig {
                interval: Duration::from_millis(5),
                ..MetricsConfig::default()
            }),
            &p,
        );
        let ctx = format!("{backend:?}/{sync:?}");
        assert_eq!(bare.output, metered.output, "{ctx}: stdout diverged");
        assert_eq!(bare.exec_time_ps, metered.exec_time_ps, "{ctx}: virtual time diverged");
        assert_eq!(bare.ops, metered.ops, "{ctx}: ops diverged");
        assert_eq!(bare.ops_per_node, metered.ops_per_node, "{ctx}: per-node ops diverged");
        assert_eq!(bare.dsm_per_node, metered.dsm_per_node, "{ctx}: DSM stats diverged");
        assert_eq!(bare.net_per_node, metered.net_per_node, "{ctx}: net stats diverged");
        let t = metered.telemetry.expect("metered run carries a telemetry summary");
        assert!(t.samples >= 1, "{ctx}: sampler took no samples");
        assert!(bare.telemetry.is_none(), "{ctx}: bare run must not carry telemetry");
    }
}

/// The `--metrics` JSONL stream: one JSON object per line, sequential
/// `seq`, monotone non-decreasing `t_ms`, the full cluster and per-node
/// schema on every line, and a final sample whose cumulative cluster ops
/// equal the report's. The sockets coordinator merges worker-shipped
/// `Metrics` envelopes into the same stream, so its file passes the same
/// checks — and its worker rows (node > 0 runs in another process) cannot
/// all be zero: the engines' forced closing publish must arrive.
#[test]
fn metrics_jsonl_is_wellformed_and_monotone() {
    let p = tsp();
    for backend in [Backend::Threads, Backend::Sockets] {
        let out = scratch(&format!("jsonl-{backend:?}"));
        let r = run(
            cfg(backend, SyncMode::Async, 4).with_sockets(common::sockets_config()).with_metrics(MetricsConfig {
                out: Some(out.clone()),
                interval: Duration::from_millis(5),
                ..MetricsConfig::default()
            }),
            &p,
        );
        let text = std::fs::read_to_string(&out).expect("metrics file written");
        let _ = std::fs::remove_file(&out);
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "{backend:?}: no samples written");
        let mut prev_t = -1.0f64;
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"seq\":{i},")), "seq not sequential: {line}");
            jsplit_trace::validate_json(line).unwrap_or_else(|e| panic!("line {i} is not JSON ({e}): {line}"));
            assert!(line.contains("\"cluster\":{") && line.contains("\"nodes\":["), "{line}");
            for key in ["ops", "ops_per_sec", "bytes_sent", "bytes_per_sec", "live_threads", "horizon_lag_max_ps"] {
                assert!(line.contains(&format!("\"{key}\":")), "cluster sample missing {key}: {line}");
            }
            for node in 0..4 {
                assert!(line.contains(&format!("{{\"node\":{node},")), "missing node {node}: {line}");
            }
            for key in jsplit_trace::ALL_METRICS.iter().map(|m| m.name()).chain(["lag_ps"]) {
                let rows = line.split("\"nodes\":[").nth(1).expect("node rows");
                assert_eq!(rows.matches(&format!("\"{key}\":")).count(), 4, "node rows missing {key}: {line}");
            }
            let t_ms: f64 = line
                .split("\"t_ms\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .expect("t_ms field");
            assert!(t_ms >= prev_t, "t_ms went backwards at line {i}");
            prev_t = t_ms;
        }
        // The shutdown path publishes final counters and the sampler takes
        // one closing sample, so the stream's last line carries the whole run.
        let last = lines.last().unwrap();
        assert!(
            last.contains(&format!("\"cluster\":{{\"ops\":{},", r.ops)),
            "{backend:?}: final sample ops != report ops {}: {last}",
            r.ops
        );
        let remote_ops = (1..4).any(|node| !last.contains(&format!("{{\"node\":{node},\"ops\":0,")));
        assert!(remote_ops, "{backend:?}: no counters from nodes 1..3 in the final sample: {last}");
    }
}

/// A sockets worker waiting on its horizon says so: its `parked` gauge is
/// up in rows the coordinator samples, under `--sync async` too. The stall
/// watchdog refuses to blame anyone for a node it never saw parked, so a
/// wire loop that parked without the gauge left it inert.
#[test]
fn sockets_async_workers_report_parked() {
    let out = scratch("parked");
    run(
        cfg(Backend::Sockets, SyncMode::Async, 2).with_sockets(common::sockets_config()).with_metrics(MetricsConfig {
            out: Some(out.clone()),
            interval: Duration::from_millis(1),
            ..MetricsConfig::default()
        }),
        &tsp(),
    );
    let text = std::fs::read_to_string(&out).expect("metrics file written");
    let _ = std::fs::remove_file(&out);
    assert!(text.contains("\"parked\":1"), "no sampled row ever showed a parked worker:\n{text}");
}

/// An injected stalled peer (node 1 sleeps before its first async
/// iteration, promise pinned at 0) is detected within the watchdog budget
/// and blamed — by name — by the nodes it pins; the run itself still
/// completes with bit-identical virtual-time results.
#[test]
fn watchdog_detects_and_blames_injected_stalled_peer() {
    let p = tsp();
    let reference = run(cfg(Backend::Threads, SyncMode::Async, 3), &p);
    let r = run(
        cfg(Backend::Threads, SyncMode::Async, 3).with_metrics(MetricsConfig {
            interval: Duration::from_millis(10),
            watchdog_budget: Some(Duration::from_millis(150)),
            stall_inject: Some((1, 700)),
            ..MetricsConfig::default()
        }),
        &p,
    );
    // Virtual-time results are untouched by the (host-side) injected sleep.
    assert_eq!(reference.output, r.output, "stall injection changed stdout");
    assert_eq!(reference.exec_time_ps, r.exec_time_ps, "stall injection changed virtual time");
    assert_eq!(reference.ops, r.ops, "stall injection changed ops");
    let t = r.telemetry.expect("telemetry summary");
    assert!(
        !t.stalls.is_empty(),
        "watchdog did not fire within a 700 ms stall at a 150 ms budget"
    );
    for s in &t.stalls {
        assert_eq!(s.blamed, 1, "blamed wrong peer: {s:?}");
        assert_ne!(s.node, 1, "the sleeping node itself cannot be horizon-stalled: {s:?}");
        assert!(s.stalled_ms >= 150, "fired before the budget: {s:?}");
        assert_eq!(s.chain.first(), Some(&s.node), "chain must start at the stalled node");
        assert_eq!(s.chain.get(1), Some(&1), "chain must lead to the blamed peer");
    }
}

/// No false positives: a healthy 8-node async TSP run with a tight-ish
/// budget reports zero stalls.
#[test]
fn watchdog_stays_silent_on_healthy_cluster() {
    let p = tsp();
    let r = run(
        cfg(Backend::Threads, SyncMode::Async, 8).with_metrics(MetricsConfig {
            interval: Duration::from_millis(10),
            watchdog_budget: Some(Duration::from_millis(400)),
            ..MetricsConfig::default()
        }),
        &p,
    );
    let t = r.telemetry.expect("telemetry summary");
    assert!(t.stalls.is_empty(), "false-positive stall reports: {:?}", t.stalls);
}
