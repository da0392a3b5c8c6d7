//! Helpers the integration suites share (each uses its own subset).
#![allow(dead_code)]

use jsplit_mjvm::class::Program;
use jsplit_runtime::config::SocketsConfig;
use jsplit_runtime::RunReport;

/// The three paper applications at test scale.
pub fn apps() -> Vec<(&'static str, Program)> {
    use jsplit_apps::{raytracer, series, tsp};
    vec![
        ("tsp", tsp::program(tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 })),
        ("series", series::program(series::SeriesParams { n: 16, intervals: 40, threads: 8 })),
        ("raytracer", raytracer::program(raytracer::RayParams { size: 16, grid: 2, threads: 8 })),
    ]
}

/// The spawned worker binary: the test harness's `current_exe` is the
/// test runner, so point the coordinator at the real `jsplit` binary
/// Cargo built for this test run.
pub fn sockets_config() -> SocketsConfig {
    SocketsConfig {
        worker_bin: Some(std::path::PathBuf::from(env!("CARGO_BIN_EXE_jsplit"))),
        ..SocketsConfig::default()
    }
}

/// Everything observable about a run except host wall-clock, the
/// event-slab high-water mark, and the sync counters — those measure
/// driver internals, where backends, interpreters and observers
/// legitimately differ.
pub fn assert_reports_match(ctx: &str, a: &RunReport, b: &RunReport) {
    assert_eq!(a.output, b.output, "{ctx}: stdout diverged");
    assert_eq!(a.exec_time_ps, b.exec_time_ps, "{ctx}: virtual time diverged");
    assert_eq!(a.setup_ps, b.setup_ps, "{ctx}: setup time diverged");
    assert_eq!(a.ops, b.ops, "{ctx}: total ops diverged");
    assert_eq!(a.ops_per_node, b.ops_per_node, "{ctx}: per-node ops diverged");
    assert_eq!(a.threads, b.threads, "{ctx}: thread count diverged");
    assert_eq!(a.class_bytes, b.class_bytes, "{ctx}: shipped class bytes diverged");
    assert_eq!(a.dsm_per_node, b.dsm_per_node, "{ctx}: per-node DSM stats diverged");
    assert_eq!(a.net_per_node, b.net_per_node, "{ctx}: per-node net stats diverged");
}
