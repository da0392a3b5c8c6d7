//! Helpers the integration suites share (each uses its own subset).
#![allow(dead_code)]

use jsplit_mjvm::class::Program;
use jsplit_runtime::config::SocketsConfig;
use jsplit_runtime::{Balancer, RunReport};

pub mod spawn_shapes;

/// The three paper applications at test scale (one fork-join wave each),
/// then a two-wave and a nested-spawn program.
pub fn apps() -> Vec<(&'static str, Program)> {
    use jsplit_apps::{raytracer, series, tsp};
    vec![
        ("tsp", tsp::program(tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 8 })),
        ("series", series::program(series::SeriesParams { n: 16, intervals: 40, threads: 8 })),
        ("raytracer", raytracer::program(raytracer::RayParams { size: 16, grid: 2, threads: 8 })),
        ("two-wave", spawn_shapes::two_wave(3, 2)),
        ("nested", spawn_shapes::nested(2, 2)),
    ]
}

/// Multi-wave and nested-spawn shapes, for 3-node runs under each of
/// [`BALANCERS`]: every backend must place every thread where the sim does.
pub fn spawn_shape_programs() -> Vec<(String, Program)> {
    let waves = [(1, 1), (3, 2), (2, 3), (4, 4)].map(|(a, b)| (format!("waves {a}+{b}"), spawn_shapes::two_wave(a, b)));
    let nests = [(2, 2), (3, 1), (1, 3)].map(|(o, i)| (format!("nested {o}x{i}"), spawn_shapes::nested(o, i)));
    waves.into_iter().chain(nests).collect()
}

/// The balancers with placement state (a load estimate, a cursor).
pub const BALANCERS: [Balancer; 2] = [Balancer::LeastLoaded, Balancer::RoundRobin];

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
