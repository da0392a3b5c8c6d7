//! Helpers the integration suites share (each uses its own subset).
#![allow(dead_code)]

use jsplit_mjvm::builder::ProgramBuilder;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::instr::Ty;
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

/// `main` loops forever: only the `max_ops` guard ends the run.
pub fn runaway() -> Program {
    let mut pb = ProgramBuilder::new("M");
    pb.class("M", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, |m| {
            let top = m.new_label();
            m.bind(top);
            m.goto(top);
        });
    });
    pb.build_with_stdlib()
}

/// Two threads, two locks, opposite order — with a sleep to force the
/// interleaving that deadlocks. The runtime must report it rather than
/// hang.
pub fn lock_order_deadlock() -> Program {
    let mut pb = ProgramBuilder::new("M");
    pb.class("W", "java.lang.Thread", |cb| {
        cb.field("a", Ty::Ref).field("b", Ty::Ref);
        cb.method("<init>", &[Ty::Ref, Ty::Ref], None, |m| {
            m.load(0).invokespecial("java.lang.Thread", "<init>", &[], None);
            m.load(0).load(1).putfield("W", "a");
            m.load(0).load(2).putfield("W", "b").ret();
        });
        cb.method("run", &[], None, |m| {
            m.load(0).getfield("W", "a").monitor_enter();
            m.const_i64(30).invokestatic("java.lang.Thread", "sleep", &[Ty::I64], None);
            m.load(0).getfield("W", "b").monitor_enter();
            m.load(0).getfield("W", "b").monitor_exit();
            m.load(0).getfield("W", "a").monitor_exit();
            m.ret();
        });
    });
    pb.class("M", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, |m| {
            m.construct("java.lang.Object", &[], |_| {}).store(0);
            m.construct("java.lang.Object", &[], |_| {}).store(1);
            m.construct("W", &[Ty::Ref, Ty::Ref], |m| {
                m.load(0).load(1);
            })
            .store(2);
            m.construct("W", &[Ty::Ref, Ty::Ref], |m| {
                m.load(1).load(0);
            })
            .store(3);
            m.load(2).invokevirtual("start", &[], None);
            m.load(3).invokevirtual("start", &[], None);
            m.load(2).invokevirtual("join", &[], None);
            m.load(3).invokevirtual("join", &[], None);
            m.ret();
        });
    });
    pb.build_with_stdlib()
}
