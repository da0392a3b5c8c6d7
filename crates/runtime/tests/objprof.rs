//! Per-object DSM sharing profiler integration tests.
//!
//! The profiler follows the trace layer's discipline, and these tests pin
//! the three properties that make it trustworthy:
//!
//! * **Bit-identical off→on.** Enabling `objprof` must not perturb the
//!   execution: program output, virtual time, ops, and every per-node DSM
//!   and network counter are identical with the profiler on and off, on
//!   every backend, both DSM protocols, both sync modes.
//! * **Deterministic report.** The merged [`ObjProfReport`] is a pure
//!   function of the virtual-time execution, so it is identical
//!   run-to-run *and* across the sim / threads / sockets backends — the
//!   sockets path additionally round-trips each worker's profile through
//!   the wire codec.
//! * **Reconciles with `DsmStats`.** Per-object sums plus the
//!   unattributed bucket equal the aggregate totals exactly, for every
//!   mapped event kind.
//!
//! The worker-fault test exercises the sockets backend's panic path: a
//! worker that dies mid-run must surface its real panic message through a
//! `Fault` envelope, not a bare "connection reset" at the coordinator.

use std::sync::Mutex;

use jsplit_dsm::{DsmStats, ProtocolMode};
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, ClusterError, RunReport, SyncMode};
use jsplit_trace::{ObjProfReport, STATS_MAPPED};

mod common;
use common::{apps, assert_reports_match, sockets_config};

fn tsp() -> Program {
    apps().swap_remove(0).1
}

/// Serializes sockets-spawning tests against the `JSPLIT_TEST_WORKER_PANIC`
/// environment variable: spawned workers inherit the environment, so a
/// concurrently-running fault-injection test would kill them.
static WORKER_ENV: Mutex<()> = Mutex::new(());

fn cfg(backend: Backend, proto: ProtocolMode, sync: SyncMode, objprof: bool) -> ClusterConfig {
    let mut c = ClusterConfig::javasplit(JvmProfile::SunSim, 4)
        .with_backend(backend)
        .with_protocol(proto)
        .with_sync(sync)
        .with_objprof(objprof);
    if backend == Backend::Sockets {
        c = c.with_sockets(sockets_config());
    }
    c
}

fn run(cfg: ClusterConfig, p: &Program) -> RunReport {
    let lock = WORKER_ENV.lock().unwrap_or_else(|e| e.into_inner());
    let r = run_cluster(cfg, p).expect("cluster setup");
    drop(lock);
    r.expect_clean();
    r
}

/// Profiling is observation-free: the full backend × protocol × sync
/// matrix runs bit-identically with the profiler on and off.
#[test]
fn objprof_off_vs_on_is_bit_identical_across_backends() {
    let p = tsp();
    for (backend, proto, sync) in [
        (Backend::Sim, ProtocolMode::MtsHlrc, SyncMode::Epoch),
        (Backend::Sim, ProtocolMode::ClassicHlrc, SyncMode::Epoch),
        (Backend::Threads, ProtocolMode::MtsHlrc, SyncMode::Epoch),
        (Backend::Threads, ProtocolMode::MtsHlrc, SyncMode::Async),
        (Backend::Threads, ProtocolMode::ClassicHlrc, SyncMode::Async),
        (Backend::Sockets, ProtocolMode::MtsHlrc, SyncMode::Epoch),
        (Backend::Sockets, ProtocolMode::MtsHlrc, SyncMode::Async),
        (Backend::Sockets, ProtocolMode::ClassicHlrc, SyncMode::Epoch),
    ] {
        let ctx = format!("{backend:?}/{proto:?}/{sync:?}");
        let bare = run(cfg(backend, proto, sync, false), &p);
        let profiled = run(cfg(backend, proto, sync, true), &p);
        assert_reports_match(&ctx, &bare, &profiled);
        assert!(bare.objprof.is_none(), "{ctx}: bare run must not carry a profile");
        let rep = profiled.objprof.as_ref().expect("profiled run carries a report");
        assert!(!rep.objects.is_empty(), "{ctx}: TSP shares objects; report cannot be empty");
    }
}

/// The merged report is deterministic run-to-run and identical across all
/// three backends (the sockets path round-trips worker profiles through
/// the wire codec; any loss or reordering would show here).
#[test]
fn objprof_report_identical_across_runs_and_backends() {
    let p = tsp();
    let reference = run(cfg(Backend::Sim, ProtocolMode::MtsHlrc, SyncMode::Epoch, true), &p)
        .objprof
        .expect("sim report");
    let again = run(cfg(Backend::Sim, ProtocolMode::MtsHlrc, SyncMode::Epoch, true), &p)
        .objprof
        .expect("sim report");
    assert_eq!(reference, again, "sim report not reproducible run-to-run");
    for (backend, sync) in [
        (Backend::Threads, SyncMode::Epoch),
        (Backend::Threads, SyncMode::Async),
        (Backend::Sockets, SyncMode::Epoch),
        (Backend::Sockets, SyncMode::Async),
    ] {
        let rep = run(cfg(backend, ProtocolMode::MtsHlrc, sync, true), &p)
            .objprof
            .expect("live report");
        assert_eq!(reference, rep, "{backend:?}/{sync:?} report diverged from sim");
    }
}

fn assert_reconciles(ctx: &str, rep: &ObjProfReport, total: &DsmStats) {
    for (ev, field) in STATS_MAPPED {
        let per_obj: u64 = rep.objects.iter().map(|o| o.total[ev.index()]).sum();
        assert_eq!(
            per_obj + rep.unattributed[ev.index()],
            total.get(field).expect("STATS_MAPPED names DsmStats fields"),
            "{ctx}: per-object {} sums do not reconcile with DsmStats.{field}",
            ev.name(),
        );
    }
    // What a reader of the heat report relies on: hottest first, per-node
    // rows adding up to each object's totals, only mis-homed candidates.
    assert!(rep.objects.windows(2).all(|w| w[0].heat >= w[1].heat), "{ctx}: heat table not sorted");
    for o in &rep.objects {
        for ev in jsplit_trace::ALL_OBJ_EVENTS {
            let rows: u64 = o.rows.iter().map(|(_, cells)| cells[ev.index()]).sum();
            assert_eq!(rows, o.total[ev.index()], "{ctx}: gid {} rows do not sum to total {}", o.gid, ev.name());
        }
    }
    for o in rep.candidates.iter().map(|&i| &rep.objects[i]) {
        assert!(o.advice.dominant != o.home && o.advice.score > 0, "{ctx}: bad candidate gid {}: {:?}", o.gid, o.advice);
    }
}

/// Per-object sums + unattributed == aggregate totals, exactly, for every
/// mapped event kind — on both protocols, and on the raytracer too (its
/// chunked scene arrays exercise the region→base gid folding).
#[test]
fn objprof_reconciles_with_dsm_totals() {
    for (app, p) in apps().into_iter().filter(|(app, _)| *app != "series") {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let r = run(cfg(Backend::Sim, proto, SyncMode::Epoch, true), &p);
            let rep = r.objprof.as_ref().expect("report");
            assert_reconciles(&format!("{app}/{proto:?}"), rep, &r.dsm_total());
        }
    }
}

/// A worker that panics mid-run must not look like a silent disconnect:
/// the coordinator's `PeerLost` carries the worker's id and its real panic
/// message, relayed through the `Fault` envelope.
#[test]
fn worker_panic_message_reaches_the_coordinator() {
    let p = tsp();
    let lock = WORKER_ENV.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("JSPLIT_TEST_WORKER_PANIC", "2");
    let result = run_cluster(
        ClusterConfig::javasplit(JvmProfile::SunSim, 4)
            .with_backend(Backend::Sockets)
            .with_sockets(sockets_config()),
        &p,
    );
    std::env::remove_var("JSPLIT_TEST_WORKER_PANIC");
    drop(lock);
    match result.expect_err("a dead worker must fail the run") {
        ClusterError::PeerLost { node, cause } => {
            assert_eq!(node, 2, "error must blame the worker: {cause}");
            assert!(cause.contains("injected test panic in worker 2"), "error must carry the real panic message: {cause}");
        }
        other => panic!("expected PeerLost, got {other:?}"),
    }
}
