//! Every way a run can end, on every fabric: the sim's global check, the
//! epoch round's decision and the async termination rule on threads and
//! on sockets must each report a lock-order deadlock as `deadlocked` and a
//! runaway program as `aborted`. Runs go on a helper thread with a
//! deadline, so a run that never ends fails its test instead of hanging it.

use std::sync::mpsc;
use std::time::Duration;

use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, RunReport, SyncMode};

mod common;
use common::{lock_order_deadlock, runaway, sockets_config};

const MAX_OPS: u64 = 100_000;

/// The sim (its sync mode is moot) and both live backends × both sync modes.
const FABRICS: [(Backend, SyncMode); 5] = [
    (Backend::Sim, SyncMode::Epoch),
    (Backend::Threads, SyncMode::Epoch),
    (Backend::Threads, SyncMode::Async),
    (Backend::Sockets, SyncMode::Epoch),
    (Backend::Sockets, SyncMode::Async),
];

fn config(backend: Backend, sync: SyncMode, nodes: usize) -> ClusterConfig {
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, nodes).with_backend(backend).with_sync(sync);
    if backend == Backend::Sockets {
        cfg.with_sockets(sockets_config())
    } else {
        cfg
    }
}

fn run_within(ctx: &str, cfg: ClusterConfig, program: &Program) -> RunReport {
    let (tx, rx) = mpsc::channel();
    let program = program.clone();
    std::thread::spawn(move || {
        // The receiver is gone only once the deadline has failed the test.
        let _ = tx.send(run_cluster(cfg, &program));
    });
    let deadline = Duration::from_secs(60);
    rx.recv_timeout(deadline)
        .unwrap_or_else(|_| panic!("{ctx}: the run did not end within {deadline:?}"))
        .unwrap_or_else(|e| panic!("{ctx}: {e}"))
}

/// Two nodes on every fabric: the deadlock is found, the runaway aborted
/// past its budget (how far past depends on window granularity).
#[test]
fn every_fabric_reports_deadlock_and_abort() {
    let (deadlock, runaway) = (lock_order_deadlock(), runaway());
    for (backend, sync) in FABRICS {
        let ctx = format!("{backend:?}/{sync:?}");
        let r = run_within(&ctx, config(backend, sync, 2), &deadlock);
        assert!(r.deadlocked && !r.aborted, "{ctx}: lock-order deadlock not reported");
        let r = run_within(&ctx, config(backend, sync, 2).with_max_ops(MAX_OPS), &runaway);
        assert!(r.aborted && !r.deadlocked, "{ctx}: runaway not aborted");
        assert!(r.ops > MAX_OPS, "{ctx}: aborted at {} ops", r.ops);
    }
}

/// A lone live node runs one unbounded window (no peer bounds its
/// horizon), so the window itself must stop at the budget for any abort
/// decision to be reached.
#[test]
fn max_ops_aborts_a_lone_live_node() {
    for (backend, sync) in FABRICS.into_iter().filter(|&(b, _)| b != Backend::Sim) {
        let ctx = format!("{backend:?}/{sync:?}");
        let r = run_within(&ctx, config(backend, sync, 1).with_max_ops(MAX_OPS), &runaway());
        assert!(r.aborted, "{ctx}: runaway not aborted");
        assert!(r.ops > MAX_OPS, "{ctx}: aborted at {} ops", r.ops);
    }
}
