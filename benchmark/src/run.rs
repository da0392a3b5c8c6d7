//! Running one workload repetition, timed from outside: program
//! construction + driver construction (`setup_s`) + `.run()` (`wall_s`),
//! then the check of what it printed against the native reference.

use crate::spans::SpanLog;
use crate::workloads::{Scale, Workload, TSP_GOLDEN, TSP_GOLDEN_SEED};
use jsplit_dsm::DsmStats;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_mjvm::verifier::{verify_program, VerifyOptions};
use jsplit_mjvm::{pcode, Image};
use jsplit_runtime::{
    Backend, Cluster, ClusterConfig, ClusterError, RunReport, SocketsDriver, SyncStats,
    ThreadsDriver,
};
use jsplit_trace::WallProfile;
use std::time::Instant;

/// A constructed driver of whichever backend the config names; everything
/// up to here is set-up, `.run()` is the run.
pub enum Prepared {
    Sim(Box<Cluster>),
    Threads(Box<ThreadsDriver>),
    Sockets(Box<SocketsDriver>),
}

impl Prepared {
    pub fn new(config: ClusterConfig, program: &Program) -> Result<Prepared, ClusterError> {
        Ok(match config.backend {
            Backend::Sim => Prepared::Sim(Box::new(Cluster::new(config, program)?)),
            Backend::Threads => Prepared::Threads(Box::new(ThreadsDriver::new(config, program)?)),
            Backend::Sockets => Prepared::Sockets(Box::new(SocketsDriver::new(config, program)?)),
        })
    }

    pub fn run(self) -> Result<RunReport, ClusterError> {
        match self {
            Prepared::Sim(c) => Ok(c.run()),
            Prepared::Threads(t) => Ok(t.run()),
            Prepared::Sockets(s) => s.run(),
        }
    }
}

/// The deterministic part of a report: everything here must repeat exactly
/// from one repetition to the next (the async frame counters in `sync`
/// excepted, which vary by a few percent).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub ops: u64,
    pub virtual_ps: u64,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub dsm: DsmStats,
    pub sync: SyncStats,
}

impl Counters {
    pub fn of(r: &RunReport) -> Counters {
        let net = r.net_total();
        Counters {
            ops: r.ops,
            virtual_ps: r.exec_time_ps,
            msgs_sent: net.msgs_sent,
            bytes_sent: net.bytes_sent,
            dsm: r.dsm_total(),
            sync: r.sync,
        }
    }

    /// What must be identical on every backend and every repetition.
    pub fn exact(&self) -> (u64, u64, u64, u64, &DsmStats) {
        (
            self.ops,
            self.virtual_ps,
            self.msgs_sent,
            self.bytes_sent,
            &self.dsm,
        )
    }
}

/// One repetition's outcome.
#[derive(Debug)]
pub struct Rep {
    pub wall_s: f64,
    pub setup_s: f64,
    /// `None` when the run returned `Err`.
    pub counters: Option<Counters>,
    /// `None` = the run completed and printed the reference.
    pub failure: Option<String>,
    /// Threads backend with profiling on only.
    pub wall_profile: Option<WallProfile>,
}

/// `Err`, a trap, a deadlock, an abort or a wrong answer.
fn failure_of(result: &Result<RunReport, ClusterError>, expect: i64) -> Option<String> {
    let r = match result {
        Ok(r) => r,
        Err(e) => return Some(format!("run returned Err: {e}")),
    };
    if !r.errors.is_empty() {
        return Some(format!("thread traps: {:?}", r.errors));
    }
    if r.deadlocked {
        return Some("deadlocked".into());
    }
    if r.aborted {
        return Some("aborted by max_ops".into());
    }
    if r.output != [expect.to_string()] {
        return Some(format!("printed {:?}, reference is {expect}", r.output));
    }
    None
}

fn finish(wall_s: f64, setup_s: f64, result: Result<RunReport, ClusterError>, expect: i64) -> Rep {
    let failure = failure_of(&result, expect);
    let mut report = result.ok();
    Rep {
        wall_s,
        setup_s,
        counters: report.as_ref().map(Counters::of),
        failure,
        wall_profile: report.as_mut().and_then(|r| r.wall.take()),
    }
}

/// Build the program and the driver: everything `setup_s` covers. Returns
/// the driver and the seconds it took.
fn set_up(
    config: ClusterConfig,
    build: impl FnOnce() -> Program,
) -> (Result<Prepared, ClusterError>, f64) {
    let t0 = Instant::now();
    let program = build();
    let prepared = Prepared::new(config, &program);
    (prepared, t0.elapsed().as_secs_f64())
}

/// One timed repetition of `config` on the program `build` makes, nothing
/// observed.
pub fn timed(config: ClusterConfig, build: impl FnOnce() -> Program, expect: i64) -> Rep {
    let t0 = Instant::now();
    let (prepared, setup_s) = set_up(config, build);
    let result = prepared.and_then(Prepared::run);
    let wall_s = t0.elapsed().as_secs_f64();
    finish(wall_s, setup_s, result, expect)
}

pub fn timed_rep(w: &Workload, seed: u64, scale: Scale, expect: i64) -> Rep {
    timed(w.config(), || (w.program)(seed, scale), expect)
}

/// Set-up only: build the program and the driver, run nothing.
pub fn setup_only(w: &Workload, seed: u64, scale: Scale) -> Result<f64, ClusterError> {
    let (prepared, setup_s) = set_up(w.config(), || (w.program)(seed, scale));
    prepared.map(|_| setup_s)
}

/// The traced pass: the same repetition with a span around every call the
/// benchmark makes into a layer. The layer calls `Cluster::new` makes
/// internally (rewrite, which verifies its output, then load and predecode)
/// are made here once more, explicitly, so each gets its own span; that duplicated work and the
/// threads backend's own span profiler are the pass's overhead.
pub fn traced_rep(w: &Workload, seed: u64, scale: Scale) -> (Rep, SpanLog) {
    let mut log = SpanLog::new(w.name);
    let root = log.enter("workload");
    let t0 = Instant::now();
    let program = log.scope("apps.build", || (w.program)(seed, scale));
    let rewritten = log.scope("rewriter.rewrite", || {
        jsplit_rewriter::rewrite_program(&program)
    });
    let mut verified = true;
    if let Ok(rw) = &rewritten {
        verified = log.scope("mjvm.verify", || {
            verify_program(&rw.program, VerifyOptions::REWRITTEN).is_ok()
        });
        if let Ok(image) = log.scope("mjvm.load", || Image::load(&rw.program)) {
            let pimage = log.scope("mjvm.predecode", || {
                pcode::predecode(&image, JvmProfile::SunSim.cost_model())
            });
            std::hint::black_box(&pimage);
        }
    }
    let config = w.config().with_profile(w.backend == Backend::Threads);
    let prepared = log.scope("runtime.new", || Prepared::new(config, &program));
    let setup_s = t0.elapsed().as_secs_f64();
    let result = log.scope("runtime.run", || prepared.and_then(Prepared::run));
    let wall_s = t0.elapsed().as_secs_f64();
    let check = log.enter("check.reference");
    let expect = (w.reference)(seed, scale);
    let mut rep = finish(wall_s, setup_s, result, expect);
    log.exit(check);
    log.exit(root);
    if !verified {
        rep.failure
            .get_or_insert_with(|| "rewritten program failed verification".into());
    }
    if let Err(e) = rewritten {
        rep.failure
            .get_or_insert_with(|| format!("rewrite failed: {e}"));
    }
    (rep, log)
}

/// `tsp-sim8` at seed 42 and full scale must reproduce the root
/// workspace's committed golden numbers.
pub fn golden_mismatch(w: &Workload, seed: u64, scale: Scale, c: &Counters) -> Option<String> {
    if w.name != "tsp-sim8" || seed != TSP_GOLDEN_SEED || scale != Scale::Full {
        return None;
    }
    let got = ((c.virtual_ps + 500_000) / 1_000_000, c.msgs_sent, c.ops);
    (got != TSP_GOLDEN).then(|| {
        format!(
            "tsp-sim8 at seed 42 is (virtual us, msgs, ops) = {got:?}, golden is {TSP_GOLDEN:?}"
        )
    })
}

/// Sum of absolute differences between a live run's exact counters and the
/// sim's on the same program and node count. Expected 0; not a failure (a
/// non-zero value is a recorded discrepancy, not a wrong answer).
pub fn counter_delta(live: &Counters, sim: &Counters) -> u64 {
    live.ops.abs_diff(sim.ops)
        + live.msgs_sent.abs_diff(sim.msgs_sent)
        + live.bytes_sent.abs_diff(sim.bytes_sent)
        + live.virtual_ps.abs_diff(sim.virtual_ps)
}

/// The sim run a live workload is cross-checked against.
pub fn sim_twin(w: &Workload, seed: u64, scale: Scale, expect: i64) -> Rep {
    timed(
        w.config_on(Backend::Sim, w.sync),
        || (w.program)(seed, scale),
        expect,
    )
}
