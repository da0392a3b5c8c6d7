//! The seven named workloads: which program, on which backend, at which
//! node count and sync mode, and the native reference its output must
//! equal. Names are the benchmark's public vocabulary — `BENCHMARK.json`,
//! the README and every later performance claim use them.

use crate::kernels;
use jsplit_apps::{micro, raytracer, series, tsp};
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::{Backend, ClusterConfig, SyncMode};

/// Input size: the measured one, or the test-scale one `--smoke` and the
/// unit tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Which paper app's interpreter probe prices a workload's ops in the
/// ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Tsp,
    Series,
    Raytracer,
}

impl App {
    pub const ALL: [App; 3] = [App::Tsp, App::Series, App::Raytracer];

    pub fn name(self) -> &'static str {
        match self {
            App::Tsp => "tsp",
            App::Series => "series",
            App::Raytracer => "raytracer",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists and which layer it isolates.
    pub why: &'static str,
    pub backend: Backend,
    pub nodes: usize,
    pub sync: SyncMode,
    pub program: fn(u64, Scale) -> Program,
    /// The single integer line the program must print.
    pub reference: fn(u64, Scale) -> i64,
    /// `None` for the kernels: their ops are priced at the mean of the
    /// three app probes.
    pub app: Option<App>,
}

impl Workload {
    /// Every observability switch off; the traced pass turns on what it
    /// needs on top of this.
    pub fn config(&self) -> ClusterConfig {
        self.config_on(self.backend, self.sync)
    }

    /// The same program and node count on another backend (the sim
    /// cross-check of a live workload).
    pub fn config_on(&self, backend: Backend, sync: SyncMode) -> ClusterConfig {
        ClusterConfig::javasplit(JvmProfile::SunSim, self.nodes)
            .with_backend(backend)
            .with_sync(sync)
    }

    pub fn is_live(&self) -> bool {
        self.backend != Backend::Sim
    }
}

pub fn tsp_params(seed: u64, scale: Scale) -> tsp::TspParams {
    let n = if scale == Scale::Full { 13 } else { 9 };
    tsp::TspParams {
        n,
        seed: seed as i64,
        depth: 3,
        threads: 16,
    }
}

pub fn ray_params(scale: Scale) -> raytracer::RayParams {
    let size = if scale == Scale::Full { 360 } else { 48 };
    raytracer::RayParams {
        size,
        grid: 4,
        threads: 16,
    }
}

pub fn series_params(scale: Scale) -> series::SeriesParams {
    match scale {
        Scale::Full => series::SeriesParams {
            n: 256,
            intervals: 4000,
            threads: 16,
        },
        Scale::Smoke => series::SeriesParams {
            n: 96,
            intervals: 1000,
            threads: 16,
        },
    }
}

const STORM_THREADS: i32 = 16;

fn storm_iters(scale: Scale) -> i32 {
    if scale == Scale::Full {
        60_000
    } else {
        1_000
    }
}

const BULK_THREADS: i32 = 16;

fn bulk_len(scale: Scale) -> i32 {
    if scale == Scale::Full {
        1 << 22
    } else {
        1 << 16
    }
}

/// First value the ping-pong producer sends: the seed, folded small enough
/// that the `i32` sum cannot overflow at any round count used here.
fn pingpong_base(seed: u64) -> i32 {
    (seed % 1000) as i32
}

fn pingpong_rounds(scale: Scale, full: i32) -> i32 {
    if scale == Scale::Full {
        full
    } else {
        200
    }
}

const THREADS_ROUNDS: i32 = 4000;
const SOCKETS_ROUNDS: i32 = 2000;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "tsp-sim8",
        why: "The paper's lock-heavy app and the golden anchor (seed 42: 0.412999 virtual s, 2238 msgs, 104626497 ops); interpreter-bound with light lock traffic.",
        backend: Backend::Sim,
        nodes: 8,
        sync: SyncMode::Epoch,
        program: |seed, scale| tsp::program(tsp_params(seed, scale)),
        reference: |seed, scale| tsp::solve_reference(&tsp_params(seed, scale)) as i64,
        app: Some(App::Tsp),
    },
    Workload {
        name: "raytracer-sim8",
        why: "Array-heavy pure compute: mjvm and its inlined check-hit path do nearly all the work; DSM misses, codec and net are negligible. Where an interpreter change must show.",
        backend: Backend::Sim,
        nodes: 8,
        sync: SyncMode::Epoch,
        program: |_, scale| raytracer::program(ray_params(scale)),
        reference: |_, scale| raytracer::reference_checksum(&ray_params(scale)),
        app: Some(App::Raytracer),
    },
    Workload {
        name: "lockstorm-sim8",
        why: "Protocol-bound mirror image of raytracer-sim8: 16 threads hammer one synchronized object, so dsm handle, the codec, net::sim and the event queue do the work and mjvm does little.",
        backend: Backend::Sim,
        nodes: 8,
        sync: SyncMode::Epoch,
        program: |seed, scale| kernels::lockstorm_program(&kernels::lockstorm_increments(seed, STORM_THREADS), storm_iters(scale)),
        reference: |seed, scale| kernels::lockstorm_reference(&kernels::lockstorm_increments(seed, STORM_THREADS), storm_iters(scale)),
        app: None,
    },
    Workload {
        name: "bulk-sim8",
        why: "Data-movement-bound: writers twin, diff and flush blocks of one big array, then main fetches it all back, so a diff-side gain that costs the fetch side shows in one run.",
        backend: Backend::Sim,
        nodes: 8,
        sync: SyncMode::Epoch,
        program: |_, scale| micro::block_array_kernel(bulk_len(scale), BULK_THREADS),
        reference: |_, scale| kernels::bulk_reference(bulk_len(scale), BULK_THREADS),
        app: None,
    },
    Workload {
        name: "series-threads2-async",
        why: "Field-heavy compute on two real node threads: the one workload whose wall should approach sim wall / 2. Async because threads-epoch is bimodal on a 2-core host.",
        backend: Backend::Threads,
        nodes: 2,
        sync: SyncMode::Async,
        program: |_, scale| series::program(series_params(scale)),
        reference: |_, scale| {
            let p = series_params(scale);
            kernels::series_reference(p.n, p.intervals)
        },
        app: Some(App::Series),
    },
    Workload {
        name: "pingpong-threads2-epoch",
        why: "Latency-bound sync engine and channel transport: each wait/notify round is six cross-node frames under the default sync mode; mjvm is irrelevant.",
        backend: Backend::Threads,
        nodes: 2,
        sync: SyncMode::Epoch,
        program: |seed, scale| kernels::pingpong_program(pingpong_rounds(scale, THREADS_ROUNDS), pingpong_base(seed)),
        reference: |seed, scale| kernels::pingpong_reference(pingpong_rounds(scale, THREADS_ROUNDS), pingpong_base(seed)),
        app: None,
    },
    Workload {
        name: "pingpong-sockets2-async",
        why: "The same kernel through net::tcp framing, the star-coordinator relay and async null traffic, two worker processes. Where a direct data plane or null coalescing must show.",
        backend: Backend::Sockets,
        nodes: 2,
        sync: SyncMode::Async,
        program: |seed, scale| kernels::pingpong_program(pingpong_rounds(scale, SOCKETS_ROUNDS), pingpong_base(seed)),
        reference: |seed, scale| kernels::pingpong_reference(pingpong_rounds(scale, SOCKETS_ROUNDS), pingpong_base(seed)),
        app: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What `ci/repro_all.golden.txt` and `BENCH_PERF.json` record for the
/// program `tsp-sim8` runs at seed 42: (virtual µs — those files print six
/// decimals of a second —, messages, ops). A mismatch means this package no
/// longer measures the root workspace's program.
pub const TSP_GOLDEN_SEED: u64 = 42;
pub const TSP_GOLDEN: (u64, u64, u64) = (412_999, 2238, 104_626_497);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_valid_name;

    #[test]
    fn names_are_valid_and_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(is_valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }

    #[test]
    fn live_workloads_use_two_nodes_and_nothing_is_observed() {
        for w in &WORKLOADS {
            assert_eq!(w.nodes, if w.is_live() { 2 } else { 8 }, "{}", w.name);
            let c = w.config();
            assert!(
                c.trace.is_none()
                    && !c.profile
                    && c.metrics.is_none()
                    && !c.objprof
                    && !c.opstats
                    && !c.classic_interp
            );
        }
    }
}
