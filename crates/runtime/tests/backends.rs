//! Cross-backend differential tests: the multi-threaded driver must be
//! observationally equivalent to the reference virtual-time simulator.
//!
//! The threads backend runs each node on its own OS thread and moves every
//! protocol message as *encoded bytes* across a channel, synchronized by
//! conservative virtual-time windows (single-exchange epoch rounds or
//! roundless async bursts, per-pair lookahead). If its windowing,
//! framing, message merge order, uid allocation, or load-balance placement
//! diverged from the sim driver in any observable way, these tests catch
//! it: program stdout, virtual execution time, instruction counts,
//! per-node DSM protocol counters, and per-node network message/byte
//! totals must all match exactly — on all three paper applications plus a
//! write-heavy microbenchmark, across cluster sizes, in both protocol
//! modes, under both sync modes. (Host
//! wall-clock and the sync counters are the fields allowed to differ —
//! they describe *how* the parallel run was orchestrated, which is the
//! point of the backend.)

use jsplit_dsm::ProtocolMode;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, RunReport, SyncMode};

mod common;
use common::{apps, assert_reports_match, spawn_shape_programs, BALANCERS};

fn run(backend: Backend, proto: ProtocolMode, nodes: usize, p: &Program) -> RunReport {
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, nodes).with_protocol(proto).with_backend(backend);
    let r = run_cluster(cfg, p).expect("cluster setup");
    r.expect_clean();
    r
}

/// A threads run under the asynchronous (roundless) sync protocol.
fn run_async(proto: ProtocolMode, nodes: usize, p: &Program) -> RunReport {
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, nodes)
        .with_protocol(proto)
        .with_backend(Backend::Threads)
        .with_sync(SyncMode::Async);
    let r = run_cluster(cfg, p).expect("cluster setup");
    r.expect_clean();
    r
}

#[test]
fn threads_backend_matches_sim_on_all_apps_both_protocols() {
    for (app, p) in &apps() {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let sim = run(Backend::Sim, proto, 4, p);
            let thr = run(Backend::Threads, proto, 4, p);
            assert_reports_match(&format!("{app} ({proto:?})"), &sim, &thr);
        }
    }
}

/// Cluster sizes below and above the app's thread count (16 nodes for 8
/// app threads leaves some nodes nearly idle — the regime per-pair
/// lookahead exists for).
#[test]
fn threads_backend_matches_sim_across_node_counts() {
    for (app, p) in &apps() {
        for nodes in [2usize, 16] {
            let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, nodes, p);
            let thr = run(Backend::Threads, ProtocolMode::MtsHlrc, nodes, p);
            assert_reports_match(&format!("{app} @ {nodes} nodes"), &sim, &thr);
        }
    }
}

/// A write-heavy array microbenchmark (block-striped writers) — a very
/// different protocol mix from the paper apps: dominated by diffs and
/// array-region traffic.
#[test]
fn threads_backend_matches_sim_on_micro_kernel() {
    let p = jsplit_apps::micro::block_array_kernel(64, 8);
    for nodes in [4usize, 16] {
        let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, nodes, &p);
        let thr = run(Backend::Threads, ProtocolMode::MtsHlrc, nodes, &p);
        assert_reports_match(&format!("micro @ {nodes} nodes"), &sim, &thr);
    }
}

/// Programs beyond one fork-join wave — a second wave after the first has
/// exited, workers that spawn their own — place every thread exactly where
/// the sim does, under both stateful balancers and both sync protocols:
/// all drivers feed the balancer the spawning node's own load estimate.
#[test]
fn multi_wave_and_nested_spawns_match_sim_under_both_balancers() {
    for (shape, p) in &spawn_shape_programs() {
        for balancer in BALANCERS {
            let go = |backend, sync| {
                let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 3).with_balancer(balancer);
                let r = run_cluster(cfg.with_backend(backend).with_sync(sync), p).expect("cluster setup");
                r.expect_clean();
                r
            };
            let sim = go(Backend::Sim, SyncMode::Epoch);
            for sync in [SyncMode::Epoch, SyncMode::Async] {
                assert_reports_match(&format!("{shape} ({balancer:?}, {sync:?})"), &sim, &go(Backend::Threads, sync));
            }
        }
    }
}

/// The conservative-window merge must make the threads backend
/// deterministic on its own terms: five runs of the same program produce
/// identical stdout and protocol counters, regardless of OS scheduling.
#[test]
fn threads_backend_is_deterministic_repeated() {
    let (_, p) = apps().swap_remove(0);
    let first = run(Backend::Threads, ProtocolMode::MtsHlrc, 8, &p);
    for i in 1..5 {
        let r = run(Backend::Threads, ProtocolMode::MtsHlrc, 8, &p);
        assert_eq!(first.output, r.output, "run {i}: stdout diverged");
        assert_eq!(first.exec_time_ps, r.exec_time_ps, "run {i}: virtual time diverged");
        assert_eq!(first.ops_per_node, r.ops_per_node, "run {i}: per-node ops diverged");
        assert_eq!(first.net_per_node, r.net_per_node, "run {i}: net stats diverged");
        assert_eq!(first.dsm_per_node, r.dsm_per_node, "run {i}: DSM stats diverged");
    }
}

/// Degenerate topology: a cluster with far more nodes than application
/// threads leaves some nodes permanently silent (they publish `next = ∞`
/// every round). Silent nodes must not stall the cluster — the run
/// completes and still matches the sim — and per-pair lookahead must not
/// let them *unboundedly widen* anyone's window either (the self-echo
/// term; a violation shows up here as diverged counters or a deadlock).
#[test]
fn silent_nodes_neither_stall_nor_corrupt_the_cluster() {
    use jsplit_apps::tsp;
    let p = tsp::program(tsp::TspParams { n: 7, seed: 42, depth: 2, threads: 2 });
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 8, &p);
    let thr = run(Backend::Threads, ProtocolMode::MtsHlrc, 8, &p);
    assert_reports_match("tsp-silent", &sim, &thr);
    // The premise holds: some node really did stay silent (no DSM or
    // spawn traffic beyond the class shipment it was sent).
    let quiet = thr.net_per_node.iter().skip(1).any(|n| n.msgs_sent == 0);
    assert!(quiet, "expected at least one silent worker in an 8-node run of 2 threads");
}

/// Single-node threads runs take the horizon=∞ fast path (no windowing);
/// they must still match the sim driver exactly.
#[test]
fn threads_backend_matches_sim_single_node() {
    let (_, p) = apps().swap_remove(0);
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 1, &p);
    let thr = run(Backend::Threads, ProtocolMode::MtsHlrc, 1, &p);
    assert_reports_match("tsp-1node", &sim, &thr);
}

/// Every node counts retired opcodes under `with_opstats`, whichever
/// driver runs it: the threads backend hands the merged counters back, and
/// they equal the sim's (pair chains reset at quantum boundaries, so the
/// tables do not depend on scheduling).
#[test]
fn threads_opstats_match_sim() {
    let (_, p) = apps().swap_remove(0);
    let counted = |backend| {
        let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 4).with_backend(backend).with_opstats(true);
        let r = run_cluster(cfg, &p).expect("cluster setup");
        r.expect_clean();
        r.opstats.unwrap_or_else(|| panic!("{backend:?}: opstats run returned no counters"))
    };
    let (sim, thr) = (counted(Backend::Sim), counted(Backend::Threads));
    assert!(sim.total() > 0);
    assert_eq!(sim.total(), thr.total(), "retired-op totals diverged");
    assert_eq!(sim.top_ops(12), thr.top_ops(12), "hot-opcode tables diverged");
    assert_eq!(sim.top_pairs(12), thr.top_pairs(12), "hot-pair tables diverged");
}

/// The threads backend reports its orchestration counters: windows ran,
/// and fewer frames than messages.
#[test]
fn sync_counters_are_populated() {
    let (_, p) = apps().swap_remove(0);
    let s = run(Backend::Threads, ProtocolMode::MtsHlrc, 4, &p).sync;
    assert!(s.windows > 0, "no windows counted");
    assert!(s.msgs_framed > 0, "no messages framed");
    assert!(s.frames_sent <= s.msgs_framed, "more frames than messages");
    assert!(s.msgs_batched() > 0, "batching saved no channel crossings on tsp");
    assert!(s.bytes_per_frame_avg() > 0.0);
    // Sim runs report zeroed sync counters.
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 4, &p);
    assert_eq!(sim.sync, jsplit_runtime::SyncStats::default());
}

/// Horizons did not move when the epoch round lost its second meeting:
/// the folded `next_i` is the post-drain queue head the deleted publish
/// phase used to carry, so the cluster runs exactly the windows it ran
/// before — the counts below were measured at the two-meeting parent.
#[test]
fn epoch_window_counts_are_those_of_the_two_phase_protocol() {
    const PARENT_WINDOWS: [(&str, u64); 3] = [("tsp", 21), ("series", 9), ("raytracer", 31)];
    for ((app, p), (pinned_app, windows)) in apps().iter().zip(PARENT_WINDOWS) {
        assert_eq!(*app, pinned_app);
        let s = run(Backend::Threads, ProtocolMode::MtsHlrc, 4, p).sync;
        assert_eq!(s.windows, windows, "{app}: threads-epoch window count moved");
    }
}

/// Tracing on the threads backend: each node records into a private sink
/// and the driver canonicalizes the merged stream — the result must be
/// *byte-identical* to the sim backend's canonical trace of the same
/// program, on all three paper apps, down to the Chrome export text. The
/// derived analyses (stall breakdown, lock contention) then agree for free.
///
/// Not `nested`: its two mid-level workers run in exact lockstep, so their
/// fetches reach node 0 at equal virtual times with equal histories — the
/// one tie the sim breaks by global insertion order and an engine by
/// sender id (`engine.rs`, "residual freedom"). Node 0 then records its two
/// replies in the other order; every counter and time still matches (the
/// report tests above run it).
#[test]
fn threads_trace_is_byte_identical_to_sim_on_all_apps() {
    for (app, p) in apps().iter().filter(|(app, _)| *app != "nested") {
        let cfg = |b| {
            ClusterConfig::javasplit(JvmProfile::SunSim, 4)
                .with_backend(b)
                .with_trace(jsplit_trace::TraceMode::Full)
        };
        let sim = run_cluster(cfg(Backend::Sim), p).expect("sim setup");
        let thr = run_cluster(cfg(Backend::Threads), p).expect("threads setup");
        sim.expect_clean();
        thr.expect_clean();
        let se = sim.trace.as_ref().expect("sim trace");
        let te = thr.trace.as_ref().expect("threads trace");
        if se != te {
            let i = se
                .iter()
                .zip(te.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(se.len().min(te.len()));
            panic!(
                "{app}: traces diverge at event {i} of {}/{}: sim {:?} vs threads {:?}",
                se.len(),
                te.len(),
                se.get(i),
                te.get(i)
            );
        }
        assert_eq!(
            jsplit_trace::chrome_trace(se),
            jsplit_trace::chrome_trace(te),
            "{app}: chrome export text diverged"
        );
        assert_eq!(sim.breakdown, thr.breakdown, "{app}: derived breakdown diverged");
        assert_eq!(sim.lock_stats, thr.lock_stats, "{app}: derived lock stats diverged");
        // Tracing implies profiling on the threads backend, with raw spans
        // kept for the Chrome real-time lanes; the sim has no wall profile.
        assert!(sim.wall.is_none(), "{app}: sim must not report a wall profile");
        let wall = thr.wall.as_ref().expect("traced threads run must carry a wall profile");
        assert!(wall.nodes.iter().any(|n| !n.spans.is_empty()), "{app}: no raw spans kept");
        // The unified export (what `jsplit run --trace` writes) adds those
        // spans as real-time lanes in their own pid namespace and category,
        // and leaves the virtual-time lanes exactly as the sim exports them.
        let unified = jsplit_trace::chrome_trace_unified(te, Some(wall));
        let (wall_lanes, virt): (Vec<&str>, Vec<&str>) = unified.lines().partition(|l| l.contains("\"pid\":10000"));
        assert!(wall_lanes.iter().any(|l| l.contains("\"cat\":\"wall\"")), "{app}: wall spans missing their category");
        assert_eq!(virt, jsplit_trace::chrome_trace(se).lines().collect::<Vec<_>>(), "{app}: virtual lanes perturbed");
    }
}

/// A traced threads run must still be observationally identical to an
/// untraced one — tracing is pure observation.
#[test]
fn threads_tracing_does_not_perturb_the_run() {
    let (_, p) = apps().swap_remove(0);
    let plain = run(Backend::Threads, ProtocolMode::MtsHlrc, 4, &p);
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 4)
        .with_backend(Backend::Threads)
        .with_trace(jsplit_trace::TraceMode::Full);
    let traced = run_cluster(cfg, &p).expect("cluster setup");
    traced.expect_clean();
    assert_reports_match("tsp traced-vs-plain", &plain, &traced);
    assert_eq!(plain.sync, traced.sync, "sync counters perturbed by tracing");
}

/// The wall profile's categories are boundary-chained, so per node
/// they must tile the thread's independently measured wall time: the sum
/// can only fall short (by the head/tail outside the epoch loop) and by no
/// more than 1% plus a small absolute allowance for very short runs.
#[test]
fn wall_profile_categories_tile_thread_wall_time() {
    use jsplit_trace::SpanKind;
    let (_, p) = apps().swap_remove(0);
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 4)
        .with_backend(Backend::Threads)
        .with_profile(true);
    let r = run_cluster(cfg, &p).expect("cluster setup");
    r.expect_clean();
    let wall = r.wall.as_ref().expect("profile requested");
    assert_eq!(wall.nodes.len(), 4, "one profile per node");
    for n in &wall.nodes {
        let acc = n.accounted_ns();
        assert!(acc <= n.wall_ns, "node {}: accounted {acc} ns exceeds wall {} ns", n.node, n.wall_ns);
        let gap = n.wall_ns - acc;
        assert!(
            gap <= n.wall_ns / 100 + 500_000,
            "node {}: unaccounted gap {gap} ns of wall {} ns (> 1% + 0.5 ms)",
            n.node,
            n.wall_ns
        );
        // Every round meets once, in the exchange, and decides; the
        // per-kind stats and the virtual window histogram must be
        // populated, and the retired barrier category must stay empty.
        let met = n.stats_of(SpanKind::SlotSpin).count + n.stats_of(SpanKind::CondvarWait).count;
        assert!(met > 0, "node {}: no exchange spans", n.node);
        assert_eq!(n.stats_of(SpanKind::BarrierWait).count, 0, "node {}: barrier spans recorded", n.node);
        assert!(n.stats_of(SpanKind::Decide).count > 0, "node {}: no decide spans", n.node);
        assert!(n.window_ps.count() > 0, "node {}: empty window histogram", n.node);
        // Profiling without a trace keeps aggregates only, never raw spans.
        assert!(n.spans.is_empty(), "node {}: raw spans kept without a trace", n.node);
        assert_eq!(n.spans_dropped, 0);
    }
    assert!(
        wall.nodes.iter().any(|n| n.frame_bytes.count() > 0),
        "no node recorded shipped frame sizes"
    );
    assert!(wall.dominant_stall().is_some(), "a 4-node run must have some stall time");
    // The profile is observational: the run still matches the sim.
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 4, &p);
    assert_reports_match("tsp profiled-vs-sim", &sim, &r);
    // The sim backend ignores the profile flag (its wall time is the
    // simulator's, not the guest's).
    assert!(sim.wall.is_none());
}

/// `--sync async` replaces the epoch exchange with Chandy–Misra–Bryant null
/// promises; every observable result must still be identical to the sim
/// *and* to the epoch protocol — on all three paper apps, in both protocol
/// modes.
#[test]
fn async_sync_matches_sim_and_epoch_on_all_apps_both_protocols() {
    for (app, p) in &apps() {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let sim = run(Backend::Sim, proto, 4, p);
            let epoch = run(Backend::Threads, proto, 4, p);
            let asy = run_async(proto, 4, p);
            assert_reports_match(&format!("{app} ({proto:?}) async-vs-sim"), &sim, &asy);
            assert_reports_match(&format!("{app} ({proto:?}) async-vs-epoch"), &epoch, &asy);
        }
    }
}

/// The full async matrix: every app, cluster sizes below and above the
/// thread count — always counter-identical to the sim and to the epoch
/// driver.
#[test]
fn async_sync_matches_sim_and_epoch_across_node_counts() {
    for (app, p) in &apps() {
        for nodes in [2usize, 4, 8, 16] {
            let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, nodes, p);
            let epoch = run(Backend::Threads, ProtocolMode::MtsHlrc, nodes, p);
            let asy = run_async(ProtocolMode::MtsHlrc, nodes, p);
            let ctx = format!("{app} @ {nodes} nodes");
            assert_reports_match(&format!("{ctx} async-vs-sim"), &sim, &asy);
            assert_reports_match(&format!("{ctx} async-vs-epoch"), &epoch, &asy);
        }
    }
}

/// Async runs must be deterministic on their own terms too: the drain
/// schedule (which arrivals land in which burst) is wall-clock noise, but
/// the merge key and the purely local horizon rule make the virtual-time
/// execution identical across repeats.
#[test]
fn async_sync_is_deterministic_repeated() {
    let (_, p) = apps().swap_remove(0);
    let first = run_async(ProtocolMode::MtsHlrc, 8, &p);
    for i in 1..5 {
        let r = run_async(ProtocolMode::MtsHlrc, 8, &p);
        assert_eq!(first.output, r.output, "run {i}: stdout diverged");
        assert_eq!(first.exec_time_ps, r.exec_time_ps, "run {i}: virtual time diverged");
        assert_eq!(first.ops_per_node, r.ops_per_node, "run {i}: per-node ops diverged");
        assert_eq!(first.net_per_node, r.net_per_node, "run {i}: net stats diverged");
        assert_eq!(first.dsm_per_node, r.dsm_per_node, "run {i}: DSM stats diverged");
    }
}

/// Silent-node topology under async sync: nodes that never send data can
/// only move their peers' horizons through null promises. If nulls didn't
/// flow (or didn't carry the §12.2 self-echo recursion), this run would
/// deadlock or diverge instead of completing.
#[test]
fn async_nulls_alone_carry_the_horizon() {
    use jsplit_apps::tsp;
    let p = tsp::program(tsp::TspParams { n: 7, seed: 42, depth: 2, threads: 2 });
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 8, &p);
    let asy = run_async(ProtocolMode::MtsHlrc, 8, &p);
    assert_reports_match("tsp-silent async", &sim, &asy);
    let quiet = asy.net_per_node.iter().skip(1).any(|n| n.msgs_sent == 0);
    assert!(quiet, "expected at least one silent worker in an 8-node run of 2 threads");
    assert!(asy.sync.nulls_sent > 0, "silent nodes must have shipped standalone null promises");
}

/// Single-node async runs take the same horizon=∞ fast path as epoch mode.
#[test]
fn async_sync_matches_sim_single_node() {
    let (_, p) = apps().swap_remove(0);
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 1, &p);
    let asy = run_async(ProtocolMode::MtsHlrc, 1, &p);
    assert_reports_match("tsp-1node async", &sim, &asy);
}

/// Async orchestration counters: horizons advance, and null promises flow (standalone or piggybacked). The
/// volume of nulls is wall-timing-dependent, so only presence is asserted.
#[test]
fn async_sync_counters_are_populated() {
    let (_, p) = apps().swap_remove(0);
    let r = run_async(ProtocolMode::MtsHlrc, 4, &p);
    let s = r.sync;
    assert!(s.windows > 0, "no bursts counted");
    assert!(s.horizon_advances > 0, "horizons never advanced");
    assert!(s.nulls_sent + s.nulls_piggybacked > 0, "no null promises shipped");
    assert!(s.msgs_framed > 0, "no messages framed");
    // Epoch runs must stay free of the async counters.
    let epoch = run(Backend::Threads, ProtocolMode::MtsHlrc, 4, &p);
    assert_eq!(epoch.sync.nulls_sent, 0);
    assert_eq!(epoch.sync.nulls_piggybacked, 0);
    assert_eq!(epoch.sync.horizon_advances, 0);
}

/// A traced async run still produces the byte-identical canonical event
/// stream (nulls are sync-layer traffic, invisible to the virtual-time
/// trace), and its wall profile tiles with `horizon_wait` standing in for
/// the exchange categories — async never meets.
#[test]
fn async_trace_is_byte_identical_and_wall_profile_tiles() {
    use jsplit_trace::SpanKind;
    let (_, p) = apps().swap_remove(0);
    let sim = run_cluster(
        ClusterConfig::javasplit(JvmProfile::SunSim, 4)
            .with_backend(Backend::Sim)
            .with_trace(jsplit_trace::TraceMode::Full),
        &p,
    )
    .expect("sim setup");
    let asy = run_cluster(
        ClusterConfig::javasplit(JvmProfile::SunSim, 4)
            .with_backend(Backend::Threads)
            .with_sync(SyncMode::Async)
            .with_trace(jsplit_trace::TraceMode::Full),
        &p,
    )
    .expect("async setup");
    sim.expect_clean();
    asy.expect_clean();
    assert_eq!(sim.trace, asy.trace, "async trace diverged from sim");
    let wall = asy.wall.as_ref().expect("traced run carries a wall profile");
    for n in &wall.nodes {
        let acc = n.accounted_ns();
        assert!(acc <= n.wall_ns, "node {}: accounted {acc} ns exceeds wall {} ns", n.node, n.wall_ns);
        let gap = n.wall_ns - acc;
        assert!(
            gap <= n.wall_ns / 100 + 500_000,
            "node {}: unaccounted gap {gap} ns of wall {} ns (> 1% + 0.5 ms)",
            n.node,
            n.wall_ns
        );
        // The epoch categories must be empty and the async one populated.
        assert_eq!(n.stats_of(SpanKind::BarrierWait).count, 0, "node {}: barrier spans under async", n.node);
        assert_eq!(n.stats_of(SpanKind::CondvarWait).count, 0, "node {}: condvar spans under async", n.node);
        assert_eq!(n.stats_of(SpanKind::SlotSpin).count, 0, "node {}: slot-spin spans under async", n.node);
        assert!(n.stats_of(SpanKind::Execute).count > 0, "node {}: no execute spans", n.node);
    }
    assert!(
        wall.nodes.iter().any(|n| n.stats_of(SpanKind::HorizonWait).count > 0),
        "no node ever parked on its horizon in a 4-node run"
    );
}

/// The convoy kernel: 16 nodes, one ~12x-slower straggler. Under epoch
/// sync every round is paced by the straggler (the round convoy); async
/// lets the 15 fast nodes run ahead and park. Both must match the sim.
#[test]
fn skewed_kernel_matches_the_sim_under_both_sync_modes() {
    let p = jsplit_apps::micro::skewed_block_array_kernel(1600, 16, 400);
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 16, &p);
    assert_reports_match("skew epoch-vs-sim", &sim, &run(Backend::Threads, ProtocolMode::MtsHlrc, 16, &p));
    assert_reports_match("skew async-vs-sim", &sim, &run_async(ProtocolMode::MtsHlrc, 16, &p));
}

/// The convoy race in wall-clock time, best of two runs per mode. A wall
/// ratio means nothing while other tests share the cores, so this runs
/// only alone: `cargo test --release --test backends -- --ignored
/// --test-threads=1` (a CI step does).
///
/// The claim is core-count-gated, mirroring the CI convoy guard's
/// warn-don't-fail stance on the 1-core container: with real parallelism
/// the convoy is real wall time and async must win outright; on an
/// oversubscribed few-core host a round convoy costs almost nothing
/// (blocked threads donate their core to the straggler, making epoch
/// near-optimal there), so async only has to stay within a 2x regression
/// band — enough to catch a horizon stall, which shows up as an order of
/// magnitude, not a fraction.
#[test]
#[ignore = "wall-clock ratio: run alone, with --ignored --test-threads=1"]
fn async_keeps_pace_with_epoch_on_the_skewed_kernel() {
    let p = jsplit_apps::micro::skewed_block_array_kernel(1600, 16, 400);
    let sim = run(Backend::Sim, ProtocolMode::MtsHlrc, 16, &p);
    let mut epoch_best = f64::INFINITY;
    let mut async_best = f64::INFINITY;
    for _ in 0..2 {
        let e = run(Backend::Threads, ProtocolMode::MtsHlrc, 16, &p);
        assert_reports_match("skew epoch-vs-sim", &sim, &e);
        epoch_best = epoch_best.min(e.host_wall_secs);
        let a = run_async(ProtocolMode::MtsHlrc, 16, &p);
        assert_reports_match("skew async-vs-sim", &sim, &a);
        async_best = async_best.min(a.host_wall_secs);
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores >= 8 {
        assert!(
            async_best < epoch_best,
            "async ({async_best:.4}s) lost the convoy race to epoch ({epoch_best:.4}s) on a {cores}-core host"
        );
    } else {
        assert!(
            async_best <= epoch_best * 2.0,
            "async ({async_best:.4}s) fell past the regression band vs epoch ({epoch_best:.4}s) even for a {cores}-core host"
        );
    }
}

/// The threads driver cannot honour mid-run joins; they must be rejected
/// up front as a configuration error — the right variant with an accurate
/// message, not silently ignored (tracing, once also rejected here, is now
/// supported and covered by the differential trace tests).
#[test]
fn threads_backend_rejects_mid_run_joins() {
    use jsplit_runtime::NodeSpec;
    let (_, p) = apps().swap_remove(0);

    let joins = ClusterConfig::javasplit(JvmProfile::SunSim, 2)
        .with_backend(Backend::Threads)
        .with_joins(vec![(1_000_000, NodeSpec::sun())]);
    match run_cluster(joins, &p) {
        Err(jsplit_runtime::ClusterError::Config(msg)) => {
            assert!(msg.contains("mid-run joins"), "unhelpful rejection message: {msg}");
            assert!(msg.contains("sim backend"), "message should point at the supported backend: {msg}");
        }
        Err(other) => panic!("expected ClusterError::Config, got {other:?}"),
        Ok(_) => panic!("mid-run joins must be rejected"),
    }
}
