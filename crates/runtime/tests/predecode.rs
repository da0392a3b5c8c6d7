//! Differential tests for the decode-once direct-threaded executor: the
//! predecoded micro-op path (the default) must be observationally
//! equivalent to the classic enum-decode interpreter it replaced.
//!
//! The predecoder lowers every method body into a flat array of 16-byte
//! micro-ops at load time — operands resolved, static costs precomputed,
//! hot consecutive pairs fused into superinstructions — and the executor
//! dispatches on a dense u8 opcode instead of re-matching the full
//! `Instr` enum every step. None of that may be observable: program
//! stdout, virtual execution time, instruction counts, per-node DSM
//! protocol counters, and per-node network totals must match the classic
//! interpreter exactly, on all three paper applications, in both protocol
//! modes, on every backend (sim, threads, sockets). The classic path is
//! kept behind `ClusterConfig::with_classic_interp(true)` precisely so
//! this oracle stays runnable forever.
//!
//! The structural tests go below the cluster layer: for each app's loaded
//! image, every lowered micro-op must preserve the verifier's stack-shape
//! judgment (fused ops compose their components' effects), and every
//! fused superinstruction must have a disassembly.

use jsplit_dsm::ProtocolMode;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_mjvm::pcode;
use jsplit_mjvm::Image;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, RunReport};

mod common;
use common::{apps, assert_reports_match, sockets_config};

fn run_with(proto: ProtocolMode, backend: Backend, classic: bool, p: &Program) -> RunReport {
    let mut cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 4)
        .with_protocol(proto)
        .with_backend(backend)
        .with_classic_interp(classic);
    if backend == Backend::Sockets {
        cfg = cfg.with_sockets(sockets_config());
    }
    let r = run_cluster(cfg, p).expect("cluster setup");
    r.expect_clean();
    r
}

/// The oracle: the classic interpreter under the reference simulator.
fn classic_sim(proto: ProtocolMode, p: &Program) -> RunReport {
    run_with(proto, Backend::Sim, true, p)
}

#[test]
fn predecoded_sim_matches_classic_on_all_apps_both_protocols() {
    for (app, p) in &apps() {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let classic = classic_sim(proto, p);
            let fast = run_with(proto, Backend::Sim, false, p);
            assert_reports_match(&format!("{app} ({proto:?}) sim"), &classic, &fast);
        }
    }
}

#[test]
fn predecoded_threads_matches_classic_on_all_apps_both_protocols() {
    for (app, p) in &apps() {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let classic = classic_sim(proto, p);
            let fast = run_with(proto, Backend::Threads, false, p);
            assert_reports_match(&format!("{app} ({proto:?}) threads"), &classic, &fast);
        }
    }
}

#[test]
fn predecoded_sockets_matches_classic_on_all_apps_both_protocols() {
    for (app, p) in &apps() {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let classic = classic_sim(proto, p);
            let fast = run_with(proto, Backend::Sockets, false, p);
            assert_reports_match(&format!("{app} ({proto:?}) sockets"), &classic, &fast);
        }
    }
}

/// The `classic_interp` flag rides the sockets wire config: a classic
/// multi-process run must still match the classic sim oracle (catches a
/// worker silently ignoring — or double-applying — the flag).
#[test]
fn classic_flag_round_trips_over_sockets_wire() {
    let (_, p) = apps().swap_remove(0); // tsp
    let classic = classic_sim(ProtocolMode::MtsHlrc, &p);
    let sockets = run_with(ProtocolMode::MtsHlrc, Backend::Sockets, true, &p);
    assert_reports_match("tsp classic-over-sockets", &classic, &sockets);
}

/// Property: predecoding preserves the verifier's stack-shape judgment on
/// every method of every real app image, under both cost profiles (the
/// micro-op cost field differs per profile; the shape must not). This is
/// the structural half of the differential suite — it checks each
/// micro-op against the source instruction's verified pop/push counts and
/// each fused op against the composition of its components, including
/// branch-target agreement.
#[test]
fn predecode_preserves_verifier_stack_shapes_on_all_apps() {
    for (app, p) in &apps() {
        let image = Image::load(p).expect("load");
        for profile in [JvmProfile::SunSim, JvmProfile::IbmSim] {
            let pim = pcode::predecode(&image, profile.cost_model());
            if let Err(e) = pcode::verify_against(&pim, &image) {
                panic!("{app} ({}): predecode shape check failed: {e}", profile.name());
            }
            assert!(pim.methods.len() == image.methods.len(), "{app}: method count diverged");
        }
    }
}

/// Real app images must actually exercise the fuser — otherwise the
/// shape property above would be vacuous for superinstructions.
#[test]
fn real_apps_contain_fused_superinstructions() {
    for (app, p) in &apps() {
        let image = Image::load(p).expect("load");
        let pim = pcode::predecode(&image, JvmProfile::SunSim.cost_model());
        assert!(pim.fused > 0, "{app}: predecoder fused no pairs");
        // The disassembler must know every fused op the fuser emits.
        let seen = pim.methods.iter().flat_map(|pm| &pm.ops).filter(|m| pcode::fmt_fused(m).is_some()).count() as u64;
        assert_eq!(seen, pim.fused, "{app}: fused count disagrees with fmt_fused coverage");
    }
}
