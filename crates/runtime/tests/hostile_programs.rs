//! Totality from bytes to execution: a program file is outside input, so
//! whatever is wrong with it must end as a typed error or as a run report,
//! never as a panic. The inputs are byte mutants of `jsplit demo`'s
//! program, each run to completion on the sim under an op budget.

use jsplit_apps::tsp;
use jsplit_mjvm::classfile_io::{decode_program, encode_program};
use jsplit_mjvm::cost::JvmProfile;
use jsplit_rewriter::RewriteError;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{ClusterConfig, ClusterError, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The program `jsplit demo` writes.
fn demo_bytes() -> Vec<u8> {
    encode_program(&tsp::program(tsp::TspParams { n: 8, seed: 42, depth: 2, threads: 4 }))
}

/// Decode and run one mutant; `None` when it does not decode. A mutant
/// that survives decoding may loop forever, so the run has a budget.
fn run(bytes: &[u8]) -> Option<Result<RunReport, ClusterError>> {
    let program = decode_program(bytes).ok()?;
    Some(run_cluster(ClusterConfig::javasplit(JvmProfile::SunSim, 2).with_max_ops(200_000), &program))
}

fn mutate(base: &[u8], edits: &[(usize, u8)]) -> Vec<u8> {
    let mut b = base.to_vec();
    for &(at, v) in edits {
        b[at] = v;
    }
    b
}

/// Mutants that panicked before programs were verified on the way in: the
/// rewriter's splice on a branch target out of range, its `synchronized`
/// desugaring on a method made static (that mutant also breaks a branch),
/// and the entry-point lookup on a renamed `JSRuntime` class.
const SAVED: [&[(usize, u8)]; 3] = [&[(1029, 119)], &[(2680, 193), (1193, 212), (2772, 163)], &[(3977, 127)]];

#[test]
fn saved_rewriter_panics_are_typed_errors() {
    let base = demo_bytes();
    for edits in SAVED {
        let got = run(&mutate(&base, edits)).expect("the saved mutants decode");
        assert!(
            matches!(got, Err(ClusterError::Rewrite(RewriteError::InvalidInput(_)) | ClusterError::Load(_))),
            "{edits:?}: {:?}",
            got.map(|r| r.output)
        );
    }
}

/// SplitMix64: a fixed, dependency-free stream of mutation choices.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

#[test]
fn byte_mutants_of_the_demo_program_never_panic() {
    let base = demo_bytes();
    let mut rng = SplitMix(1);
    for i in 0..200 {
        let edits: Vec<(usize, u8)> = (0..1 + rng.below(4)).map(|_| (rng.below(base.len()), rng.below(256) as u8)).collect();
        let bytes = mutate(&base, &edits);
        assert!(catch_unwind(AssertUnwindSafe(|| run(&bytes))).is_ok(), "mutant {i} {edits:?} panicked");
    }
}
