//! # jsplit-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6):
//!
//! * [`table1`] — heap data access latency, original vs rewritten (Table 1);
//! * [`table2`] — local acquire cost: original monitor vs JavaSplit
//!   local-object counter vs shared object (Table 2);
//! * [`table3`] — communication latency by message size (Table 3);
//! * [`table4`] — execution times and speedups of TSP, Series and the 3D
//!   Ray Tracer on 1–16 dual-CPU nodes, per JVM brand (the paper's "Table
//!   4" figure set);
//! * [`ablation`] — the §3.1 and §4.4 design-choice ablations (scalar vs
//!   vector timestamps / bounded vs full notice history, and the
//!   local-object lock fast path on/off).
//!
//! `cargo run -p jsplit-bench --release --bin repro` prints everything.
//! Host-time measurement lives in `benchmark/` (`benchmark/run.sh`), not
//! here: this crate's output is deterministic virtual time.

pub mod ablation;
pub mod heat;
pub mod measure;
pub mod table1;
pub mod tracecmd;
pub mod table2;
pub mod table3;
pub mod table4;
