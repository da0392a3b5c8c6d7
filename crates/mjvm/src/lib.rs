//! # MJVM — a miniature JVM-flavoured virtual machine
//!
//! This crate is the *substrate* of the JavaSplit reproduction: a from-scratch
//! stack-based virtual machine whose design deliberately mirrors the parts of
//! the Java Virtual Machine that the JavaSplit paper's bytecode rewriter
//! manipulates:
//!
//! * a class-file model with inheritance, instance/static/volatile fields,
//!   and virtual/static/special method dispatch ([`class`], [`loader`]);
//! * a JVM-flavoured instruction set including `getfield`/`putfield`,
//!   `getstatic`/`putstatic`, typed array accesses, `monitorenter`/
//!   `monitorexit` and synchronized methods ([`instr`]);
//! * an assembler/builder API used to author programs ([`builder`]),
//!   a structural verifier ([`verifier`]) and a disassembler ([`disasm`]);
//! * a resumable, instrumentation-aware interpreter ([`interp`]) that is
//!   parameterised over a [`interp::VmEnv`] so the very same interpreter runs
//!   both the "original JVM" baseline and the distributed JavaSplit runtime;
//! * a virtual-time cost model with two "JVM brand" profiles calibrated from
//!   the paper's Tables 1–3 ([`cost`]);
//! * a bootstrap library: intrinsic ("native") classes plus bootstrap classes
//!   written in MJVM bytecode ([`intrinsics`], [`stdlib`]);
//! * a deterministic single-node VM for correctness testing ([`localvm`]);
//! * the byte layer every wire format in the workspace sits on — class
//!   files here, protocol messages, frames and envelopes in the crates
//!   above ([`wire`]).
//!
//! The DSM pseudo-instructions (`DsmCheckRead`, `DsmMonitorEnter`, …) are part
//! of the instruction set but are only ever *emitted* by the `jsplit-rewriter`
//! crate, exactly as the paper's rewriter injects access checks and handler
//! calls into application bytecode (paper §4, Figure 3).

pub mod builder;
pub mod class;
pub mod classfile_io;
pub mod cost;
pub mod disasm;
pub mod heap;
pub mod instr;
pub mod interp;
pub mod intrinsics;
pub mod loader;
pub mod localvm;
pub mod opstats;
pub mod pcode;
pub mod stdlib;
pub mod value;
pub mod verifier;
pub mod wire;
#[cfg(test)]
mod wire_check;

pub use builder::{ClassBuilder, MethodBuilder, ProgramBuilder};
pub use class::{ClassFile, FieldDef, MethodDef, Program, Sig};
pub use cost::{CostModel, JvmProfile};
pub use heap::{Heap, Obj, ObjPayload, ObjRef};
pub use instr::{AccessKind, Cmp, ElemTy, Instr, Ty};
pub use interp::{CheckOutcome, MonOutcome, StepState, Thread, VmEnv};
pub use loader::{ClassId, Image, MethodId, SigId};
pub use localvm::{BaselineEnv, LocalVm};
pub use value::Value;
