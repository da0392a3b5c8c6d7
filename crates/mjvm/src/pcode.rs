//! Predecoded (direct-threaded) method bodies.
//!
//! [`Image::load`] already quickens symbolic operands to dense indices, but
//! the classic interpreter still pattern-matches the ~115-variant [`Instr`]
//! enum — re-decoding operands, re-fetching the frame and re-charging the
//! cost model on every retired instruction. [`predecode`] lowers each
//! verified body once, at load time, into a flat array of fixed-size
//! [`MicroOp`]s: operands resolved to raw indices, every statically-known
//! virtual-time cost folded into the op, and the dominant dynamic pairs
//! fused into superinstructions. [`step`] is the direct-threaded executor
//! over that array; it must be observationally identical to
//! [`interp::step`] — same output, same virtual time, same ops count, same
//! quantum boundaries, same traps — which the differential suites assert.
//!
//! ## Micro-op format
//!
//! One micro-op is 16 bytes: `{ op, t, x, c, a, b }` — an opcode byte, a
//! tiny operand `t` (access kind / element type / comparison / depth), a
//! u16 operand `x` (local slot, field slot, signature id, arg count), a
//! precomputed static cost `c` in picoseconds, and two u32 operands
//! `a`/`b` (branch target, class/method id, constant bits — i64/f64
//! constants split lo/hi across `a`/`b`). Strings (literals and trap
//! messages) live in a side pool.
//!
//! Because `c` bakes in per-model costs (`generic_op`, invoke and alloc
//! totals, check costs), a `PImage` is specific to one [`CostModel`]; each
//! node predecodes the shared [`Image`] against its own brand profile.
//! Costs that depend on runtime state — first-vs-repeated heap access, the
//! dynamic array-allocation size — are charged from the model at execution
//! time through the same code path as the classic interpreter, so they are
//! bit-identical.
//!
//! ## Superinstruction fusion
//!
//! `predecode` fuses the dominant dynamic pairs measured by `repro
//! opstats`: the plain pairs (load+getfield, load+arraylen, load+aload,
//! load+load, lcmp/dcmp+branch, iinc+goto) and — the dominant chains
//! under the JavaSplit rewrite, where every heap access is preceded by a
//! Figure-3 DSM check — the check-fused set (check+getfield,
//! check+aload, check+putfield, check+astore, load+check, and the full
//! load+check+getfield triple). Fusion is *position-preserving*: a fused
//! op sits at the index of its first component and the following slots
//! retain the plain remaining components, so every branch target stays
//! valid and a quantum boundary between components resumes exactly like
//! the classic interpreter: the executor retires the components one at a
//! time against the fuel counter, and if fuel runs out in between it
//! materializes the intermediate stack state and parks `pc` on the
//! retained next op. A DSM-check *miss* likewise parks `pc` on the
//! check's own slot (materializing any earlier component), so the retry
//! after the page arrives retires exactly the ops the classic
//! interpreter would.

use crate::cost::{CostModel, Rw};
use crate::heap::ObjPayload;
use crate::instr::{AccessKind, Cmp, ElemTy, Instr};
use crate::interp::{
    access_key, array_load, array_store, cache_hit, pop_frame, run_native, CheckOutcome, Frame,
    MonOutcome, NativeFlow, StepCtx, StepOutcome, StepState, Thread, VmEnv, VmError, NO_ACCESS,
};
use crate::loader::{ClassId, Image, MethodId, SigId};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Micro-opcode. Grouped by operand decoding, not by theme; the `Fused*`
/// block holds the superinstructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MOp {
    // ---- constants & stack ----
    ConstI32,
    ConstI64,
    ConstF64,
    ConstNull,
    /// Constant from the value side pool (`a` = pool index) — only for the
    /// rare [`Value`] shapes with no inline encoding.
    ConstV,
    LdcStr,
    Dup,
    DupX1,
    PopV,
    SwapV,
    // ---- locals ----
    Load,
    Store,
    IInc,
    // ---- i32 arithmetic ----
    IAdd,
    ISub,
    IMul,
    IDiv,
    IRem,
    INeg,
    IShl,
    IShr,
    IUShr,
    IAnd,
    IOr,
    IXor,
    // ---- i64 arithmetic ----
    LAdd,
    LSub,
    LMul,
    LDiv,
    LRem,
    LNeg,
    // ---- f64 arithmetic ----
    DAdd,
    DSub,
    DMul,
    DDiv,
    DRem,
    DNeg,
    // ---- conversions & compares ----
    I2L,
    I2D,
    L2I,
    L2D,
    D2I,
    D2L,
    LCmp,
    DCmp,
    // ---- control flow ----
    Goto,
    IfICmp,
    IfI,
    IfNull,
    IfNonNull,
    IfACmpEq,
    IfACmpNe,
    // ---- heap ----
    NewObj,
    NewArr,
    ArrLen,
    GetField,
    PutField,
    GetStatic,
    PutStatic,
    ALoad,
    AStore,
    Nop,
    /// Symbolic instruction that survived quickening: traps at execution,
    /// exactly like the classic interpreter (`a` = message pool index).
    Unquick,
    // ---- slow ops: need the environment or whole-thread access ----
    CheckRead,
    CheckWrite,
    MonEnter,
    MonExit,
    DsmMonEnter,
    DsmMonExit,
    VolAcquire,
    VolRelease,
    SpawnDsm,
    CallStatic,
    CallSpecial,
    CallVirtual,
    Ret,
    RetVal,
    // ---- superinstructions (fused pairs) ----
    /// `Load x; GetFieldQ{slot: a, kind: t}`.
    LoadGetField,
    /// `Load x; ArrayLen`.
    LoadArrLen,
    /// `Load x; ALoad(t)` — the local holds the element index.
    LoadALoad,
    /// `LCmp; IfI(t, a)`.
    LCmpIfI,
    /// `DCmp; IfI(t, a)`.
    DCmpIfI,
    /// `IInc(x, a as i32); Goto(b)`.
    IIncGoto,
    /// `Load x; Load a` — two pushes, one dispatch.
    LoadLoad,
    /// `Load x; DsmCheckRead{depth: t, kind: a}` — `b` carries the
    /// precomputed check cost (`c` is the load's generic cost).
    LoadCheckRead,
    /// `DsmCheckRead{depth: 0, kind: a}; GetFieldQ{slot: x, kind: t}` —
    /// `c` is the check cost; the field access is always cache-cold
    /// because the check clears the repeated-access cache.
    CheckGetField,
    /// `Load x; DsmCheckRead{depth: 0, kind: t>>4}; GetFieldQ{slot: b,
    /// kind: t&0xf}` — the Figure-3 hot path as one op. `c` is the load's
    /// generic cost, `a` the check cost.
    LoadCheckGetField,
    /// `DsmCheckRead{depth: 1, kind: Array}; ALoad(t)` — `c` is the check
    /// cost.
    CheckALoad,
    /// `DsmCheckWrite{depth: 1, kind: a}; PutFieldQ{slot: x, kind: t}` —
    /// `c` is the check cost.
    CheckWPutField,
    /// `DsmCheckWrite{depth: 2, kind: Array}; AStore(t)` — `c` is the
    /// check cost.
    CheckWAStore,
}

/// One predecoded instruction; see the module docs for the field layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    pub op: MOp,
    /// Tiny operand: access kind, element type, comparison, check depth or
    /// flag, depending on `op`.
    pub t: u8,
    /// Short operand: local slot, field slot, signature id or arg count.
    pub x: u16,
    /// Precomputed static virtual-time cost in picoseconds.
    pub c: u32,
    /// Wide operand: branch target, class/method id, constant bits (lo).
    pub a: u32,
    /// Second wide operand: constant bits (hi), fused-goto target.
    pub b: u32,
}

impl MicroOp {
    fn new(op: MOp) -> MicroOp {
        MicroOp { op, t: 0, x: 0, c: 0, a: 0, b: 0 }
    }
}

/// A predecoded method body (empty for natives).
#[derive(Debug, Clone, Default)]
pub struct PMethod {
    pub ops: Vec<MicroOp>,
}

/// All method bodies of an [`Image`], predecoded against one [`CostModel`].
#[derive(Debug)]
pub struct PImage {
    pub methods: Vec<PMethod>,
    /// String side pool: literals for `LdcStr`, messages for `Unquick`.
    pub strings: Vec<Arc<str>>,
    /// Value side pool for `ConstV`.
    pub values: Vec<Value>,
    /// Superinstructions formed across the image (observability/tests).
    pub fused: u64,
}

// ---- tiny-operand encodings ----

fn kind_code(k: AccessKind) -> u8 {
    match k {
        AccessKind::Field => 0,
        AccessKind::Static => 1,
        AccessKind::Array => 2,
    }
}

fn kind_from(t: u8) -> AccessKind {
    match t {
        0 => AccessKind::Field,
        1 => AccessKind::Static,
        _ => AccessKind::Array,
    }
}

fn elem_code(e: ElemTy) -> u8 {
    match e {
        ElemTy::I32 => 0,
        ElemTy::I64 => 1,
        ElemTy::F64 => 2,
        ElemTy::Ref => 3,
    }
}

fn elem_from(t: u8) -> ElemTy {
    match t {
        0 => ElemTy::I32,
        1 => ElemTy::I64,
        2 => ElemTy::F64,
        _ => ElemTy::Ref,
    }
}

fn cmp_code(c: Cmp) -> u8 {
    match c {
        Cmp::Eq => 0,
        Cmp::Ne => 1,
        Cmp::Lt => 2,
        Cmp::Le => 3,
        Cmp::Gt => 4,
        Cmp::Ge => 5,
    }
}

fn cmp_from(t: u8) -> Cmp {
    match t {
        0 => Cmp::Eq,
        1 => Cmp::Ne,
        2 => Cmp::Lt,
        3 => Cmp::Le,
        4 => Cmp::Gt,
        _ => Cmp::Ge,
    }
}

fn split_u64(v: u64) -> (u32, u32) {
    (v as u32, (v >> 32) as u32)
}

fn join_u64(a: u32, b: u32) -> u64 {
    a as u64 | ((b as u64) << 32)
}

// ---- predecode ----

struct Pools {
    strings: Vec<Arc<str>>,
    values: Vec<Value>,
    seen: HashMap<Arc<str>, u32>,
}

impl Pools {
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&i) = self.seen.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.clone());
        self.seen.insert(s.clone(), i);
        i
    }

    fn intern_owned(&mut self, s: String) -> u32 {
        self.intern(&Arc::from(s.as_str()))
    }
}

/// Lower one quickened instruction into its micro-op. Total: every `Instr`
/// has a lowering, with symbolic leftovers mapping to [`MOp::Unquick`].
fn lower(ins: &Instr, image: &Image, model: &CostModel, pools: &mut Pools) -> MicroOp {
    let mut m;
    match ins {
        Instr::Const(v) => match v {
            Value::I32(i) => {
                m = MicroOp::new(MOp::ConstI32);
                m.a = *i as u32;
            }
            Value::I64(i) => {
                m = MicroOp::new(MOp::ConstI64);
                (m.a, m.b) = split_u64(*i as u64);
            }
            Value::F64(f) => {
                m = MicroOp::new(MOp::ConstF64);
                (m.a, m.b) = split_u64(f.to_bits());
            }
            Value::Null => m = MicroOp::new(MOp::ConstNull),
            Value::Ref(_) => {
                // Builders cannot embed heap references, but the lowering
                // stays total: park the value in the side pool.
                m = MicroOp::new(MOp::ConstV);
                m.a = pools.values.len() as u32;
                pools.values.push(*v);
            }
        },
        Instr::LdcStr(s) => {
            m = MicroOp::new(MOp::LdcStr);
            m.a = pools.intern(s);
            m.c = model.alloc as u32;
        }
        Instr::Dup => m = MicroOp::new(MOp::Dup),
        Instr::DupX1 => m = MicroOp::new(MOp::DupX1),
        Instr::Pop => m = MicroOp::new(MOp::PopV),
        Instr::Swap => m = MicroOp::new(MOp::SwapV),
        Instr::Load(n) => {
            m = MicroOp::new(MOp::Load);
            m.x = *n;
        }
        Instr::Store(n) => {
            m = MicroOp::new(MOp::Store);
            m.x = *n;
        }
        Instr::IInc(n, d) => {
            m = MicroOp::new(MOp::IInc);
            m.x = *n;
            m.a = *d as u32;
        }
        Instr::IAdd => m = MicroOp::new(MOp::IAdd),
        Instr::ISub => m = MicroOp::new(MOp::ISub),
        Instr::IMul => m = MicroOp::new(MOp::IMul),
        Instr::IDiv => m = MicroOp::new(MOp::IDiv),
        Instr::IRem => m = MicroOp::new(MOp::IRem),
        Instr::INeg => m = MicroOp::new(MOp::INeg),
        Instr::IShl => m = MicroOp::new(MOp::IShl),
        Instr::IShr => m = MicroOp::new(MOp::IShr),
        Instr::IUShr => m = MicroOp::new(MOp::IUShr),
        Instr::IAnd => m = MicroOp::new(MOp::IAnd),
        Instr::IOr => m = MicroOp::new(MOp::IOr),
        Instr::IXor => m = MicroOp::new(MOp::IXor),
        Instr::LAdd => m = MicroOp::new(MOp::LAdd),
        Instr::LSub => m = MicroOp::new(MOp::LSub),
        Instr::LMul => m = MicroOp::new(MOp::LMul),
        Instr::LDiv => m = MicroOp::new(MOp::LDiv),
        Instr::LRem => m = MicroOp::new(MOp::LRem),
        Instr::LNeg => m = MicroOp::new(MOp::LNeg),
        Instr::DAdd => m = MicroOp::new(MOp::DAdd),
        Instr::DSub => m = MicroOp::new(MOp::DSub),
        Instr::DMul => m = MicroOp::new(MOp::DMul),
        Instr::DDiv => m = MicroOp::new(MOp::DDiv),
        Instr::DRem => m = MicroOp::new(MOp::DRem),
        Instr::DNeg => m = MicroOp::new(MOp::DNeg),
        Instr::I2L => m = MicroOp::new(MOp::I2L),
        Instr::I2D => m = MicroOp::new(MOp::I2D),
        Instr::L2I => m = MicroOp::new(MOp::L2I),
        Instr::L2D => m = MicroOp::new(MOp::L2D),
        Instr::D2I => m = MicroOp::new(MOp::D2I),
        Instr::D2L => m = MicroOp::new(MOp::D2L),
        Instr::LCmp => m = MicroOp::new(MOp::LCmp),
        Instr::DCmp => m = MicroOp::new(MOp::DCmp),
        Instr::Goto(t) => {
            m = MicroOp::new(MOp::Goto);
            m.a = *t as u32;
        }
        Instr::IfICmp(c, t) => {
            m = MicroOp::new(MOp::IfICmp);
            m.t = cmp_code(*c);
            m.a = *t as u32;
        }
        Instr::IfI(c, t) => {
            m = MicroOp::new(MOp::IfI);
            m.t = cmp_code(*c);
            m.a = *t as u32;
        }
        Instr::IfNull(t) => {
            m = MicroOp::new(MOp::IfNull);
            m.a = *t as u32;
        }
        Instr::IfNonNull(t) => {
            m = MicroOp::new(MOp::IfNonNull);
            m.a = *t as u32;
        }
        Instr::IfACmpEq(t) => {
            m = MicroOp::new(MOp::IfACmpEq);
            m.a = *t as u32;
        }
        Instr::IfACmpNe(t) => {
            m = MicroOp::new(MOp::IfACmpNe);
            m.a = *t as u32;
        }
        Instr::NewQ(cid) => {
            m = MicroOp::new(MOp::NewObj);
            m.a = cid.0;
            let nfields = image.class(*cid).field_tys.len() as u64;
            m.c = (model.alloc + model.alloc_per_byte * (nfields * 8)) as u32;
        }
        Instr::NewArray(e) => {
            m = MicroOp::new(MOp::NewArr);
            m.t = elem_code(*e);
        }
        Instr::ArrayLen => m = MicroOp::new(MOp::ArrLen),
        Instr::GetFieldQ { slot, kind_cost } => {
            m = MicroOp::new(MOp::GetField);
            m.x = *slot;
            m.t = kind_code(*kind_cost);
        }
        Instr::PutFieldQ { slot, kind_cost } => {
            m = MicroOp::new(MOp::PutField);
            m.x = *slot;
            m.t = kind_code(*kind_cost);
        }
        Instr::GetStaticQ { class, slot, free } => {
            m = MicroOp::new(MOp::GetStatic);
            m.a = class.0;
            m.x = *slot;
            m.t = *free as u8;
        }
        Instr::PutStaticQ { class, slot } => {
            m = MicroOp::new(MOp::PutStatic);
            m.a = class.0;
            m.x = *slot;
        }
        Instr::ALoad(e) => {
            m = MicroOp::new(MOp::ALoad);
            m.t = elem_code(*e);
        }
        Instr::AStore(e) => {
            m = MicroOp::new(MOp::AStore);
            m.t = elem_code(*e);
        }
        Instr::DsmCheckRead { depth, kind } => {
            m = MicroOp::new(MOp::CheckRead);
            m.t = *depth;
            m.x = kind_code(*kind) as u16;
            m.c = model.access_cost(*kind, Rw::Read).check() as u32;
        }
        Instr::DsmCheckWrite { depth, kind } => {
            m = MicroOp::new(MOp::CheckWrite);
            m.t = *depth;
            m.x = kind_code(*kind) as u16;
            m.c = model.access_cost(*kind, Rw::Write).check() as u32;
        }
        Instr::MonitorEnter => m = MicroOp::new(MOp::MonEnter),
        Instr::MonitorExit => m = MicroOp::new(MOp::MonExit),
        Instr::DsmMonitorEnter => m = MicroOp::new(MOp::DsmMonEnter),
        Instr::DsmMonitorExit => m = MicroOp::new(MOp::DsmMonExit),
        Instr::DsmVolatileAcquire { depth } => {
            m = MicroOp::new(MOp::VolAcquire);
            m.t = *depth;
        }
        Instr::DsmVolatileRelease => m = MicroOp::new(MOp::VolRelease),
        Instr::DsmSpawn => m = MicroOp::new(MOp::SpawnDsm),
        Instr::InvokeStaticQ(mid) | Instr::InvokeSpecialQ(mid) => {
            m = MicroOp::new(if matches!(ins, Instr::InvokeStaticQ(_)) {
                MOp::CallStatic
            } else {
                MOp::CallSpecial
            });
            m.a = mid.0;
            let callee = image.method(*mid);
            let nargs = callee.sig.nargs() + if callee.is_static { 0 } else { 1 };
            m.x = nargs as u16;
            m.c = (model.invoke + model.invoke_per_arg * nargs as u64) as u32;
        }
        Instr::InvokeVirtualQ { sig, nargs, ret: _, site } => {
            m = MicroOp::new(MOp::CallVirtual);
            m.x = sig.0;
            m.t = *nargs;
            m.a = *site;
            m.c = (model.invoke + model.invoke_per_arg * (*nargs as u64 + 1)) as u32;
        }
        Instr::Return => m = MicroOp::new(MOp::Ret),
        Instr::ReturnVal => m = MicroOp::new(MOp::RetVal),
        Instr::Nop => m = MicroOp::new(MOp::Nop),
        sym @ (Instr::New(_)
        | Instr::GetField(..)
        | Instr::PutField(..)
        | Instr::GetStatic(..)
        | Instr::PutStatic(..)
        | Instr::InvokeStatic(..)
        | Instr::InvokeVirtual(_)
        | Instr::InvokeSpecial(..)) => {
            m = MicroOp::new(MOp::Unquick);
            m.a = pools.intern_owned(format!("{sym:?}"));
        }
    }
    // Every cost not set explicitly above is the instruction's static cost
    // (generic_op, generic_op/2 for Nop, 0 for dynamic-cost ops).
    if m.c == 0 {
        m.c = model.static_cost(ins) as u32;
    }
    m
}

/// Try to fuse the pair starting at `i`; the fused op carries both
/// components' operands and replaces slot `i` only (slot `i+1` keeps the
/// plain second component as the quantum-boundary landing pad).
///
/// The DSM-check pairs mirror the rewriter's four insertion shapes
/// (`checks.rs`): read depth 0 before getfield, read depth 1 before
/// aload, write depth 1 before putfield, write depth 2 before astore.
/// Under the JavaSplit configuration those chains dominate the dynamic
/// pair profile (`repro opstats`), and the check's clearing of the
/// repeated-access cache makes the fused access deterministically
/// cache-cold — so its dynamic cost is the same as the classic two-step
/// sequence.
fn fuse(a: &Instr, b: &Instr, model: &CostModel) -> Option<MicroOp> {
    let mut m;
    match (a, b) {
        (Instr::Load(n), Instr::GetFieldQ { slot, kind_cost }) => {
            m = MicroOp::new(MOp::LoadGetField);
            m.x = *n;
            m.a = *slot as u32;
            m.t = kind_code(*kind_cost);
        }
        (Instr::Load(n), Instr::ArrayLen) => {
            m = MicroOp::new(MOp::LoadArrLen);
            m.x = *n;
        }
        (Instr::Load(n), Instr::ALoad(e)) => {
            m = MicroOp::new(MOp::LoadALoad);
            m.x = *n;
            m.t = elem_code(*e);
        }
        (Instr::LCmp, Instr::IfI(c, t)) => {
            m = MicroOp::new(MOp::LCmpIfI);
            m.t = cmp_code(*c);
            m.a = *t as u32;
        }
        (Instr::DCmp, Instr::IfI(c, t)) => {
            m = MicroOp::new(MOp::DCmpIfI);
            m.t = cmp_code(*c);
            m.a = *t as u32;
        }
        (Instr::IInc(n, d), Instr::Goto(t)) => {
            m = MicroOp::new(MOp::IIncGoto);
            m.x = *n;
            m.a = *d as u32;
            m.b = *t as u32;
        }
        (Instr::Load(n1), Instr::Load(n2)) => {
            m = MicroOp::new(MOp::LoadLoad);
            m.x = *n1;
            m.a = *n2 as u32;
        }
        (Instr::Load(n), Instr::DsmCheckRead { depth, kind }) => {
            m = MicroOp::new(MOp::LoadCheckRead);
            m.x = *n;
            m.t = *depth;
            m.a = kind_code(*kind) as u32;
            m.b = model.access_cost(*kind, Rw::Read).check() as u32;
        }
        (Instr::DsmCheckRead { depth: 0, kind }, Instr::GetFieldQ { slot, kind_cost }) => {
            m = MicroOp::new(MOp::CheckGetField);
            m.x = *slot;
            m.t = kind_code(*kind_cost);
            m.a = kind_code(*kind) as u32;
            m.c = model.access_cost(*kind, Rw::Read).check() as u32;
        }
        (Instr::DsmCheckRead { depth: 1, kind: AccessKind::Array }, Instr::ALoad(e)) => {
            m = MicroOp::new(MOp::CheckALoad);
            m.t = elem_code(*e);
            m.c = model.access_cost(AccessKind::Array, Rw::Read).check() as u32;
        }
        (Instr::DsmCheckWrite { depth: 1, kind }, Instr::PutFieldQ { slot, kind_cost }) => {
            m = MicroOp::new(MOp::CheckWPutField);
            m.x = *slot;
            m.t = kind_code(*kind_cost);
            m.a = kind_code(*kind) as u32;
            m.c = model.access_cost(*kind, Rw::Write).check() as u32;
        }
        (Instr::DsmCheckWrite { depth: 2, kind: AccessKind::Array }, Instr::AStore(e)) => {
            m = MicroOp::new(MOp::CheckWAStore);
            m.t = elem_code(*e);
            m.c = model.access_cost(AccessKind::Array, Rw::Write).check() as u32;
        }
        _ => return None,
    }
    // Arms that didn't pin a cost above are pairs of generic-cost ops: one
    // `c` serves both retirements (check costs are always nonzero).
    if m.c == 0 {
        m.c = model.generic_op as u32;
    }
    Some(m)
}

/// Try to fuse the *triple* starting at `i` — the rewriter's complete
/// Figure-3 read path `load obj; check_read; getfield`. Tried before the
/// pair fuser; slots `i+1`/`i+2` keep the plain check and getfield as
/// landing pads (and `i+1` usually re-fuses into [`MOp::CheckGetField`]).
fn fuse3(a: &Instr, b: &Instr, c: &Instr, model: &CostModel) -> Option<MicroOp> {
    match (a, b, c) {
        (
            Instr::Load(n),
            Instr::DsmCheckRead { depth: 0, kind },
            Instr::GetFieldQ { slot, kind_cost },
        ) => {
            let mut m = MicroOp::new(MOp::LoadCheckGetField);
            m.x = *n;
            m.t = kind_code(*kind_cost) | (kind_code(*kind) << 4);
            m.a = model.access_cost(*kind, Rw::Read).check() as u32;
            m.b = *slot as u32;
            m.c = model.generic_op as u32;
            Some(m)
        }
        _ => None,
    }
}

/// Predecode every method body of `image` against `model`.
pub fn predecode(image: &Image, model: &CostModel) -> PImage {
    let mut pools = Pools { strings: Vec::new(), values: Vec::new(), seen: HashMap::new() };
    let mut fused = 0u64;
    let methods = image
        .methods
        .iter()
        .map(|rm| {
            let mut ops: Vec<MicroOp> =
                rm.code.iter().map(|ins| lower(ins, image, model, &mut pools)).collect();
            // Indexes both `rm.code` (windows of 2–3) and `ops` (write at i),
            // which the iterator form can't express.
            #[allow(clippy::needless_range_loop)]
            for i in 0..rm.code.len().saturating_sub(1) {
                if i + 2 < rm.code.len() {
                    if let Some(f) = fuse3(&rm.code[i], &rm.code[i + 1], &rm.code[i + 2], model) {
                        ops[i] = f;
                        fused += 1;
                        continue;
                    }
                }
                if let Some(f) = fuse(&rm.code[i], &rm.code[i + 1], model) {
                    ops[i] = f;
                    fused += 1;
                }
            }
            PMethod { ops }
        })
        .collect();
    PImage { methods, strings: pools.strings, values: pools.values, fused }
}

// ---- the direct-threaded executor ----

/// Run `thread` for up to `fuel` instructions over the predecoded image.
///
/// Observationally identical to [`crate::interp::step`], but decode-free:
/// one dispatch loop over 16-byte micro-ops, with the current frame
/// re-borrowed per iteration. The per-iteration borrow is what keeps
/// *every* op — including the environment ops that need whole-thread
/// access (DSM checks, monitors, invokes) — inside the same loop: an arm
/// simply stops using `frame` before it touches `thread`, so the hot
/// Figure-3 path (check hits, cached accesses) never pays a loop-exit or
/// re-entry. Only arms that change the frame stack (calls, returns) jump
/// back to `'quantum` to re-pin the method and code slice.
pub fn step<E: VmEnv>(
    thread: &mut Thread,
    ctx: &mut StepCtx<'_, E>,
    pim: &PImage,
    fuel: u32,
) -> Result<StepOutcome, VmError> {
    let fuel = fuel as u64;
    let mut cost: u64 = 0;
    let mut ops: u64 = 0;
    let model = ctx.cost;
    let image = ctx.image;

    'quantum: loop {
        if ops >= fuel {
            return Ok(StepOutcome { state: StepState::Running, cost, ops });
        }

        // --- synchronized-method entry protocol ---
        {
            let frame = match thread.frames.last_mut() {
                Some(f) => f,
                None => return Ok(StepOutcome { state: StepState::Done, cost, ops }),
            };
            if !frame.entered_monitor {
                let recv = frame.locals[0].as_ref();
                match ctx.env.monitor_enter(ctx.heap, thread, recv) {
                    MonOutcome::Entered { cost: c } => {
                        cost += c;
                        thread.frames.last_mut().unwrap().entered_monitor = true;
                    }
                    MonOutcome::Blocked { cost: c } => {
                        cost += c;
                        return Ok(StepOutcome { state: StepState::Blocked, cost, ops });
                    }
                }
            }
        }

        let frame_idx = thread.frames.len() - 1;
        let method_id = thread.frames[frame_idx].method;
        let method = image.method(method_id);
        let code: &[MicroOp] = &pim.methods[method_id.0 as usize].ops;

        // The inline access cache lives in a local while this frame runs
        // and is written back to the thread wherever control can leave
        // this function or reach the environment.
        let mut last_access = thread.last_access;

        {
            loop {
                if ops >= fuel {
                    thread.last_access = last_access;
                    return Ok(StepOutcome { state: StepState::Running, cost, ops });
                }
                let frame: &mut Frame = &mut thread.frames[frame_idx];
                let pc = frame.pc;
                let Some(&op) = code.get(pc) else {
                    // Fell off the end of a void method: implicit return,
                    // no op retired.
                    thread.last_access = last_access;
                    if pop_frame(thread, ctx, None, &mut cost)? {
                        return Ok(StepOutcome { state: StepState::Done, cost, ops });
                    }
                    continue 'quantum;
                };
                macro_rules! fpop {
                    () => {
                        match frame.stack.pop() {
                            Some(v) => v,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc: frame.pc,
                                })
                            }
                        }
                    };
                }
                macro_rules! binop_i32 {
                    ($f:expr) => {{
                        let b = fpop!().as_i32();
                        let a = fpop!().as_i32();
                        frame.stack.push(Value::I32($f(a, b)));
                        frame.pc += 1;
                    }};
                }
                macro_rules! binop_i64 {
                    ($f:expr) => {{
                        let b = fpop!().as_i64();
                        let a = fpop!().as_i64();
                        frame.stack.push(Value::I64($f(a, b)));
                        frame.pc += 1;
                    }};
                }
                macro_rules! binop_f64 {
                    ($f:expr) => {{
                        let b = fpop!().as_f64();
                        let a = fpop!().as_f64();
                        frame.stack.push(Value::F64($f(a, b)));
                        frame.pc += 1;
                    }};
                }
                // Like `fpop!` but against an explicit frame borrow (the
                // check-fused arms re-borrow the frame after the env call)
                // and an explicit component pc for the error report.
                macro_rules! vpop {
                    ($f:expr, $pc:expr) => {
                        match $f.stack.pop() {
                            Some(v) => v,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc: $pc,
                                })
                            }
                        }
                    };
                }
                macro_rules! nonnull {
                    ($v:expr, $pc:expr) => {
                        match $v.as_opt_ref() {
                            Some(r) => r,
                            None => {
                                return Err(VmError::NullDeref {
                                    method: method.sig.to_string(),
                                    pc: $pc,
                                })
                            }
                        }
                    };
                }

                // Retire the op: count it and charge its precomputed static
                // cost (dynamic components are added per-arm below), exactly
                // like the classic `ops += 1; cost += static_cost(ins)`.
                macro_rules! charge {
                    () => {
                        ops += 1;
                        cost += op.c as u64;
                    };
                }
                match op.op {
                    // ---- environment ops: the arm reads what it needs
                    // from `frame`, lets that borrow lapse, and hands the
                    // whole thread to the environment — no loop exit. ----
                    MOp::CheckRead | MOp::CheckWrite => {
                        charge!();
                        let is_write = matches!(op.op, MOp::CheckWrite);
                        let slot = match frame.stack.len().checked_sub(1 + op.t as usize) {
                            Some(s) => s,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc,
                                })
                            }
                        };
                        let obj = nonnull!(frame.stack[slot], pc);
                        let kind = kind_from(op.x as u8);
                        // Element index (just above the array ref) for
                        // array accesses — region-granular checks need it.
                        let idx = if matches!(kind, AccessKind::Array) && op.t >= 1 {
                            match frame.stack[slot + 1] {
                                Value::I32(i) => Some(i),
                                _ => None,
                            }
                        } else {
                            None
                        };
                        // The check defeats the repeated-access optimization.
                        last_access = NO_ACCESS;
                        thread.last_access = NO_ACCESS;
                        let outcome = if is_write {
                            ctx.env.check_write(ctx.heap, thread, obj, kind, idx)
                        } else {
                            ctx.env.check_read(ctx.heap, thread, obj, kind, idx)
                        };
                        match outcome {
                            CheckOutcome::Proceed => thread.frames[frame_idx].pc = pc + 1,
                            CheckOutcome::Miss => {
                                return Ok(StepOutcome { state: StepState::Blocked, cost, ops })
                            }
                        }
                    }

                    MOp::MonEnter | MOp::DsmMonEnter => {
                        charge!();
                        let dsm = matches!(op.op, MOp::DsmMonEnter);
                        let top = match frame.stack.last() {
                            Some(&v) => v,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc,
                                })
                            }
                        };
                        let obj = nonnull!(top, pc);
                        thread.last_access = last_access;
                        let out = if dsm {
                            ctx.env.dsm_monitor_enter(ctx.heap, thread, obj)
                        } else {
                            ctx.env.monitor_enter(ctx.heap, thread, obj)
                        };
                        match out {
                            MonOutcome::Entered { cost: c } => {
                                cost += c;
                                let f = &mut thread.frames[frame_idx];
                                f.stack.pop();
                                f.pc = pc + 1;
                            }
                            MonOutcome::Blocked { cost: c } => {
                                cost += c;
                                return Ok(StepOutcome { state: StepState::Blocked, cost, ops });
                            }
                        }
                    }
                    MOp::MonExit | MOp::DsmMonExit => {
                        charge!();
                        let dsm = matches!(op.op, MOp::DsmMonExit);
                        let obj = nonnull!(fpop!(), pc);
                        thread.last_access = last_access;
                        let c = if dsm {
                            ctx.env.dsm_monitor_exit(ctx.heap, thread, obj)?
                        } else {
                            ctx.env.monitor_exit(ctx.heap, thread, obj)?
                        };
                        cost += c;
                        thread.frames[frame_idx].pc = pc + 1;
                    }
                    MOp::VolAcquire => {
                        charge!();
                        let slot = match frame.stack.len().checked_sub(1 + op.t as usize) {
                            Some(s) => s,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc,
                                })
                            }
                        };
                        let obj = nonnull!(frame.stack[slot], pc);
                        thread.last_access = last_access;
                        match ctx.env.volatile_acquire(ctx.heap, thread, obj) {
                            MonOutcome::Entered { cost: c } => {
                                cost += c;
                                let f = &mut thread.frames[frame_idx];
                                f.vol_stack.push(obj);
                                f.pc = pc + 1;
                            }
                            MonOutcome::Blocked { cost: c } => {
                                cost += c;
                                return Ok(StepOutcome { state: StepState::Blocked, cost, ops });
                            }
                        }
                    }
                    MOp::VolRelease => {
                        charge!();
                        let obj = match frame.vol_stack.pop() {
                            Some(o) => o,
                            None => return Err(VmError::VolatileStackEmpty),
                        };
                        thread.last_access = last_access;
                        cost += ctx.env.volatile_release(ctx.heap, thread, obj)?;
                        thread.frames[frame_idx].pc = pc + 1;
                    }
                    MOp::SpawnDsm => {
                        charge!();
                        let tobj = nonnull!(fpop!(), pc);
                        frame.pc = pc + 1;
                        thread.last_access = last_access;
                        cost += ctx.env.spawn(ctx.heap, thread, tobj, true)?;
                    }

                    // ---- frame-stack ops: handled here, then back to
                    // `'quantum` to re-pin method and code. ----
                    MOp::CallStatic | MOp::CallSpecial => {
                        charge!();
                        let mid = MethodId(op.a);
                        let callee = image.method(mid);
                        let nargs = op.x as usize;
                        if frame.stack.len() < nargs {
                            return Err(VmError::StackUnderflow {
                                method: method.sig.to_string(),
                                pc,
                            });
                        }
                        let args: Vec<Value> = frame.stack.split_off(frame.stack.len() - nargs);
                        frame.pc = pc + 1;
                        thread.last_access = last_access;
                        if let Some(native) = callee.native {
                            match run_native(native, args, thread, ctx, frame_idx, &mut cost)? {
                                NativeFlow::Continue => {}
                                NativeFlow::Block => {
                                    return Ok(StepOutcome {
                                        state: StepState::Blocked,
                                        cost,
                                        ops,
                                    })
                                }
                                NativeFlow::EndQuantum => {
                                    return Ok(StepOutcome {
                                        state: StepState::Running,
                                        cost,
                                        ops,
                                    })
                                }
                            }
                        } else {
                            if !callee.is_static && args[0].is_null() {
                                return Err(VmError::NullDeref {
                                    method: callee.sig.to_string(),
                                    pc,
                                });
                            }
                            let f = Frame::new(mid, callee.max_locals, args, callee.is_synchronized);
                            thread.frames.push(f);
                        }
                        continue 'quantum;
                    }
                    MOp::CallVirtual => {
                        charge!();
                        let total = op.t as usize + 1;
                        if frame.stack.len() < total {
                            return Err(VmError::StackUnderflow {
                                method: method.sig.to_string(),
                                pc,
                            });
                        }
                        let recv_slot = frame.stack.len() - total;
                        let recv = nonnull!(frame.stack[recv_slot], pc);
                        let args: Vec<Value> = frame.stack.split_off(recv_slot);
                        frame.pc = pc + 1;
                        let cls = ctx.heap.get(recv).class;
                        let mid = match image.dispatch_cached(op.a, cls, SigId(op.x)) {
                            Some(m) => m,
                            None => {
                                return Err(VmError::NoSuchMethod(format!(
                                    "{}.{}",
                                    image.class(cls).name,
                                    image.sigs[op.x as usize]
                                )))
                            }
                        };
                        let callee = image.method(mid);
                        thread.last_access = last_access;
                        if let Some(native) = callee.native {
                            match run_native(native, args, thread, ctx, frame_idx, &mut cost)? {
                                NativeFlow::Continue => {}
                                NativeFlow::Block => {
                                    return Ok(StepOutcome {
                                        state: StepState::Blocked,
                                        cost,
                                        ops,
                                    })
                                }
                                NativeFlow::EndQuantum => {
                                    return Ok(StepOutcome {
                                        state: StepState::Running,
                                        cost,
                                        ops,
                                    })
                                }
                            }
                        } else {
                            let f = Frame::new(mid, callee.max_locals, args, callee.is_synchronized);
                            thread.frames.push(f);
                        }
                        continue 'quantum;
                    }

                    MOp::Ret => {
                        charge!();
                        thread.last_access = last_access;
                        if pop_frame(thread, ctx, None, &mut cost)? {
                            return Ok(StepOutcome { state: StepState::Done, cost, ops });
                        }
                        continue 'quantum;
                    }
                    MOp::RetVal => {
                        charge!();
                        let v = fpop!();
                        thread.last_access = last_access;
                        if pop_frame(thread, ctx, Some(v), &mut cost)? {
                            return Ok(StepOutcome { state: StepState::Done, cost, ops });
                        }
                        continue 'quantum;
                    }

                    MOp::ConstI32 => {
                        charge!();
                        frame.stack.push(Value::I32(op.a as i32));
                        frame.pc = pc + 1;
                    }
                    MOp::ConstI64 => {
                        charge!();
                        frame.stack.push(Value::I64(join_u64(op.a, op.b) as i64));
                        frame.pc = pc + 1;
                    }
                    MOp::ConstF64 => {
                        charge!();
                        frame.stack.push(Value::F64(f64::from_bits(join_u64(op.a, op.b))));
                        frame.pc = pc + 1;
                    }
                    MOp::ConstNull => {
                        charge!();
                        frame.stack.push(Value::Null);
                        frame.pc = pc + 1;
                    }
                    MOp::ConstV => {
                        charge!();
                        frame.stack.push(pim.values[op.a as usize]);
                        frame.pc = pc + 1;
                    }
                    MOp::LdcStr => {
                        charge!();
                        let r = ctx.heap.intern_str(image.string_class, &pim.strings[op.a as usize]);
                        frame.stack.push(Value::Ref(r));
                        frame.pc = pc + 1;
                    }
                    MOp::Dup => {
                        charge!();
                        let v = match frame.stack.last() {
                            Some(v) => *v,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc,
                                })
                            }
                        };
                        frame.stack.push(v);
                        frame.pc = pc + 1;
                    }
                    MOp::DupX1 => {
                        charge!();
                        let b = fpop!();
                        let a = fpop!();
                        frame.stack.push(b);
                        frame.stack.push(a);
                        frame.stack.push(b);
                        frame.pc = pc + 1;
                    }
                    MOp::PopV => {
                        charge!();
                        fpop!();
                        frame.pc = pc + 1;
                    }
                    MOp::SwapV => {
                        charge!();
                        let b = fpop!();
                        let a = fpop!();
                        frame.stack.push(b);
                        frame.stack.push(a);
                        frame.pc = pc + 1;
                    }
                    MOp::Load => {
                        charge!();
                        frame.stack.push(frame.locals[op.x as usize]);
                        frame.pc = pc + 1;
                    }
                    MOp::Store => {
                        charge!();
                        let v = fpop!();
                        frame.locals[op.x as usize] = v;
                        frame.pc = pc + 1;
                    }
                    MOp::IInc => {
                        charge!();
                        let v = frame.locals[op.x as usize].as_i32();
                        frame.locals[op.x as usize] = Value::I32(v.wrapping_add(op.a as i32));
                        frame.pc = pc + 1;
                    }

                    MOp::IAdd => {
                        charge!();
                        binop_i32!(i32::wrapping_add)
                    }
                    MOp::ISub => {
                        charge!();
                        binop_i32!(i32::wrapping_sub)
                    }
                    MOp::IMul => {
                        charge!();
                        binop_i32!(i32::wrapping_mul)
                    }
                    MOp::IDiv => {
                        charge!();
                        let b = fpop!().as_i32();
                        let a = fpop!().as_i32();
                        if b == 0 {
                            return Err(VmError::DivByZero { method: method.sig.to_string(), pc });
                        }
                        frame.stack.push(Value::I32(a.wrapping_div(b)));
                        frame.pc = pc + 1;
                    }
                    MOp::IRem => {
                        charge!();
                        let b = fpop!().as_i32();
                        let a = fpop!().as_i32();
                        if b == 0 {
                            return Err(VmError::DivByZero { method: method.sig.to_string(), pc });
                        }
                        frame.stack.push(Value::I32(a.wrapping_rem(b)));
                        frame.pc = pc + 1;
                    }
                    MOp::INeg => {
                        charge!();
                        let a = fpop!().as_i32();
                        frame.stack.push(Value::I32(a.wrapping_neg()));
                        frame.pc = pc + 1;
                    }
                    MOp::IShl => {
                        charge!();
                        binop_i32!(|a: i32, b: i32| a.wrapping_shl(b as u32 & 31))
                    }
                    MOp::IShr => {
                        charge!();
                        binop_i32!(|a: i32, b: i32| a.wrapping_shr(b as u32 & 31))
                    }
                    MOp::IUShr => {
                        charge!();
                        binop_i32!(|a: i32, b: i32| ((a as u32).wrapping_shr(b as u32 & 31))
                            as i32)
                    }
                    MOp::IAnd => {
                        charge!();
                        binop_i32!(|a, b| a & b)
                    }
                    MOp::IOr => {
                        charge!();
                        binop_i32!(|a, b| a | b)
                    }
                    MOp::IXor => {
                        charge!();
                        binop_i32!(|a, b| a ^ b)
                    }

                    MOp::LAdd => {
                        charge!();
                        binop_i64!(i64::wrapping_add)
                    }
                    MOp::LSub => {
                        charge!();
                        binop_i64!(i64::wrapping_sub)
                    }
                    MOp::LMul => {
                        charge!();
                        binop_i64!(i64::wrapping_mul)
                    }
                    MOp::LDiv => {
                        charge!();
                        let b = fpop!().as_i64();
                        let a = fpop!().as_i64();
                        if b == 0 {
                            return Err(VmError::DivByZero { method: method.sig.to_string(), pc });
                        }
                        frame.stack.push(Value::I64(a.wrapping_div(b)));
                        frame.pc = pc + 1;
                    }
                    MOp::LRem => {
                        charge!();
                        let b = fpop!().as_i64();
                        let a = fpop!().as_i64();
                        if b == 0 {
                            return Err(VmError::DivByZero { method: method.sig.to_string(), pc });
                        }
                        frame.stack.push(Value::I64(a.wrapping_rem(b)));
                        frame.pc = pc + 1;
                    }
                    MOp::LNeg => {
                        charge!();
                        let a = fpop!().as_i64();
                        frame.stack.push(Value::I64(a.wrapping_neg()));
                        frame.pc = pc + 1;
                    }

                    MOp::DAdd => {
                        charge!();
                        binop_f64!(|a: f64, b: f64| a + b)
                    }
                    MOp::DSub => {
                        charge!();
                        binop_f64!(|a: f64, b: f64| a - b)
                    }
                    MOp::DMul => {
                        charge!();
                        binop_f64!(|a: f64, b: f64| a * b)
                    }
                    MOp::DDiv => {
                        charge!();
                        binop_f64!(|a: f64, b: f64| a / b)
                    }
                    MOp::DRem => {
                        charge!();
                        binop_f64!(|a: f64, b: f64| a % b)
                    }
                    MOp::DNeg => {
                        charge!();
                        let a = fpop!().as_f64();
                        frame.stack.push(Value::F64(-a));
                        frame.pc = pc + 1;
                    }

                    MOp::I2L => {
                        charge!();
                        let a = fpop!().as_i32();
                        frame.stack.push(Value::I64(a as i64));
                        frame.pc = pc + 1;
                    }
                    MOp::I2D => {
                        charge!();
                        let a = fpop!().as_i32();
                        frame.stack.push(Value::F64(a as f64));
                        frame.pc = pc + 1;
                    }
                    MOp::L2I => {
                        charge!();
                        let a = fpop!().as_i64();
                        frame.stack.push(Value::I32(a as i32));
                        frame.pc = pc + 1;
                    }
                    MOp::L2D => {
                        charge!();
                        let a = fpop!().as_i64();
                        frame.stack.push(Value::F64(a as f64));
                        frame.pc = pc + 1;
                    }
                    MOp::D2I => {
                        charge!();
                        let a = fpop!().as_f64();
                        frame.stack.push(Value::I32(a as i32));
                        frame.pc = pc + 1;
                    }
                    MOp::D2L => {
                        charge!();
                        let a = fpop!().as_f64();
                        frame.stack.push(Value::I64(a as i64));
                        frame.pc = pc + 1;
                    }
                    MOp::LCmp => {
                        charge!();
                        let b = fpop!().as_i64();
                        let a = fpop!().as_i64();
                        frame.stack.push(Value::I32((a.cmp(&b)) as i32));
                        frame.pc = pc + 1;
                    }
                    MOp::DCmp => {
                        charge!();
                        let b = fpop!().as_f64();
                        let a = fpop!().as_f64();
                        frame.stack.push(Value::I32(dcmp(a, b)));
                        frame.pc = pc + 1;
                    }

                    MOp::Goto => {
                        charge!();
                        frame.pc = op.a as usize;
                    }
                    MOp::IfICmp => {
                        charge!();
                        let b = fpop!().as_i32();
                        let a = fpop!().as_i32();
                        frame.pc =
                            if cmp_from(op.t).eval_i32(a, b) { op.a as usize } else { pc + 1 };
                    }
                    MOp::IfI => {
                        charge!();
                        let a = fpop!().as_i32();
                        frame.pc =
                            if cmp_from(op.t).eval_i32(a, 0) { op.a as usize } else { pc + 1 };
                    }
                    MOp::IfNull => {
                        charge!();
                        let v = fpop!();
                        frame.pc = if v.is_null() { op.a as usize } else { pc + 1 };
                    }
                    MOp::IfNonNull => {
                        charge!();
                        let v = fpop!();
                        frame.pc = if v.is_null() { pc + 1 } else { op.a as usize };
                    }
                    MOp::IfACmpEq => {
                        charge!();
                        let b = fpop!();
                        let a = fpop!();
                        frame.pc = if a == b { op.a as usize } else { pc + 1 };
                    }
                    MOp::IfACmpNe => {
                        charge!();
                        let b = fpop!();
                        let a = fpop!();
                        frame.pc = if a == b { pc + 1 } else { op.a as usize };
                    }

                    MOp::NewObj => {
                        charge!();
                        let cid = ClassId(op.a);
                        let zeros = image.class(cid).zeroed_fields();
                        let r = ctx.heap.alloc_object(cid, zeros.len(), zeros);
                        frame.stack.push(Value::Ref(r));
                        frame.pc = pc + 1;
                    }
                    MOp::NewArr => {
                        charge!();
                        let len = fpop!().as_i32();
                        if len < 0 {
                            return Err(VmError::NegativeArraySize(len as i64));
                        }
                        let elem = elem_from(op.t);
                        let cls = image.array_class(elem);
                        cost += model.alloc + model.alloc_per_byte * (len as u64 * 8);
                        let r = ctx.heap.alloc_array(cls, elem, len as usize);
                        frame.stack.push(Value::Ref(r));
                        frame.pc = pc + 1;
                    }
                    MOp::ArrLen => {
                        charge!();
                        let r = nonnull!(fpop!(), pc);
                        let len = match ctx.heap.get(r).payload.array_len() {
                            Some(l) => l,
                            None => {
                                return Err(VmError::TypeMismatch(
                                    "arraylength on non-array".into(),
                                ))
                            }
                        };
                        frame.stack.push(Value::I32(len as i32));
                        frame.pc = pc + 1;
                    }

                    MOp::GetField => {
                        charge!();
                        let r = nonnull!(fpop!(), pc);
                        let kind = kind_from(op.t);
                        let key = access_key(kind, r.0, op.x as u32);
                        cost += model.access(kind, Rw::Read, cache_hit(&mut last_access, key));
                        let v = match &ctx.heap.get(r).payload {
                            ObjPayload::Fields(fs) => fs[op.x as usize],
                            _ => {
                                return Err(VmError::TypeMismatch("getfield on non-object".into()))
                            }
                        };
                        frame.stack.push(v);
                        frame.pc = pc + 1;
                    }
                    MOp::PutField => {
                        charge!();
                        let v = fpop!();
                        let r = nonnull!(fpop!(), pc);
                        let kind = kind_from(op.t);
                        let key = access_key(kind, r.0, op.x as u32);
                        cost += model.access(kind, Rw::Write, cache_hit(&mut last_access, key));
                        match &mut ctx.heap.get_mut(r).payload {
                            ObjPayload::Fields(fs) => fs[op.x as usize] = v,
                            _ => {
                                return Err(VmError::TypeMismatch("putfield on non-object".into()))
                            }
                        }
                        frame.pc = pc + 1;
                    }
                    MOp::GetStatic => {
                        charge!();
                        let class = ClassId(op.a);
                        if op.t == 0 {
                            let key = access_key(AccessKind::Static, op.a, op.x as u32);
                            cost += model.access(
                                AccessKind::Static,
                                Rw::Read,
                                cache_hit(&mut last_access, key),
                            );
                        }
                        frame.stack.push(ctx.heap.get_static(class, op.x));
                        frame.pc = pc + 1;
                    }
                    MOp::PutStatic => {
                        charge!();
                        let v = fpop!();
                        let key = access_key(AccessKind::Static, op.a, op.x as u32);
                        cost += model.access(
                            AccessKind::Static,
                            Rw::Write,
                            cache_hit(&mut last_access, key),
                        );
                        ctx.heap.set_static(ClassId(op.a), op.x, v);
                        frame.pc = pc + 1;
                    }
                    MOp::ALoad => {
                        charge!();
                        let idx = fpop!().as_i32();
                        let r = nonnull!(fpop!(), pc);
                        let key = access_key(AccessKind::Array, r.0, idx as u32);
                        cost +=
                            model.access(AccessKind::Array, Rw::Read, cache_hit(&mut last_access, key));
                        let v = array_load(ctx.heap, r, idx, elem_from(op.t))?;
                        frame.stack.push(v);
                        frame.pc = pc + 1;
                    }
                    MOp::AStore => {
                        charge!();
                        let v = fpop!();
                        let idx = fpop!().as_i32();
                        let r = nonnull!(fpop!(), pc);
                        let key = access_key(AccessKind::Array, r.0, idx as u32);
                        cost += model.access(
                            AccessKind::Array,
                            Rw::Write,
                            cache_hit(&mut last_access, key),
                        );
                        array_store(ctx.heap, r, idx, v, elem_from(op.t))?;
                        frame.pc = pc + 1;
                    }

                    MOp::Nop => {
                        charge!();
                        frame.pc = pc + 1;
                    }
                    MOp::Unquick => {
                        // Trap; the caller discards cost/ops on Err, so no
                        // charge is observable.
                        return Err(VmError::Unquickened(pim.strings[op.a as usize].to_string()));
                    }

                    // ---- superinstructions: components retire one at a
                    // time against the fuel counter, so quantum boundaries
                    // land exactly where the classic interpreter puts them
                    // (on the retained plain op at `pc + 1`). ----
                    MOp::LoadGetField => {
                        charge!(); // component 1: Load
                        if ops >= fuel {
                            frame.stack.push(frame.locals[op.x as usize]);
                            frame.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: GetField (static cost 0)
                        let r = nonnull!(frame.locals[op.x as usize], pc + 1);
                        let kind = kind_from(op.t);
                        let key = access_key(kind, r.0, op.a);
                        cost += model.access(kind, Rw::Read, cache_hit(&mut last_access, key));
                        let v = match &ctx.heap.get(r).payload {
                            ObjPayload::Fields(fs) => fs[op.a as usize],
                            _ => {
                                return Err(VmError::TypeMismatch("getfield on non-object".into()))
                            }
                        };
                        frame.stack.push(v);
                        frame.pc = pc + 2;
                    }
                    MOp::LoadArrLen => {
                        charge!(); // component 1: Load
                        if ops >= fuel {
                            frame.stack.push(frame.locals[op.x as usize]);
                            frame.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: ArrayLen (same generic cost)
                        cost += op.c as u64;
                        let r = nonnull!(frame.locals[op.x as usize], pc + 1);
                        let len = match ctx.heap.get(r).payload.array_len() {
                            Some(l) => l,
                            None => {
                                return Err(VmError::TypeMismatch(
                                    "arraylength on non-array".into(),
                                ))
                            }
                        };
                        frame.stack.push(Value::I32(len as i32));
                        frame.pc = pc + 2;
                    }
                    MOp::LoadALoad => {
                        charge!(); // component 1: Load (pushes the index)
                        if ops >= fuel {
                            frame.stack.push(frame.locals[op.x as usize]);
                            frame.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: ALoad (static cost 0)
                        let idx = frame.locals[op.x as usize].as_i32();
                        let r = match frame.stack.pop() {
                            Some(v) => nonnull!(v, pc + 1),
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc: pc + 1,
                                })
                            }
                        };
                        let key = access_key(AccessKind::Array, r.0, idx as u32);
                        cost +=
                            model.access(AccessKind::Array, Rw::Read, cache_hit(&mut last_access, key));
                        let v = array_load(ctx.heap, r, idx, elem_from(op.t))?;
                        frame.stack.push(v);
                        frame.pc = pc + 2;
                    }
                    MOp::LCmpIfI => {
                        charge!(); // component 1: LCmp
                        let b = fpop!().as_i64();
                        let a = fpop!().as_i64();
                        let cv = (a.cmp(&b)) as i32;
                        if ops >= fuel {
                            frame.stack.push(Value::I32(cv));
                            frame.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: IfI (same generic cost)
                        cost += op.c as u64;
                        frame.pc =
                            if cmp_from(op.t).eval_i32(cv, 0) { op.a as usize } else { pc + 2 };
                    }
                    MOp::DCmpIfI => {
                        charge!(); // component 1: DCmp
                        let b = fpop!().as_f64();
                        let a = fpop!().as_f64();
                        let cv = dcmp(a, b);
                        if ops >= fuel {
                            frame.stack.push(Value::I32(cv));
                            frame.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: IfI (same generic cost)
                        cost += op.c as u64;
                        frame.pc =
                            if cmp_from(op.t).eval_i32(cv, 0) { op.a as usize } else { pc + 2 };
                    }
                    MOp::IIncGoto => {
                        charge!(); // component 1: IInc
                        let v = frame.locals[op.x as usize].as_i32();
                        frame.locals[op.x as usize] = Value::I32(v.wrapping_add(op.a as i32));
                        if ops >= fuel {
                            frame.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: Goto (same generic cost)
                        cost += op.c as u64;
                        frame.pc = op.b as usize;
                    }

                    // ---- check-fused superinstructions: component 1 is a
                    // DSM access check (or a load feeding one). A Miss
                    // parks `pc` exactly where the classic interpreter
                    // would retry — the check's own slot — and the access
                    // component is always cache-cold because the check
                    // clears the repeated-access cache, so the dynamic
                    // cost matches the two-step sequence bit for bit. ----
                    MOp::LoadLoad => {
                        charge!(); // component 1: Load x
                        frame.stack.push(frame.locals[op.x as usize]);
                        if ops >= fuel {
                            frame.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: Load a (same generic cost)
                        cost += op.c as u64;
                        frame.stack.push(frame.locals[op.a as usize]);
                        frame.pc = pc + 2;
                    }
                    MOp::LoadCheckRead => {
                        charge!(); // component 1: Load (generic cost)
                        frame.stack.push(frame.locals[op.x as usize]);
                        if ops >= fuel {
                            frame.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: CheckRead (check cost in b)
                        cost += op.b as u64;
                        let slot = match frame.stack.len().checked_sub(1 + op.t as usize) {
                            Some(s) => s,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc: pc + 1,
                                })
                            }
                        };
                        let obj = nonnull!(frame.stack[slot], pc + 1);
                        let kind = kind_from(op.a as u8);
                        let idx = if matches!(kind, AccessKind::Array) && op.t >= 1 {
                            match frame.stack[slot + 1] {
                                Value::I32(i) => Some(i),
                                _ => None,
                            }
                        } else {
                            None
                        };
                        last_access = NO_ACCESS;
                        thread.last_access = NO_ACCESS;
                        match ctx.env.check_read(ctx.heap, thread, obj, kind, idx) {
                            CheckOutcome::Proceed => thread.frames[frame_idx].pc = pc + 2,
                            CheckOutcome::Miss => {
                                thread.frames[frame_idx].pc = pc + 1;
                                return Ok(StepOutcome { state: StepState::Blocked, cost, ops });
                            }
                        }
                    }
                    MOp::CheckGetField => {
                        charge!(); // component 1: CheckRead depth 0 (check cost)
                        let obj = match frame.stack.last() {
                            Some(&v) => nonnull!(v, pc),
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc,
                                })
                            }
                        };
                        last_access = NO_ACCESS;
                        thread.last_access = NO_ACCESS;
                        match ctx.env.check_read(ctx.heap, thread, obj, kind_from(op.a as u8), None)
                        {
                            CheckOutcome::Proceed => {}
                            CheckOutcome::Miss => {
                                return Ok(StepOutcome { state: StepState::Blocked, cost, ops })
                            }
                        }
                        let f = &mut thread.frames[frame_idx];
                        if ops >= fuel {
                            f.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: GetField (static cost 0, cache-cold)
                        let r = nonnull!(vpop!(f, pc + 1), pc + 1);
                        let kind = kind_from(op.t);
                        let key = access_key(kind, r.0, op.x as u32);
                        cost += model.access(kind, Rw::Read, cache_hit(&mut last_access, key));
                        let v = match &ctx.heap.get(r).payload {
                            ObjPayload::Fields(fs) => fs[op.x as usize],
                            _ => {
                                return Err(VmError::TypeMismatch("getfield on non-object".into()))
                            }
                        };
                        f.stack.push(v);
                        f.pc = pc + 2;
                    }
                    MOp::LoadCheckGetField => {
                        charge!(); // component 1: Load (generic cost)
                        if ops >= fuel {
                            frame.stack.push(frame.locals[op.x as usize]);
                            frame.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: CheckRead depth 0 (check cost in a)
                        cost += op.a as u64;
                        let obj = nonnull!(frame.locals[op.x as usize], pc + 1);
                        last_access = NO_ACCESS;
                        thread.last_access = NO_ACCESS;
                        match ctx.env.check_read(ctx.heap, thread, obj, kind_from(op.t >> 4), None)
                        {
                            CheckOutcome::Proceed => {}
                            CheckOutcome::Miss => {
                                let f = &mut thread.frames[frame_idx];
                                f.stack.push(f.locals[op.x as usize]);
                                f.pc = pc + 1;
                                return Ok(StepOutcome { state: StepState::Blocked, cost, ops });
                            }
                        }
                        let f = &mut thread.frames[frame_idx];
                        if ops >= fuel {
                            f.stack.push(f.locals[op.x as usize]);
                            f.pc = pc + 2;
                            continue;
                        }
                        ops += 1; // component 3: GetField (static cost 0, cache-cold)
                        let r = nonnull!(f.locals[op.x as usize], pc + 2);
                        let kind = kind_from(op.t & 0xf);
                        let key = access_key(kind, r.0, op.b);
                        cost += model.access(kind, Rw::Read, cache_hit(&mut last_access, key));
                        let v = match &ctx.heap.get(r).payload {
                            ObjPayload::Fields(fs) => fs[op.b as usize],
                            _ => {
                                return Err(VmError::TypeMismatch("getfield on non-object".into()))
                            }
                        };
                        f.stack.push(v);
                        f.pc = pc + 3;
                    }
                    MOp::CheckALoad => {
                        charge!(); // component 1: CheckRead depth 1 Array (check cost)
                        let slot = match frame.stack.len().checked_sub(2) {
                            Some(s) => s,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc,
                                })
                            }
                        };
                        let obj = nonnull!(frame.stack[slot], pc);
                        let cidx = match frame.stack[slot + 1] {
                            Value::I32(i) => Some(i),
                            _ => None,
                        };
                        last_access = NO_ACCESS;
                        thread.last_access = NO_ACCESS;
                        match ctx.env.check_read(ctx.heap, thread, obj, AccessKind::Array, cidx) {
                            CheckOutcome::Proceed => {}
                            CheckOutcome::Miss => {
                                return Ok(StepOutcome { state: StepState::Blocked, cost, ops })
                            }
                        }
                        let f = &mut thread.frames[frame_idx];
                        if ops >= fuel {
                            f.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: ALoad (static cost 0, cache-cold)
                        let idx = vpop!(f, pc + 1).as_i32();
                        let r = nonnull!(vpop!(f, pc + 1), pc + 1);
                        let key = access_key(AccessKind::Array, r.0, idx as u32);
                        cost += model.access(
                            AccessKind::Array,
                            Rw::Read,
                            cache_hit(&mut last_access, key),
                        );
                        let v = array_load(ctx.heap, r, idx, elem_from(op.t))?;
                        f.stack.push(v);
                        f.pc = pc + 2;
                    }
                    MOp::CheckWPutField => {
                        charge!(); // component 1: CheckWrite depth 1 (check cost)
                        let slot = match frame.stack.len().checked_sub(2) {
                            Some(s) => s,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc,
                                })
                            }
                        };
                        let obj = nonnull!(frame.stack[slot], pc);
                        let ckind = kind_from(op.a as u8);
                        let cidx = if matches!(ckind, AccessKind::Array) {
                            match frame.stack[slot + 1] {
                                Value::I32(i) => Some(i),
                                _ => None,
                            }
                        } else {
                            None
                        };
                        last_access = NO_ACCESS;
                        thread.last_access = NO_ACCESS;
                        match ctx.env.check_write(ctx.heap, thread, obj, ckind, cidx) {
                            CheckOutcome::Proceed => {}
                            CheckOutcome::Miss => {
                                return Ok(StepOutcome { state: StepState::Blocked, cost, ops })
                            }
                        }
                        let f = &mut thread.frames[frame_idx];
                        if ops >= fuel {
                            f.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: PutField (static cost 0, cache-cold)
                        let v = vpop!(f, pc + 1);
                        let r = nonnull!(vpop!(f, pc + 1), pc + 1);
                        let kind = kind_from(op.t);
                        let key = access_key(kind, r.0, op.x as u32);
                        cost += model.access(kind, Rw::Write, cache_hit(&mut last_access, key));
                        match &mut ctx.heap.get_mut(r).payload {
                            ObjPayload::Fields(fs) => fs[op.x as usize] = v,
                            _ => {
                                return Err(VmError::TypeMismatch("putfield on non-object".into()))
                            }
                        }
                        f.pc = pc + 2;
                    }
                    MOp::CheckWAStore => {
                        charge!(); // component 1: CheckWrite depth 2 Array (check cost)
                        let slot = match frame.stack.len().checked_sub(3) {
                            Some(s) => s,
                            None => {
                                return Err(VmError::StackUnderflow {
                                    method: method.sig.to_string(),
                                    pc,
                                })
                            }
                        };
                        let obj = nonnull!(frame.stack[slot], pc);
                        let cidx = match frame.stack[slot + 1] {
                            Value::I32(i) => Some(i),
                            _ => None,
                        };
                        last_access = NO_ACCESS;
                        thread.last_access = NO_ACCESS;
                        match ctx.env.check_write(ctx.heap, thread, obj, AccessKind::Array, cidx) {
                            CheckOutcome::Proceed => {}
                            CheckOutcome::Miss => {
                                return Ok(StepOutcome { state: StepState::Blocked, cost, ops })
                            }
                        }
                        let f = &mut thread.frames[frame_idx];
                        if ops >= fuel {
                            f.pc = pc + 1;
                            continue;
                        }
                        ops += 1; // component 2: AStore (static cost 0, cache-cold)
                        let v = vpop!(f, pc + 1);
                        let idx = vpop!(f, pc + 1).as_i32();
                        let r = nonnull!(vpop!(f, pc + 1), pc + 1);
                        let key = access_key(AccessKind::Array, r.0, idx as u32);
                        cost += model.access(
                            AccessKind::Array,
                            Rw::Write,
                            cache_hit(&mut last_access, key),
                        );
                        array_store(ctx.heap, r, idx, v, elem_from(op.t))?;
                        f.pc = pc + 2;
                    }
                }
            }
        }
    }
}

/// JVM `dcmpg`/`dcmpl` collapsed: NaN compares as 0 (matches interp.rs).
#[inline]
fn dcmp(a: f64, b: f64) -> i32 {
    if a > b {
        1
    } else if a < b {
        -1
    } else {
        0
    }
}

// ---- verification: predecode preserves stack shapes & control flow ----

/// Net stack effect (pops, pushes) of one micro-op; fused ops report the
/// *composition* of their two components. `None` for `Unquick` (the
/// verifier never passes symbolic leftovers to execution).
pub fn mop_stack_effect(image: &Image, m: &MicroOp) -> Option<(usize, usize)> {
    use MOp::*;
    Some(match m.op {
        ConstI32 | ConstI64 | ConstF64 | ConstNull | ConstV | LdcStr | Load => (0, 1),
        Dup => (1, 2),
        DupX1 => (2, 3),
        PopV | Store | IfI | IfNull | IfNonNull => (1, 0),
        SwapV => (2, 2),
        IInc | Goto | Nop | Ret => (0, 0),
        IAdd | ISub | IMul | IDiv | IRem | IShl | IShr | IUShr | IAnd | IOr | IXor | LAdd
        | LSub | LMul | LDiv | LRem | DAdd | DSub | DMul | DDiv | DRem | LCmp | DCmp => (2, 1),
        INeg | LNeg | DNeg | I2L | I2D | L2I | L2D | D2I | D2L => (1, 1),
        IfICmp | IfACmpEq | IfACmpNe => (2, 0),
        NewObj => (0, 1),
        NewArr | ArrLen | GetField => (1, 1),
        PutField => (2, 0),
        GetStatic => (0, 1),
        PutStatic => (1, 0),
        ALoad => (2, 1),
        AStore => (3, 0),
        CheckRead | CheckWrite | VolAcquire | VolRelease => (0, 0),
        MonEnter | MonExit | DsmMonEnter | DsmMonExit | SpawnDsm | RetVal => (1, 0),
        CallStatic | CallSpecial => {
            let callee = image.method(MethodId(m.a));
            (m.x as usize, callee.sig.ret.is_some() as usize)
        }
        CallVirtual => {
            let sig = &image.sigs[m.x as usize];
            (m.t as usize + 1, sig.ret.is_some() as usize)
        }
        Unquick => return None,
        // Fused = composition of the component effects.
        LoadGetField => (0, 1),      // (0,1) ∘ (1,1)
        LoadArrLen => (0, 1),        // (0,1) ∘ (1,1)
        LoadALoad => (1, 1),         // (0,1) ∘ (2,1)
        LCmpIfI => (2, 0),           // (2,1) ∘ (1,0)
        DCmpIfI => (2, 0),           // (2,1) ∘ (1,0)
        IIncGoto => (0, 0),          // (0,0) ∘ (0,0)
        LoadLoad => (0, 2),          // (0,1) ∘ (0,1)
        LoadCheckRead => (0, 1),     // (0,1) ∘ (0,0)
        CheckGetField => (1, 1),     // (0,0) ∘ (1,1)
        LoadCheckGetField => (0, 1), // (0,1) ∘ (0,0) ∘ (1,1)
        CheckALoad => (2, 1),        // (0,0) ∘ (2,1)
        CheckWPutField => (2, 0),    // (0,0) ∘ (2,0)
        CheckWAStore => (3, 0),      // (0,0) ∘ (3,0)
    })
}

/// Branch targets a micro-op can jump to (not counting fall-through).
fn mop_branch_target(m: &MicroOp) -> Option<usize> {
    use MOp::*;
    match m.op {
        Goto | IfICmp | IfI | IfNull | IfNonNull | IfACmpEq | IfACmpNe | LCmpIfI | DCmpIfI => {
            Some(m.a as usize)
        }
        IIncGoto => Some(m.b as usize),
        _ => None,
    }
}

/// Check that `pim` is a faithful lowering of `image`: every slot's net
/// stack effect matches the verifier's judgment for the instruction (or
/// instruction pair) it lowers, and every branch target is preserved.
/// Returns a description of the first mismatch.
pub fn verify_against(pim: &PImage, image: &Image) -> Result<(), String> {
    // The verifier's `stack_effect` table defers call instructions to its
    // dataflow pass (signature-dependent); replicate that judgment here so
    // the comparison covers every slot.
    let src_effect = |ins: &Instr| -> (usize, usize) {
        match ins {
            Instr::InvokeStaticQ(mid) | Instr::InvokeSpecialQ(mid) => {
                let callee = image.method(*mid);
                let nargs = callee.sig.nargs() + if callee.is_static { 0 } else { 1 };
                (nargs, callee.sig.ret.is_some() as usize)
            }
            Instr::InvokeVirtualQ { sig, nargs, .. } => {
                (*nargs as usize + 1, image.sigs[sig.0 as usize].ret.is_some() as usize)
            }
            _ => crate::verifier::stack_effect(ins),
        }
    };
    if pim.methods.len() != image.methods.len() {
        return Err(format!(
            "method count mismatch: {} predecoded vs {} loaded",
            pim.methods.len(),
            image.methods.len()
        ));
    }
    for (rm, pm) in image.methods.iter().zip(&pim.methods) {
        if rm.code.len() != pm.ops.len() {
            return Err(format!("{}: body length changed by predecode", rm.sig));
        }
        for (i, (ins, m)) in rm.code.iter().zip(&pm.ops).enumerate() {
            let fused = fmt_fused(m).is_some();
            // Composition of the verifier's judgments for the components.
            let compose = |(p1, s1): (usize, usize), (p2, s2): (usize, usize)| {
                (p1 + p2.saturating_sub(s1), s2 + s1.saturating_sub(p2))
            };
            let expect = if matches!(m.op, MOp::LoadCheckGetField) {
                compose(
                    compose(src_effect(ins), src_effect(&rm.code[i + 1])),
                    src_effect(&rm.code[i + 2]),
                )
            } else if fused {
                compose(src_effect(ins), src_effect(&rm.code[i + 1]))
            } else {
                src_effect(ins)
            };
            match mop_stack_effect(image, m) {
                Some(got) if got == expect => {}
                Some(got) => {
                    return Err(format!(
                        "{}@{i}: stack effect {got:?} != verifier {expect:?} ({ins:?})",
                        rm.sig
                    ))
                }
                None => {
                    // Unquick: acceptable only where the source was symbolic.
                    if !matches!(
                        ins,
                        Instr::New(_)
                            | Instr::GetField(..)
                            | Instr::PutField(..)
                            | Instr::GetStatic(..)
                            | Instr::PutStatic(..)
                            | Instr::InvokeStatic(..)
                            | Instr::InvokeVirtual(_)
                            | Instr::InvokeSpecial(..)
                    ) {
                        return Err(format!("{}@{i}: quickened op lowered to Unquick", rm.sig));
                    }
                }
            }
            let src_target = if fused && matches!(m.op, MOp::LCmpIfI | MOp::DCmpIfI | MOp::IIncGoto)
            {
                rm.code[i + 1].branch_target()
            } else {
                ins.branch_target()
            };
            if mop_branch_target(m) != src_target {
                return Err(format!(
                    "{}@{i}: branch target {:?} != source {:?}",
                    rm.sig,
                    mop_branch_target(m),
                    src_target
                ));
            }
        }
    }
    Ok(())
}

// ---- disassembly of fused ops ----

/// Render a fused micro-op in the disassembler's style; `None` for plain
/// (unfused) ops, which disassemble through their source [`Instr`].
pub fn fmt_fused(m: &MicroOp) -> Option<String> {
    Some(match m.op {
        MOp::LoadGetField => {
            format!("load_getfield {} slot={} kind={}", m.x, m.a, m.t)
        }
        MOp::LoadArrLen => format!("load_arraylen {}", m.x),
        MOp::LoadALoad => format!("load_aload {} elem={}", m.x, m.t),
        MOp::LCmpIfI => format!("lcmp_if cmp={} -> {}", m.t, m.a),
        MOp::DCmpIfI => format!("dcmp_if cmp={} -> {}", m.t, m.a),
        MOp::IIncGoto => format!("iinc_goto {} by {} -> {}", m.x, m.a as i32, m.b),
        MOp::LoadLoad => format!("load_load {} {}", m.x, m.a),
        MOp::LoadCheckRead => {
            format!("load_checkread {} depth={} kind={} check={}", m.x, m.t, m.a, m.b)
        }
        MOp::CheckGetField => format!("checkread_getfield slot={} kind={} ck={}", m.x, m.t, m.a),
        MOp::LoadCheckGetField => format!(
            "load_checkread_getfield {} slot={} kind={} ck={} check={}",
            m.x,
            m.b,
            m.t & 0xf,
            m.t >> 4,
            m.a
        ),
        MOp::CheckALoad => format!("checkread_aload elem={}", m.t),
        MOp::CheckWPutField => format!("checkwrite_putfield slot={} kind={} ck={}", m.x, m.t, m.a),
        MOp::CheckWAStore => format!("checkwrite_astore elem={}", m.t),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microop_is_16_bytes() {
        assert_eq!(std::mem::size_of::<MicroOp>(), 16);
    }

    #[test]
    fn const_encoding_round_trips() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX, 0x1234_5678_9abc_def0] {
            let (a, b) = split_u64(v as u64);
            assert_eq!(join_u64(a, b) as i64, v);
        }
        for f in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, f64::NEG_INFINITY] {
            let (a, b) = split_u64(f.to_bits());
            assert_eq!(f64::from_bits(join_u64(a, b)).to_bits(), f.to_bits());
        }
    }

    #[test]
    fn tiny_codes_round_trip() {
        for k in [AccessKind::Field, AccessKind::Static, AccessKind::Array] {
            assert_eq!(kind_from(kind_code(k)), k);
        }
        for e in [ElemTy::I32, ElemTy::I64, ElemTy::F64, ElemTy::Ref] {
            assert_eq!(elem_from(elem_code(e)), e);
        }
        for c in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            assert_eq!(cmp_from(cmp_code(c)), c);
        }
    }
}
