//! Structural bytecode verification.
//!
//! Runs on the *symbolic* class files (before quickening) — both on original
//! programs (builder output) and on rewriter output, where it doubles as the
//! rewriter's regression net: instrumentation must never unbalance the stack
//! or break a branch target.

use crate::class::{ClassFile, MethodDef, Program};
use crate::instr::Instr;

/// A verification failure.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    pub class: String,
    pub method: String,
    pub pc: usize,
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{} @{}: {}", self.class, self.method, self.pc, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verification policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Allow the `Dsm*` pseudo-instructions (rewriter output) — original
    /// application bytecode must not contain them.
    pub allow_dsm: bool,
}

impl VerifyOptions {
    pub const ORIGINAL: VerifyOptions = VerifyOptions { allow_dsm: false };
    pub const REWRITTEN: VerifyOptions = VerifyOptions { allow_dsm: true };
}

/// The check every entry point runs on an unrewritten program before
/// touching it (the rewriter, the baseline driver, [`crate::localvm::LocalVm`]):
/// [`verify_program`] under [`VerifyOptions::ORIGINAL`], first error rendered.
pub fn verify_original(p: &Program) -> Result<(), String> {
    verify_program(p, VerifyOptions::ORIGINAL).map_err(|errs| errs[0].to_string())
}

/// Verify every method of every class in a program.
pub fn verify_program(p: &Program, opts: VerifyOptions) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for c in &p.classes {
        for m in &c.methods {
            if let Err(mut e) = verify_method(c, m, opts) {
                errors.append(&mut e);
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Stack effect: (pops, pushes), or None if it depends on the instruction's
/// signature (handled inline).
pub(crate) fn stack_effect(ins: &Instr) -> (usize, usize) {
    use Instr::*;
    match ins {
        Const(_) | LdcStr(_) | Load(_) => (0, 1),
        Dup => (1, 2),
        DupX1 => (2, 3),
        Pop | Store(_) => (1, 0),
        Swap => (2, 2),
        IInc(..) | Nop | Goto(_) => (0, 0),
        IAdd | ISub | IMul | IDiv | IRem | IShl | IShr | IUShr | IAnd | IOr | IXor | LAdd
        | LSub | LMul | LDiv | LRem | DAdd | DSub | DMul | DDiv | DRem | LCmp | DCmp => (2, 1),
        INeg | LNeg | DNeg | I2L | I2D | L2I | L2D | D2I | D2L => (1, 1),
        IfICmp(..) | IfACmpEq(_) | IfACmpNe(_) => (2, 0),
        IfI(..) | IfNull(_) | IfNonNull(_) => (1, 0),
        New(_) | NewQ(_) => (0, 1),
        GetField(..) | GetFieldQ { .. } => (1, 1),
        PutField(..) | PutFieldQ { .. } => (2, 0),
        GetStatic(..) | GetStaticQ { .. } => (0, 1),
        PutStatic(..) | PutStaticQ { .. } => (1, 0),
        NewArray(_) => (1, 1),
        ALoad(_) => (2, 1),
        AStore(_) => (3, 0),
        ArrayLen => (1, 1),
        Return => (0, 0),
        ReturnVal => (1, 0),
        MonitorEnter | MonitorExit | DsmMonitorEnter | DsmMonitorExit | DsmSpawn => (1, 0),
        DsmCheckRead { .. } | DsmCheckWrite { .. } | DsmVolatileAcquire { .. } | DsmVolatileRelease => (0, 0),
        // Call effects are signature-dependent; handled by the caller.
        InvokeStatic(..) | InvokeVirtual(_) | InvokeSpecial(..) | InvokeStaticQ(_)
        | InvokeSpecialQ(_) | InvokeVirtualQ { .. } => (0, 0),
    }
}

/// Verify one method: branch targets, stack-depth consistency (abstract
/// interpretation over depths), local-slot bounds, DSM-op policy, and
/// terminator sanity.
pub fn verify_method(c: &ClassFile, m: &MethodDef, opts: VerifyOptions) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    let err = |pc: usize, msg: String| VerifyError {
        class: c.name.to_string(),
        method: m.sig.to_string(),
        pc,
        message: msg,
    };

    // The loader refuses these as well; the rewriter, which runs first,
    // leans on this check instead.
    if m.is_static && m.is_synchronized {
        return Err(vec![err(0, "static synchronized methods are unsupported".into())]);
    }
    if m.is_native {
        return Ok(());
    }
    let n = m.code.len();
    if n == 0 {
        // Empty body is an implicit void return; only valid for void methods.
        if m.sig.ret.is_some() {
            return Err(vec![err(0, "empty body in value-returning method".into())]);
        }
        return Ok(());
    }

    // Pass 1: per-instruction checks.
    for (pc, ins) in m.code.iter().enumerate() {
        if let Some(t) = ins.branch_target() {
            if t >= n {
                errors.push(err(pc, format!("branch target {t} out of bounds (len {n})")));
            }
        }
        if ins.is_dsm() && !opts.allow_dsm {
            errors.push(err(pc, format!("DSM pseudo-instruction in original code: {ins:?}")));
        }
        match ins {
            Instr::Load(i) | Instr::Store(i) | Instr::IInc(i, _)
                if *i >= m.max_locals.max(m.param_slots()) =>
            {
                errors.push(err(pc, format!("local {i} out of bounds (max_locals {})", m.max_locals)));
            }
            Instr::DsmCheckRead { depth, .. }
            | Instr::DsmCheckWrite { depth, .. }
            | Instr::DsmVolatileAcquire { depth }
                if *depth > 3 =>
            {
                errors.push(err(pc, format!("implausible check depth {depth}")));
            }
            _ => {}
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    // Pass 2: stack-depth dataflow.
    let mut depth_at: Vec<Option<isize>> = vec![None; n];
    let mut work = vec![(0usize, 0isize)];
    while let Some((pc, depth)) = work.pop() {
        if pc >= n {
            continue;
        }
        match depth_at[pc] {
            Some(d) if d == depth => continue,
            Some(d) => {
                errors.push(err(pc, format!("inconsistent stack depth: {d} vs {depth}")));
                continue;
            }
            None => depth_at[pc] = Some(depth),
        }
        let ins = &m.code[pc];
        let (pops, pushes) = match ins {
            Instr::InvokeStatic(_, sig) => (sig.nargs(), sig.ret.is_some() as usize),
            Instr::InvokeSpecial(_, sig) => (sig.nargs() + 1, sig.ret.is_some() as usize),
            Instr::InvokeVirtual(sig) => (sig.nargs() + 1, sig.ret.is_some() as usize),
            Instr::InvokeStaticQ(_) | Instr::InvokeSpecialQ(_) | Instr::InvokeVirtualQ { .. } => {
                errors.push(err(pc, "quickened call in pre-load verification".into()));
                continue;
            }
            other => stack_effect(other),
        };
        if depth < pops as isize {
            errors.push(err(pc, format!("stack underflow: depth {depth}, needs {pops}")));
            continue;
        }
        // Peeking checks need enough depth below the top.
        if let Instr::DsmCheckRead { depth: d, .. }
        | Instr::DsmCheckWrite { depth: d, .. }
        | Instr::DsmVolatileAcquire { depth: d } = ins
        {
            if depth < *d as isize + 1 {
                errors.push(err(pc, format!("check depth {d} exceeds stack depth {depth}")));
                continue;
            }
        }
        let next = depth - pops as isize + pushes as isize;
        match ins {
            Instr::Return => {
                if next != 0 {
                    // Non-empty stack at return is legal in the JVM; we allow
                    // it too (the frame is discarded) — no error.
                }
            }
            Instr::ReturnVal => {
                if m.sig.ret.is_none() {
                    errors.push(err(pc, "value return from void method".into()));
                }
            }
            Instr::Goto(t) => work.push((*t, next)),
            _ => {
                if let Some(t) = ins.branch_target() {
                    work.push((t, next));
                }
                work.push((pc + 1, next));
            }
        }
    }

    // `ReturnVal` in a void method is caught above; conversely a
    // value-returning method must contain at least one ReturnVal.
    if m.sig.ret.is_some() && !m.code.iter().any(|i| matches!(i, Instr::ReturnVal)) {
        errors.push(err(n - 1, "value-returning method never returns a value".into()));
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::{AccessKind, Cmp, Ty};

    fn prog(f: impl FnOnce(&mut crate::builder::MethodBuilder)) -> Program {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, f);
        });
        pb.build()
    }

    #[test]
    fn accepts_simple_loop() {
        let p = prog(|m| {
            let top = m.new_label();
            let out = m.new_label();
            m.const_i32(0).store(0);
            m.bind(top);
            m.load(0).const_i32(5).if_icmp(Cmp::Ge, out);
            m.iinc(0, 1).goto(top);
            m.bind(out).ret();
        });
        verify_program(&p, VerifyOptions::ORIGINAL).unwrap();
    }

    #[test]
    fn rejects_stack_underflow() {
        let p = prog(|m| {
            m.pop_().ret();
        });
        let errs = verify_program(&p, VerifyOptions::ORIGINAL).unwrap_err();
        assert!(errs[0].message.contains("underflow"), "{}", errs[0]);
    }

    #[test]
    fn rejects_inconsistent_depth() {
        let p = prog(|m| {
            let l = m.new_label();
            let join = m.new_label();
            m.const_i32(1).if_i(Cmp::Eq, l);
            m.const_i32(7).goto(join); // depth 1 at join
            m.bind(l); // depth 0 at join via this path
            m.bind(join);
            m.ret();
        });
        let errs = verify_program(&p, VerifyOptions::ORIGINAL).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("inconsistent")), "{errs:?}");
    }

    #[test]
    fn rejects_dsm_ops_in_original_code() {
        let mut p = prog(|m| {
            m.ret();
        });
        p.classes[0].methods[0]
            .code
            .insert(0, Instr::DsmCheckRead { depth: 0, kind: AccessKind::Field });
        let errs = verify_program(&p, VerifyOptions::ORIGINAL).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("DSM pseudo-instruction")));
        // ... but the same code passes under the rewritten policy (depth
        // issues aside — give it an object to check).
        p.classes[0].methods[0].code.insert(0, Instr::Const(crate::value::Value::Null));
        p.classes[0].methods[0].code.insert(2, Instr::Pop);
        verify_program(&p, VerifyOptions::REWRITTEN).unwrap();
    }

    #[test]
    fn rejects_out_of_bounds_branch() {
        let mut p = prog(|m| {
            m.ret();
        });
        p.classes[0].methods[0].code.insert(0, Instr::Goto(99));
        let errs = verify_program(&p, VerifyOptions::ORIGINAL).unwrap_err();
        assert!(errs[0].message.contains("out of bounds"));
    }

    #[test]
    fn rejects_static_synchronized() {
        let mut p = prog(|m| {
            m.ret();
        });
        p.classes[0].methods[0].is_synchronized = true;
        let errs = verify_program(&p, VerifyOptions::ORIGINAL).unwrap_err();
        assert!(errs[0].message.contains("static synchronized"));
    }

    #[test]
    fn rejects_missing_value_return() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("f", &[], Some(Ty::I32), |m| {
                m.ret();
            });
        });
        let errs = verify_program(&pb.build(), VerifyOptions::ORIGINAL).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("never returns a value")));
    }

    #[test]
    fn stdlib_verifies_clean() {
        let p = Program {
            classes: crate::stdlib::stdlib_classes(),
            main_class: "x".into(),
        };
        verify_program(&p, VerifyOptions::ORIGINAL).unwrap();
    }
}
