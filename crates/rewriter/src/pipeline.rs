//! Whole-program rewriting pipeline (paper Figure 1).
//!
//! Pass order matters and mirrors the constraints the paper's rewriter faces:
//!
//! 0. verify the input under the original-code policy — every pass below
//!    assumes verified code (in-range branch targets, no static
//!    `synchronized`), so hostile bytes become an error, not a panic;
//! 1. reject user classes with native methods (§4: "we do not support
//!    user-defined classes with native methods");
//! 2. desugar `synchronized` methods into explicit monitor blocks;
//! 3. hoist statics into `C_static` companions (§4.2) — *before* check
//!    insertion so the companion accesses get checked like any instance
//!    access;
//! 4. substitute thread-creation sites (§4 change 1);
//! 5. substitute monitor instructions with DSM handlers (§4 change 2);
//! 6. insert access checks + volatile bracketing (§4 change 3, Figure 3);
//! 7. rename everything into the `javasplit.*` hierarchy;
//! 8. verify the output under the rewritten-code policy.
//!
//! Figure 2's generated `DSM_serialize` methods have no pass here: the DSM
//! codec serializes any object generically from its loaded field layout
//! (`DsmNode::serialize_state`), reference fields as global ids.

use crate::{checks, rename, statics, sync, threads};
use jsplit_mjvm::class::Program;
use jsplit_mjvm::instr::AccessKind;
use jsplit_mjvm::verifier::{self, VerifyOptions};
use std::collections::HashMap;
use std::sync::Arc;

/// Why a program cannot be rewritten.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteError {
    /// The input program failed verification under the original-code
    /// policy (first error).
    InvalidInput(String),
    /// Paper §4: native methods are neither portable nor automatically
    /// transformable; only bootstrap natives (with hand-written wrappers)
    /// are allowed.
    NativeUserMethod { class: String, method: String },
    /// The rewritten program failed verification — a rewriter bug surfaced
    /// as an error rather than a miscompiled program.
    VerificationFailed(String),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::InvalidInput(e) => write!(f, "input program failed verification: {e}"),
            RewriteError::NativeUserMethod { class, method } => {
                write!(f, "user-defined native method unsupported: {class}.{method}")
            }
            RewriteError::VerificationFailed(e) => write!(f, "rewritten program failed verification: {e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// Instrumentation statistics (reported alongside run reports, and the basis
/// of several tests that pin the transformation's shape).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RewriteStats {
    pub checks_read: u64,
    pub checks_write: u64,
    /// Checks by kind: Field=0, Static=1, Array=2.
    pub checks_by_kind: [u64; 3],
    pub monitors_substituted: u64,
    pub sync_methods_desugared: u64,
    pub spawns_intercepted: u64,
    pub statics_classes: u64,
    pub statics_fields: u64,
    pub volatile_wraps: u64,
    pub classes_renamed: u64,
    /// Instruction counts before/after (the code-growth factor).
    pub code_size_before: usize,
    pub code_size_after: usize,
}

impl RewriteStats {
    pub(crate) fn count_check(&mut self, kind: AccessKind, write: bool) {
        if write {
            self.checks_write += 1;
        } else {
            self.checks_read += 1;
        }
        self.checks_by_kind[match kind {
            AccessKind::Field => 0,
            AccessKind::Static => 1,
            AccessKind::Array => 2,
        }] += 1;
    }

    pub fn checks_total(&self) -> u64 {
        self.checks_read + self.checks_write
    }

    /// Code growth factor caused by instrumentation.
    pub fn growth(&self) -> f64 {
        self.code_size_after as f64 / self.code_size_before.max(1) as f64
    }
}

/// A rewritten (distributed) application.
#[derive(Debug)]
pub struct Rewritten {
    pub program: Program,
    pub stats: RewriteStats,
}

/// Rewrite an original program (which must already include the bootstrap
/// library) into its distributed `javasplit.*` form.
pub fn rewrite_program(original: &Program) -> Result<Rewritten, RewriteError> {
    // 0. Input verification.
    verifier::verify_original(original).map_err(RewriteError::InvalidInput)?;
    let mut p = original.clone();
    let mut stats = RewriteStats { code_size_before: p.code_size(), ..RewriteStats::default() };

    // 1. Native-method policy.
    for c in &p.classes {
        if c.is_bootstrap {
            continue;
        }
        if let Some(m) = c.methods.iter().find(|m| m.is_native) {
            return Err(RewriteError::NativeUserMethod {
                class: c.name.to_string(),
                method: m.sig.to_string(),
            });
        }
    }

    // 2. Desugar synchronized methods.
    for c in &mut p.classes {
        for m in &mut c.methods {
            sync::desugar_synchronized(m, &mut stats);
        }
    }

    // 3. Statics transformation.
    statics::transform_statics(&mut p, &mut stats);

    // Volatility map over the transformed hierarchy (instance fields only;
    // statics already moved into companions with flags preserved).
    let super_of: HashMap<Arc<str>, Option<Arc<str>>> =
        p.classes.iter().map(|c| (c.name.clone(), c.super_name.clone())).collect();
    let volatile_fields: std::collections::HashSet<(Arc<str>, Arc<str>)> = p
        .classes
        .iter()
        .flat_map(|c| {
            c.fields
                .iter()
                .filter(|f| f.is_volatile && !f.is_static)
                .map(move |f| (c.name.clone(), f.name.clone()))
        })
        .collect();
    let is_volatile = move |class: &str, field: &str| -> bool {
        let mut cur: Option<Arc<str>> = Some(class.into());
        while let Some(c) = cur {
            if volatile_fields.contains(&(c.clone(), field.into())) {
                return true;
            }
            cur = super_of.get(&c).cloned().flatten();
        }
        false
    };

    // 4–6. Per-method instruction passes.
    for c in &mut p.classes {
        for m in &mut c.methods {
            threads::intercept_thread_start(m, &mut stats);
            sync::substitute_monitors(m, &mut stats);
            checks::insert_checks(m, &is_volatile, &mut stats);
        }
    }

    // 7. Rename into the javasplit hierarchy.
    rename::rename_program(&mut p, &mut stats);

    // 8. Verify.
    stats.code_size_after = p.code_size();
    if let Err(errs) = verifier::verify_program(&p, VerifyOptions::REWRITTEN) {
        return Err(RewriteError::VerificationFailed(errs[0].to_string()));
    }

    Ok(Rewritten { program: p, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_mjvm::builder::ProgramBuilder;
    use jsplit_mjvm::instr::{Instr, Ty};

    fn sample_program() -> Program {
        let mut pb = ProgramBuilder::new("M");
        pb.class("Counter", "java.lang.Object", |cb| {
            cb.default_ctor("java.lang.Object");
            cb.field("n", Ty::I32);
            cb.static_field("instances", Ty::I32);
            cb.synchronized_method("inc", &[], None, |m| {
                m.load(0).load(0).getfield("Counter", "n").const_i32(1).iadd().putfield("Counter", "n").ret();
            });
        });
        pb.class("W", "java.lang.Thread", |cb| {
            cb.field("c", Ty::Ref);
            cb.method("<init>", &[Ty::Ref], None, |m| {
                m.load(0)
                    .invokespecial("java.lang.Thread", "<init>", &[], None)
                    .load(0)
                    .load(1)
                    .putfield("W", "c")
                    .ret();
            });
            cb.method("run", &[], None, |m| {
                m.load(0).getfield("W", "c").invokevirtual("inc", &[], None).ret();
            });
        });
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.construct("Counter", &[], |_| {}).store(0);
                m.construct("W", &[Ty::Ref], |m| {
                    m.load(0);
                })
                .store(1);
                m.load(1).invokevirtual("start", &[], None);
                m.load(1).invokevirtual("join", &[], None);
                m.load(0).getfield("Counter", "n").println_i32();
                m.ret();
            });
        });
        pb.build_with_stdlib()
    }

    #[test]
    fn full_pipeline_produces_verified_javasplit_program() {
        let rw = rewrite_program(&sample_program()).expect("rewrite");
        assert_eq!(&*rw.program.main_class, "javasplit.M");
        assert!(rw.program.class("javasplit.Counter").is_some());
        assert!(rw.program.class("javasplit.Counter_static").is_some());
        assert!(rw.stats.checks_total() > 0);
        assert!(rw.stats.monitors_substituted > 0);
        assert!(rw.stats.spawns_intercepted >= 1);
        assert!(rw.stats.statics_classes >= 1);
        assert!(rw.stats.growth() > 1.0, "instrumentation must grow code");
    }

    #[test]
    fn rewritten_program_has_no_original_sync_or_spawn() {
        let rw = rewrite_program(&sample_program()).unwrap();
        for c in &rw.program.classes {
            for m in &c.methods {
                assert!(!m.is_synchronized, "{}.{}", c.name, m.sig);
                for ins in &m.code {
                    assert!(
                        !matches!(ins, Instr::MonitorEnter | Instr::MonitorExit),
                        "unsubstituted monitor in {}.{}",
                        c.name,
                        m.sig
                    );
                    assert!(
                        !matches!(ins, Instr::InvokeVirtual(s) if &*s.name == "start0"),
                        "unsubstituted start0 in {}.{}",
                        c.name,
                        m.sig
                    );
                }
            }
        }
    }

    #[test]
    fn every_heap_access_is_checked() {
        let rw = rewrite_program(&sample_program()).unwrap();
        for c in &rw.program.classes {
            for m in &c.methods {
                for (pc, ins) in m.code.iter().enumerate() {
                    let needs_check = matches!(
                        ins,
                        Instr::GetField(..)
                            | Instr::PutField(..)
                            | Instr::ALoad(_)
                            | Instr::AStore(_)
                            | Instr::ArrayLen
                    );
                    if needs_check {
                        assert!(
                            pc > 0
                                && matches!(
                                    m.code[pc - 1],
                                    Instr::DsmCheckRead { .. } | Instr::DsmCheckWrite { .. }
                                ),
                            "unchecked access at {}.{}@{pc}: {ins:?}",
                            c.name,
                            m.sig
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn native_user_class_rejected() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.ret();
            });
            cb.native_method("evil", &[], None, true);
        });
        let err = rewrite_program(&pb.build_with_stdlib()).unwrap_err();
        assert!(matches!(err, RewriteError::NativeUserMethod { .. }));
    }

    #[test]
    fn rewrite_is_deterministic() {
        let a = rewrite_program(&sample_program()).unwrap();
        let b = rewrite_program(&sample_program()).unwrap();
        assert_eq!(
            jsplit_mjvm::disasm::fmt_program(&a.program),
            jsplit_mjvm::disasm::fmt_program(&b.program)
        );
        assert_eq!(a.stats, b.stats);
    }
}
