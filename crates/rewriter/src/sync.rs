//! Synchronization rewriting (paper §4, change 2).
//!
//! Two steps: `synchronized` methods are first *desugared* into explicit
//! `monitorenter`/`monitorexit` wrappers (acquire the receiver on entry,
//! release on every return path), then all monitor instructions — the
//! desugared ones and the application's own synchronization blocks — are
//! substituted with the DSM synchronization handlers (`DsmMonitorEnter` /
//! `DsmMonitorExit`), which implement the local-object lock-counter fast
//! path of §4.4 and the queue-passing protocol of §3.2 for shared objects.

use crate::pipeline::RewriteStats;
use crate::splice::splice;
use jsplit_mjvm::class::MethodDef;
use jsplit_mjvm::instr::Instr;

/// Desugar one `synchronized` method into an explicit monitor-wrapped body.
/// No-op for non-synchronized or native methods.
pub fn desugar_synchronized(m: &mut MethodDef, stats: &mut RewriteStats) {
    if !m.is_synchronized || m.is_native {
        return;
    }
    debug_assert!(!m.is_static, "static synchronized rejected by input verification");
    stats.sync_methods_desugared += 1;

    // Entry: acquire the receiver. Exits: release before every return.
    let mut code = Vec::with_capacity(m.code.len() + 8);
    code.push(Instr::Load(0));
    code.push(Instr::MonitorEnter);
    let body = splice(&m.code, |_, ins| match ins {
        Instr::Return => vec![Instr::Load(0), Instr::MonitorExit, Instr::Return],
        Instr::ReturnVal => vec![Instr::Load(0), Instr::MonitorExit, Instr::ReturnVal],
        other => vec![other.clone()],
    });
    // Shift the spliced body's branch targets past the 2-instruction prelude.
    let offset = code.len();
    for mut ins in body {
        if let Some(t) = ins.branch_target() {
            ins.set_branch_target(t + offset);
        }
        code.push(ins);
    }
    // Guard against fall-off-the-end bodies (implicit void return).
    if !matches!(code.last(), Some(Instr::Return | Instr::ReturnVal | Instr::Goto(_))) {
        code.push(Instr::Load(0));
        code.push(Instr::MonitorExit);
        code.push(Instr::Return);
    }
    m.code = code;
    m.is_synchronized = false;
}

/// Substitute monitor instructions with the DSM synchronization handlers.
pub fn substitute_monitors(m: &mut MethodDef, stats: &mut RewriteStats) {
    for ins in &mut m.code {
        match ins {
            Instr::MonitorEnter => {
                *ins = Instr::DsmMonitorEnter;
                stats.monitors_substituted += 1;
            }
            Instr::MonitorExit => {
                *ins = Instr::DsmMonitorExit;
                stats.monitors_substituted += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_mjvm::builder::ProgramBuilder;
    use jsplit_mjvm::instr::{Cmp, Ty};

    fn sync_method() -> MethodDef {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.field("x", Ty::I32);
            cb.synchronized_method("get", &[], Some(Ty::I32), |m| {
                let l = m.new_label();
                m.load(0).getfield("M", "x").if_i(Cmp::Ne, l);
                m.const_i32(-1).ret_val();
                m.bind(l).load(0).getfield("M", "x").ret_val();
            });
        });
        pb.build().class("M").unwrap().method("get").unwrap().clone()
    }

    #[test]
    fn desugar_wraps_entry_and_all_exits() {
        let mut m = sync_method();
        let mut stats = RewriteStats::default();
        desugar_synchronized(&mut m, &mut stats);
        assert!(!m.is_synchronized);
        assert_eq!(stats.sync_methods_desugared, 1);
        assert_eq!(m.code[0], Instr::Load(0));
        assert_eq!(m.code[1], Instr::MonitorEnter);
        // Both ReturnVal sites must be preceded by Load(0); MonitorExit.
        let exits = m
            .code
            .windows(3)
            .filter(|w| {
                matches!(w, [Instr::Load(0), Instr::MonitorExit, Instr::ReturnVal])
            })
            .count();
        assert_eq!(exits, 2);
        // Enter/exit counts balance.
        let enters = m.code.iter().filter(|i| matches!(i, Instr::MonitorEnter)).count();
        assert_eq!(enters, 1);
    }

    #[test]
    fn desugared_branch_targets_still_verify() {
        let mut m = sync_method();
        let mut stats = RewriteStats::default();
        desugar_synchronized(&mut m, &mut stats);
        let cf = {
            let mut c = jsplit_mjvm::class::ClassFile::new("M", Some("java.lang.Object"));
            c.fields.push(jsplit_mjvm::class::FieldDef {
                name: "x".into(),
                ty: Ty::I32,
                is_static: false,
                is_volatile: false,
            });
            c.methods.push(m);
            c
        };
        jsplit_mjvm::verifier::verify_method(
            &cf,
            &cf.methods[0],
            jsplit_mjvm::verifier::VerifyOptions::REWRITTEN,
        )
        .unwrap();
    }

    #[test]
    fn substitution_replaces_all_monitor_ops() {
        let mut m = sync_method();
        let mut stats = RewriteStats::default();
        desugar_synchronized(&mut m, &mut stats);
        substitute_monitors(&mut m, &mut stats);
        assert!(!m.code.iter().any(|i| matches!(i, Instr::MonitorEnter | Instr::MonitorExit)));
        assert_eq!(stats.monitors_substituted, 3); // 1 enter + 2 exits
    }

    #[test]
    fn non_sync_method_untouched() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.method("f", &[], None, |m| {
                m.ret();
            });
        });
        let mut m = pb.build().class("M").unwrap().method("f").unwrap().clone();
        let before = m.clone();
        let mut stats = RewriteStats::default();
        desugar_synchronized(&mut m, &mut stats);
        assert_eq!(m, before);
    }
}
