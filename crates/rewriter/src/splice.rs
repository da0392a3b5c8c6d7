//! Code splicing with branch-target fixup.
//!
//! Every instrumentation pass rewrites a method body by mapping each original
//! instruction to a (possibly longer) replacement sequence. Branch targets
//! refer to original program-counter indices; after splicing they must point
//! at the *first* replacement instruction of the original target — exactly
//! the bookkeeping BCEL's `InstructionList` does for the paper's rewriter.

use jsplit_mjvm::instr::Instr;

/// Rewrite `code` by expanding each instruction through `f`, which returns
/// the replacement sequence (use `vec![ins.clone()]` to keep an instruction;
/// prepend to instrument). Branch targets are remapped automatically.
///
/// `f` receives `(pc, instruction)` and must keep any branch instruction's
/// target field untouched (it still holds the *original* pc; splice fixes it
/// up afterwards).
pub fn splice(code: &[Instr], mut f: impl FnMut(usize, &Instr) -> Vec<Instr>) -> Vec<Instr> {
    // Pass 1: expand, recording where each original pc landed.
    let mut new_code: Vec<Instr> = Vec::with_capacity(code.len() * 2);
    let mut new_pc_of: Vec<usize> = Vec::with_capacity(code.len() + 1);
    // Remember which emitted instructions carry original branch targets.
    let mut branch_sites: Vec<usize> = Vec::new();
    for (pc, ins) in code.iter().enumerate() {
        new_pc_of.push(new_code.len());
        for out in f(pc, ins) {
            if out.branch_target().is_some() {
                branch_sites.push(new_code.len());
            }
            new_code.push(out);
        }
    }
    new_pc_of.push(new_code.len());

    // Pass 2: remap branch targets (original pc -> first new pc).
    for site in branch_sites {
        let old_target = new_code[site].branch_target().unwrap();
        debug_assert!(old_target < new_pc_of.len(), "branch target {old_target} out of range in verified input");
        let new_target = new_pc_of[old_target];
        new_code[site].set_branch_target(new_target);
    }
    new_code
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_mjvm::instr::{Cmp, Instr};
    use jsplit_mjvm::value::Value;

    #[test]
    fn identity_splice_preserves_code() {
        let code = vec![
            Instr::Const(Value::I32(0)),
            Instr::IfI(Cmp::Eq, 3),
            Instr::Nop,
            Instr::Return,
        ];
        let out = splice(&code, |_, i| vec![i.clone()]);
        assert_eq!(out, code);
    }

    #[test]
    fn prepended_instructions_shift_targets() {
        // pc0: const, pc1: goto->3, pc2: nop, pc3: return
        let code = vec![
            Instr::Const(Value::I32(0)),
            Instr::Goto(3),
            Instr::Nop,
            Instr::Return,
        ];
        // Prepend a Nop before the Return (original pc 3).
        let out = splice(&code, |pc, i| {
            if pc == 3 {
                vec![Instr::Nop, i.clone()]
            } else {
                vec![i.clone()]
            }
        });
        // goto must now point at the prepended Nop (new pc 3).
        assert_eq!(out[1], Instr::Goto(3));
        assert_eq!(out[3], Instr::Nop);
        assert_eq!(out[4], Instr::Return);
    }

    #[test]
    fn backward_branch_remapped() {
        // loop: pc0 nop; pc1 goto->0
        let code = vec![Instr::Nop, Instr::Goto(0)];
        let out = splice(&code, |pc, i| {
            if pc == 0 {
                vec![Instr::Nop, Instr::Nop, i.clone()]
            } else {
                vec![i.clone()]
            }
        });
        // Original pc0 now starts at new pc 0 (the first prepended Nop).
        assert_eq!(out[3], Instr::Goto(0));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn branches_inside_replacements_are_remapped_too() {
        // A pass may emit its own branch around a handler; it must express
        // the target in original-pc coordinates.
        let code = vec![Instr::Nop, Instr::Return];
        let out = splice(&code, |pc, i| {
            if pc == 0 {
                // Branch to the original Return (pc 1).
                vec![Instr::Goto(1), i.clone()]
            } else {
                vec![i.clone()]
            }
        });
        assert_eq!(out[0], Instr::Goto(2));
    }
}
