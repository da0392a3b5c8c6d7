//! Programs whose threads are *not* one fork-join wave: a second wave
//! placed after the first has come and gone, and workers that spawn
//! workers of their own. Placement then depends on what the spawning node
//! believes about loads that have changed since it last looked — the cases
//! that tell an origin-local load estimate from an omniscient one. Leaves
//! do trivial work (`out[i] = 3i + 1`), so thread shipping and placement
//! dominate every counter. (Also included by the workspace root's
//! `tests/differential.rs`.)

use jsplit_apps::common::{spawn_join_all, thread_ctor};
use jsplit_mjvm::builder::{MethodBuilder, ProgramBuilder};
use jsplit_mjvm::class::Program;
use jsplit_mjvm::instr::{ElemTy, Ty};

fn leaf_class(pb: &mut ProgramBuilder) {
    pb.class("Leaf", "java.lang.Thread", |cb| {
        cb.field("out", Ty::Ref).field("i", Ty::I32);
        thread_ctor(cb, "Leaf", &[("out", Ty::Ref), ("i", Ty::I32)]);
        cb.method("run", &[], None, |m| {
            m.load(0).getfield("Leaf", "out").load(0).getfield("Leaf", "i");
            m.load(0).getfield("Leaf", "i").const_i32(3).imul().const_i32(1).iadd();
            m.astore(ElemTy::I32).ret();
        });
    });
}

/// `main`'s frame: local 0 = `out` (an `int[total]`), 1 = the worker
/// array, 2 = the spawn loop index; `body` spawns, then every slot prints.
fn main_class(pb: &mut ProgramBuilder, total: i32, body: impl FnOnce(&mut MethodBuilder)) {
    pb.class("Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            m.const_i32(total).newarray(ElemTy::I32).store(0);
            m.const_i32(total).newarray(ElemTy::Ref).store(1);
            body(m);
            for i in 0..total {
                m.load(0).const_i32(i).aload(ElemTy::I32).println_i32();
            }
            m.ret();
        });
    });
}

/// What either program prints: one line per leaf.
pub fn expected_output(leaves: i32) -> Vec<String> {
    (0..leaves).map(|i| (3 * i + 1).to_string()).collect()
}

/// `main` starts and joins `first` leaves, then `second` more.
pub fn two_wave(first: i32, second: i32) -> Program {
    let mut pb = ProgramBuilder::new("Main");
    leaf_class(&mut pb);
    main_class(&mut pb, first + second, move |m| {
        for (count, base) in [(first, 0), (second, first)] {
            spawn_join_all(m, count, 1, 2, |m| {
                m.construct("Leaf", &[Ty::Ref, Ty::I32], |m| {
                    m.load(0).load(2).const_i32(base).iadd();
                });
            });
        }
    });
    pb.build_with_stdlib()
}

/// `main` starts and joins `outer` workers whose `run()` itself starts and
/// joins `inner` leaves.
pub fn nested(outer: i32, inner: i32) -> Program {
    let mut pb = ProgramBuilder::new("Main");
    leaf_class(&mut pb);
    pb.class("Mid", "java.lang.Thread", |cb| {
        cb.field("out", Ty::Ref).field("base", Ty::I32);
        thread_ctor(cb, "Mid", &[("out", Ty::Ref), ("base", Ty::I32)]);
        cb.method("run", &[], None, move |m| {
            m.const_i32(inner).newarray(ElemTy::Ref).store(1);
            spawn_join_all(m, inner, 1, 2, |m| {
                m.construct("Leaf", &[Ty::Ref, Ty::I32], |m| {
                    m.load(0).getfield("Mid", "out");
                    m.load(0).getfield("Mid", "base").load(2).iadd();
                });
            });
            m.ret();
        });
    });
    main_class(&mut pb, outer * inner, move |m| {
        spawn_join_all(m, outer, 1, 2, |m| {
            m.construct("Mid", &[Ty::Ref, Ty::I32], |m| {
                m.load(0).load(2).const_i32(inner).imul();
            });
        });
    });
    pb.build_with_stdlib()
}
