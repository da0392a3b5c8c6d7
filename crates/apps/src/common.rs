//! Shared bytecode-emission helpers for the benchmark applications.

use jsplit_mjvm::builder::MethodBuilder;
use jsplit_mjvm::instr::{Cmp, ElemTy, Ty};

/// Emit the canonical spawn-all / join-all harness into `main`:
///
/// * local `arr_slot` must already hold a `Ref[]` of length `count`;
/// * `construct_worker(m)` must push one new (un-started) worker thread,
///   and may read the loop index from `idx_slot`;
/// * after this returns, all workers have been started and joined.
pub fn spawn_join_all(
    m: &mut MethodBuilder,
    count: i32,
    arr_slot: u16,
    idx_slot: u16,
    construct_worker: impl Fn(&mut MethodBuilder),
) {
    // create + start
    let mk_top = m.new_label();
    let mk_end = m.new_label();
    m.const_i32(0).store(idx_slot);
    m.bind(mk_top);
    m.load(idx_slot).const_i32(count).if_icmp(Cmp::Ge, mk_end);
    m.load(arr_slot).load(idx_slot);
    construct_worker(m);
    m.astore(ElemTy::Ref);
    m.load(arr_slot).load(idx_slot).aload(ElemTy::Ref).invokevirtual("start", &[], None);
    m.iinc(idx_slot, 1).goto(mk_top);
    m.bind(mk_end);
    // join
    let j_top = m.new_label();
    let j_end = m.new_label();
    m.const_i32(0).store(idx_slot);
    m.bind(j_top);
    m.load(idx_slot).const_i32(count).if_icmp(Cmp::Ge, j_end);
    m.load(arr_slot).load(idx_slot).aload(ElemTy::Ref).invokevirtual("join", &[], None);
    m.iinc(idx_slot, 1).goto(j_top);
    m.bind(j_end);
}

/// Standard worker-thread constructor boilerplate: emits a `<init>` that
/// calls `Thread.<init>` and stores each parameter `i` (1-based local) into
/// the same-named field of `class`.
pub fn thread_ctor(cb: &mut jsplit_mjvm::builder::ClassBuilder, class: &str, fields: &[(&str, Ty)]) {
    let class = class.to_string();
    let fields: Vec<(String, Ty)> = fields.iter().map(|(n, t)| (n.to_string(), *t)).collect();
    let params: Vec<Ty> = fields.iter().map(|(_, t)| *t).collect();
    cb.method("<init>", &params, None, move |m| {
        m.load(0).invokespecial("java.lang.Thread", "<init>", &[], None);
        // MJVM locals are one slot per value regardless of width, so the
        // constructor argument for field k sits in local slot k+1.
        for (slot, (name, _)) in fields.iter().enumerate() {
            m.load(0).load(slot as u16 + 1).putfield(&class, name);
        }
        m.ret();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_mjvm::builder::ProgramBuilder;
    use jsplit_mjvm::localvm::run_program;

    #[test]
    fn spawn_join_all_harness_works() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("W", "java.lang.Thread", |cb| {
            cb.field("out", Ty::Ref).field("i", Ty::I32);
            thread_ctor(cb, "W", &[("out", Ty::Ref), ("i", Ty::I32)]);
            cb.method("run", &[], None, |m| {
                m.load(0)
                    .getfield("W", "out")
                    .load(0)
                    .getfield("W", "i")
                    .load(0)
                    .getfield("W", "i")
                    .const_i32(100)
                    .imul()
                    .astore(ElemTy::I32);
                m.ret();
            });
        });
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.const_i32(4).newarray(ElemTy::I32).store(0);
                m.const_i32(4).newarray(ElemTy::Ref).store(1);
                spawn_join_all(m, 4, 1, 2, |m| {
                    m.construct("W", &[Ty::Ref, Ty::I32], |m| {
                        m.load(0).load(2);
                    });
                });
                // print out[3]
                m.load(0).const_i32(3).aload(ElemTy::I32).println_i32();
                m.ret();
            });
        });
        let r = run_program(&pb.build_with_stdlib());
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.output, vec!["300"]);
    }
}
