//! Golden tests for the rewriter: pin the transformation of a representative
//! class the way the paper's Figures 2 and 3 document theirs — the renamed
//! hierarchy, the injected access checks, the substituted synchronization
//! handlers and thread-start sites, and the statics companion.

use javasplit::dsm::protocol::WVal;
use javasplit::dsm::{DsmConfig, DsmNode, ProtocolMode, WireState};
use javasplit::mjvm::builder::ProgramBuilder;
use javasplit::mjvm::disasm;
use javasplit::mjvm::heap::{Heap, ObjPayload};
use javasplit::mjvm::instr::Ty;
use javasplit::mjvm::loader::Image;
use javasplit::mjvm::Value;
use javasplit::rewriter::rewrite_program;

fn sample() -> javasplit::mjvm::class::Program {
    let mut pb = ProgramBuilder::new("demo.Main");
    pb.class("demo.Point", "java.lang.Object", |cb| {
        cb.default_ctor("java.lang.Object");
        cb.field("x", Ty::I32).volatile_field("flag", Ty::I32);
        cb.static_field("instances", Ty::I32);
        cb.synchronized_method("bump", &[], None, |m| {
            m.load(0).load(0).getfield("demo.Point", "x").const_i32(1).iadd().putfield("demo.Point", "x").ret();
        });
        cb.method("raise", &[], None, |m| {
            m.load(0).const_i32(1).putfield("demo.Point", "flag").ret();
        });
    });
    pb.class("demo.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, |m| {
            m.getstatic("demo.Point", "instances").const_i32(1).iadd().putstatic("demo.Point", "instances");
            m.construct("java.lang.Thread", &[], |_| {}).invokevirtual("start", &[], None);
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

#[test]
fn figure2_class_transformation() {
    let rw = rewrite_program(&sample()).expect("rewrite");
    let point = rw.program.class("javasplit.demo.Point").expect("renamed class");
    let text = disasm::fmt_class(point);

    // Parallel hierarchy: superclass renamed too.
    assert!(text.contains("class javasplit.demo.Point extends javasplit.java.lang.Object"));
    // The static moved to the companion; the constant holder remains.
    assert!(!text.contains("field static instances"));
    assert!(text.contains("__javasplit__statics__"));
    let comp = rw.program.class("javasplit.demo.Point_static").expect("companion");
    assert!(comp.field("instances").is_some());
    // Synchronized method desugared into substituted handlers.
    let bump = disasm::fmt_method(point.method("bump").unwrap());
    assert!(bump.contains("dsm_monitorenter"));
    assert!(bump.contains("dsm_monitorexit"));
    assert!(!bump.contains(" synchronized "));
    // Figure 3: the access check precedes the field access.
    let idx_check = bump.find("dsm_check_read").expect("read check");
    let idx_get = bump.find("getfield").expect("getfield");
    assert!(idx_check < idx_get);
    // Volatile access bracketed by acquire/release.
    let raise = disasm::fmt_method(point.method("raise").unwrap());
    assert!(raise.contains("dsm_vol_acquire"));
    assert!(raise.contains("dsm_vol_release"));
}

#[test]
fn thread_start_site_substituted() {
    let rw = rewrite_program(&sample()).expect("rewrite");
    let thread = rw.program.class("javasplit.java.lang.Thread").unwrap();
    let start = disasm::fmt_method(thread.method("start").unwrap());
    assert!(start.contains("dsm_spawn"), "{start}");
    assert!(!start.contains("start0"), "{start}");
}

/// Figure 2's generated `DSM_serialize` is, here, the DSM codec walking the
/// loaded field layout of the rewritten class: a `Point` travels as its
/// instance fields in declaration order, and a `Thread`'s `target`
/// reference as the global id of the object it names (`writeGlobalIdOf`),
/// which sharing it in passing assigns — never as a deep copy.
#[test]
fn generated_serializers_match_figure2() {
    let rw = rewrite_program(&sample()).expect("rewrite");
    let image = Image::load(&rw.program).expect("load");
    let mut heap = Heap::new();
    let mut dsm = DsmNode::new(0, DsmConfig { mode: ProtocolMode::MtsHlrc, disable_local_locks: false, array_chunk: None });
    let mut alloc = |name: &str| {
        let class = image.class_id(name).expect(name);
        let c = image.class(class);
        (heap.alloc_object(class, c.field_names.len(), c.zeroed_fields()), class, c)
    };
    let (point, point_class, pc) = alloc("javasplit.demo.Point");
    let names: Vec<&str> = pc.field_names.iter().map(|n| &**n).collect();
    assert_eq!(names, ["x", "flag"]);
    let (thread, _, tc) = alloc("javasplit.java.lang.Thread");
    let target = tc.field_slot("target").expect("Thread.target") as usize;
    let set = |heap: &mut Heap, obj, slot: usize, v| match &mut heap.get_mut(obj).payload {
        ObjPayload::Fields(fs) => fs[slot] = v,
        _ => unreachable!("plain objects carry fields"),
    };
    set(&mut heap, point, 0, Value::I32(7));
    set(&mut heap, point, 1, Value::I32(1));
    set(&mut heap, thread, target, Value::Ref(point));

    assert_eq!(dsm.serialize_state(&mut heap, point), WireState::Fields(vec![WVal::I32(7), WVal::I32(1)]));
    assert!(heap.get(point).dsm.gid.is_none(), "serializing an object does not share it");
    let WireState::Fields(fields) = dsm.serialize_state(&mut heap, thread) else { panic!("a Thread is a plain object") };
    assert_eq!(fields.len(), tc.field_names.len());
    let gid = heap.get(point).dsm.gid.expect("the referenced Point is shared as it crosses");
    assert_eq!(fields[target], WVal::Ref(gid, point_class.0));
}

#[test]
fn disassembly_snapshot_is_stable() {
    let a = rewrite_program(&sample()).unwrap();
    let b = rewrite_program(&sample()).unwrap();
    assert_eq!(disasm::fmt_program(&a.program), disasm::fmt_program(&b.program));
    // And the whole rewritten program passes the rewritten-code verifier —
    // exercised inside rewrite_program, re-checked here explicitly.
    javasplit::mjvm::verifier::verify_program(
        &a.program,
        javasplit::mjvm::verifier::VerifyOptions::REWRITTEN,
    )
    .unwrap();
}

#[test]
fn instrumentation_statistics_are_plausible() {
    let rw = rewrite_program(&sample()).unwrap();
    let s = &rw.stats;
    assert!(s.checks_total() > 20, "stdlib + demo accesses: {}", s.checks_total());
    assert!(s.monitors_substituted >= 2);
    assert!(s.spawns_intercepted >= 1);
    assert_eq!(s.statics_classes, 1, "only demo.Point declares statics");
    assert!(s.volatile_wraps >= 1);
    assert!(s.growth() > 1.3 && s.growth() < 3.0, "growth {}", s.growth());
}
