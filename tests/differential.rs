//! Differential property testing: for randomly generated, data-race-free
//! multithreaded programs, the rewritten program on any cluster must produce
//! exactly the output of the original program on the baseline VM — the
//! paper's transparency claim, checked over a whole program space instead of
//! three hand-picked benchmarks.
//!
//! Program space: `t` worker threads each execute a random sequence of
//! operations against shared state, all under monitors (so every program is
//! DRF by construction) and designed so the *observable output* is
//! schedule-independent:
//!
//! * add a constant to a shared counter (synchronized) — total is
//!   commutative;
//! * write into a per-thread slot of a shared array — slots are disjoint;
//! * push then pop its own marker on the shared Vector — net size is zero;
//! * spin on local arithmetic — perturbs timing only.
//!
//! Main joins everything and prints the counter, the array and the Vector
//! size.

use javasplit::mjvm::builder::ProgramBuilder;
use javasplit::mjvm::class::Program;
use javasplit::mjvm::cost::JvmProfile;
use javasplit::mjvm::instr::{Cmp, ElemTy, Ty};
use javasplit::runtime::exec::run_cluster;
use javasplit::runtime::{Balancer, ClusterConfig};
use proptest::prelude::*;

#[path = "../crates/runtime/tests/common/spawn_shapes.rs"]
mod spawn_shapes;

/// The hand-built multi-wave and nested-spawn programs of the backend
/// matrix (`crates/runtime/tests`) are transparent too: the sequential
/// single-JVM `LocalVm`, the one-node baseline and a 3-node cluster under
/// either stateful balancer all print the oracle's lines.
#[test]
fn spawn_shape_programs_match_the_local_vm_oracle() {
    for (prog, leaves) in [(spawn_shapes::two_wave(3, 2), 5), (spawn_shapes::nested(2, 2), 4)] {
        let expected = spawn_shapes::expected_output(leaves);
        let local = javasplit::mjvm::localvm::run_program(&prog);
        assert!(local.errors.is_empty(), "LocalVm trapped: {:?}", local.errors);
        assert_eq!(local.output, expected, "LocalVm vs oracle");
        let mut configs = vec![ClusterConfig::baseline(JvmProfile::SunSim, 2)];
        configs.extend([Balancer::LeastLoaded, Balancer::RoundRobin].map(|b| ClusterConfig::javasplit(JvmProfile::SunSim, 3).with_balancer(b)));
        for cfg in configs {
            let ctx = format!("{:?}/{:?}", cfg.mode, cfg.balancer);
            let r = run_cluster(cfg, &prog).unwrap();
            r.expect_clean();
            assert_eq!(r.output, expected, "{ctx} vs oracle");
        }
    }
}

/// One worker action.
#[derive(Debug, Clone)]
enum Op {
    /// counter.add(k)
    Add(i32),
    /// slots[self] += k (disjoint per worker)
    Slot(i32),
    /// vector.addElement(x); vector.removeLast()
    PushPop,
    /// burn `n` iterations of local arithmetic
    Spin(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-50i32..50).prop_map(Op::Add),
        (-9i32..9).prop_map(Op::Slot),
        Just(Op::PushPop),
        (1u8..20).prop_map(Op::Spin),
    ]
}

#[derive(Debug, Clone)]
struct Spec {
    workers: Vec<Vec<Op>>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..8), 1..5)
        .prop_map(|workers| Spec { workers })
}

/// Compile a spec into an MJVM program.
fn build(spec: &Spec) -> Program {
    let nworkers = spec.workers.len() as i32;
    let mut pb = ProgramBuilder::new("D");
    pb.class("State", "java.lang.Object", |cb| {
        cb.default_ctor("java.lang.Object");
        cb.field("counter", Ty::I32).field("slots", Ty::Ref).field("vec", Ty::Ref);
        cb.synchronized_method("add", &[Ty::I32], None, |m| {
            m.load(0).load(0).getfield("State", "counter").load(1).iadd().putfield("State", "counter").ret();
        });
        cb.synchronized_method("slot", &[Ty::I32, Ty::I32], None, |m| {
            // slots[i] += k
            m.load(0).getfield("State", "slots").load(1);
            m.load(0).getfield("State", "slots").load(1).aload(ElemTy::I32).load(2).iadd();
            m.astore(ElemTy::I32);
            m.ret();
        });
    });
    // One worker class per distinct op list (they may differ in body).
    for (i, ops) in spec.workers.iter().enumerate() {
        let cls = format!("W{i}");
        let ops = ops.clone();
        let idx = i as i32;
        pb.class(&cls, "java.lang.Thread", |cb| {
            cb.field("st", Ty::Ref);
            let cls2 = cls.clone();
            cb.method("<init>", &[Ty::Ref], None, move |m| {
                m.load(0).invokespecial("java.lang.Thread", "<init>", &[], None);
                m.load(0).load(1).putfield(&cls2, "st").ret();
            });
            let cls3 = cls.clone();
            cb.method("run", &[], None, move |m| {
                for op in &ops {
                    match op {
                        Op::Add(k) => {
                            m.load(0)
                                .getfield(&cls3, "st")
                                .const_i32(*k)
                                .invokevirtual("add", &[Ty::I32], None);
                        }
                        Op::Slot(k) => {
                            m.load(0)
                                .getfield(&cls3, "st")
                                .const_i32(idx)
                                .const_i32(*k)
                                .invokevirtual("slot", &[Ty::I32, Ty::I32], None);
                        }
                        Op::PushPop => {
                            m.load(0)
                                .getfield(&cls3, "st")
                                .getfield("State", "vec")
                                .ldc_str("m")
                                .invokevirtual("addElement", &[Ty::Ref], None);
                            m.load(0)
                                .getfield(&cls3, "st")
                                .getfield("State", "vec")
                                .invokevirtual("removeLast", &[], Some(Ty::Ref))
                                .pop_();
                        }
                        Op::Spin(n) => {
                            let top = m.new_label();
                            let end = m.new_label();
                            m.const_i32(0).store(1);
                            m.bind(top);
                            m.load(1).const_i32(*n as i32).if_icmp(Cmp::Ge, end);
                            m.load(1).const_i32(3).imul().const_i32(1).iadd().pop_();
                            m.iinc(1, 1).goto(top);
                            m.bind(end);
                        }
                    }
                }
                m.ret();
            });
        });
    }
    pb.class("D", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            // locals: 0=state 1=workers 2=i
            m.construct("State", &[], |_| {}).store(0);
            m.load(0).const_i32(nworkers).newarray(ElemTy::I32).putfield("State", "slots");
            m.load(0);
            m.construct("java.util.Vector", &[Ty::I32], |m| {
                m.const_i32(2);
            });
            m.putfield("State", "vec");
            m.const_i32(nworkers).newarray(ElemTy::Ref).store(1);
            for i in 0..nworkers {
                m.load(1).const_i32(i);
                m.construct(&format!("W{i}"), &[Ty::Ref], |m| {
                    m.load(0);
                });
                m.astore(ElemTy::Ref);
                m.load(1).const_i32(i).aload(ElemTy::Ref).invokevirtual("start", &[], None);
            }
            let jt = m.new_label();
            let je = m.new_label();
            m.const_i32(0).store(2);
            m.bind(jt);
            m.load(2).const_i32(nworkers).if_icmp(Cmp::Ge, je);
            m.load(1).load(2).aload(ElemTy::Ref).invokevirtual("join", &[], None);
            m.iinc(2, 1).goto(jt);
            m.bind(je);
            // print counter, each slot, vector size
            m.load(0).getfield("State", "counter").println_i32();
            for i in 0..nworkers {
                m.load(0).getfield("State", "slots").const_i32(i).aload(ElemTy::I32).println_i32();
            }
            m.load(0).getfield("State", "vec").invokevirtual("size", &[], Some(Ty::I32)).println_i32();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// Rust-side oracle for the expected output.
fn oracle(spec: &Spec) -> Vec<String> {
    let mut counter = 0i32;
    let mut slots = vec![0i32; spec.workers.len()];
    for (i, ops) in spec.workers.iter().enumerate() {
        for op in ops {
            match op {
                Op::Add(k) => counter = counter.wrapping_add(*k),
                Op::Slot(k) => slots[i] = slots[i].wrapping_add(*k),
                _ => {}
            }
        }
    }
    let mut out = vec![counter.to_string()];
    out.extend(slots.iter().map(|s| s.to_string()));
    out.push("0".to_string()); // vector net size
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn distributed_output_matches_baseline_and_oracle(spec in spec_strategy()) {
        let prog = build(&spec);
        let expected = oracle(&spec);

        let base = run_cluster(ClusterConfig::baseline(JvmProfile::SunSim, 2), &prog).unwrap();
        prop_assert!(base.errors.is_empty(), "baseline trapped: {:?}", base.errors);
        prop_assert!(!base.deadlocked);
        prop_assert_eq!(&base.output, &expected, "baseline vs oracle");

        for nodes in [1usize, 3] {
            let r = run_cluster(ClusterConfig::javasplit(JvmProfile::IbmSim, nodes), &prog).unwrap();
            prop_assert!(r.errors.is_empty(), "{nodes} nodes trapped: {:?}", r.errors);
            prop_assert!(!r.deadlocked, "{nodes} nodes deadlocked");
            prop_assert_eq!(&r.output, &expected, "{} nodes vs oracle", nodes);
        }
    }

    #[test]
    fn chunked_arrays_preserve_transparency(spec in spec_strategy()) {
        // Same differential property with the 4.3 region-CU extension on —
        // the chunk size is deliberately tiny so the shared slots array is
        // always chunked.
        let prog = build(&spec);
        let expected = oracle(&spec);
        let mut cfg = ClusterConfig::javasplit(JvmProfile::IbmSim, 3);
        cfg.array_chunk = Some(2);
        let r = run_cluster(cfg, &prog).unwrap();
        prop_assert!(r.errors.is_empty(), "chunked trapped: {:?}", r.errors);
        prop_assert!(!r.deadlocked);
        prop_assert_eq!(&r.output, &expected, "chunked vs oracle");
    }

    #[test]
    fn both_protocol_modes_agree(spec in spec_strategy()) {
        let prog = build(&spec);
        let expected = oracle(&spec);
        for mode in [javasplit::dsm::ProtocolMode::MtsHlrc, javasplit::dsm::ProtocolMode::ClassicHlrc] {
            let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 2).with_protocol(mode);
            let r = run_cluster(cfg, &prog).unwrap();
            prop_assert!(r.errors.is_empty(), "{mode:?} trapped: {:?}", r.errors);
            prop_assert_eq!(&r.output, &expected, "{:?} vs oracle", mode);
        }
    }
}
