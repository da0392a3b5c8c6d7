//! Distributed-semantics tests for the runtime features beyond the main
//! benchmarks: thread priorities in the grant order (§3.2), volatile
//! visibility (§3), virtual time, sleeping, the intercepted file service,
//! trap propagation, and the runaway guard.

use jsplit_mjvm::builder::ProgramBuilder;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_mjvm::instr::{Cmp, Ty};
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::ClusterConfig;

mod common;

fn js(nodes: usize, p: &Program) -> jsplit_runtime::RunReport {
    run_cluster(ClusterConfig::javasplit(JvmProfile::SunSim, nodes), p).expect("cluster")
}

#[test]
fn volatile_flag_publishes_across_nodes() {
    // Writer sets data then a volatile flag; reader spins on the flag and
    // then reads data — the classic safe-publication idiom. The volatile
    // bracket (acquire/release, paper §3) must make it work without any
    // explicit synchronization in the program.
    let mut pb = ProgramBuilder::new("M");
    pb.class("Box", "java.lang.Object", |cb| {
        cb.default_ctor("java.lang.Object");
        cb.field("data", Ty::I32).volatile_field("ready", Ty::I32);
    });
    pb.class("Writer", "java.lang.Thread", |cb| {
        cb.field("b", Ty::Ref);
        cb.method("<init>", &[Ty::Ref], None, |m| {
            m.load(0).invokespecial("java.lang.Thread", "<init>", &[], None);
            m.load(0).load(1).putfield("Writer", "b").ret();
        });
        cb.method("run", &[], None, |m| {
            m.load(0).getfield("Writer", "b").const_i32(99).putfield("Box", "data");
            m.load(0).getfield("Writer", "b").const_i32(1).putfield("Box", "ready");
            m.ret();
        });
    });
    pb.class("M", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, |m| {
            m.construct("Box", &[], |_| {}).store(0);
            m.construct("Writer", &[Ty::Ref], |m| {
                m.load(0);
            })
            .invokevirtual("start", &[], None);
            // spin on the volatile flag
            let top = m.new_label();
            m.bind(top);
            m.load(0).getfield("Box", "ready").if_i(Cmp::Eq, top);
            m.load(0).getfield("Box", "data").println_i32();
            m.ret();
        });
    });
    let p = pb.build_with_stdlib();
    for nodes in [1usize, 2] {
        let r = js(nodes, &p);
        r.expect_clean();
        assert_eq!(r.output, vec!["99"], "{nodes} nodes");
    }
}

#[test]
fn priorities_order_the_grant_queue() {
    // Main holds the lock while three workers of priorities 2, 9, 5 queue
    // on it; the grant order must be 9, 5, 2 (paper §3.2: "the current
    // owner needs always to pass ownership to the requester with the
    // highest priority"). Each worker appends its priority to the log
    // vector inside its critical section.
    let mut pb = ProgramBuilder::new("M");
    pb.class("W", "java.lang.Thread", |cb| {
        cb.field("lockObj", Ty::Ref).field("log", Ty::Ref).field("tag", Ty::Ref);
        cb.method("<init>", &[Ty::Ref, Ty::Ref, Ty::Ref, Ty::I32], None, |m| {
            m.load(0).invokespecial("java.lang.Thread", "<init>", &[], None);
            m.load(0).load(1).putfield("W", "lockObj");
            m.load(0).load(2).putfield("W", "log");
            m.load(0).load(3).putfield("W", "tag");
            m.load(0).load(4).invokevirtual("setPriority", &[Ty::I32], None);
            m.ret();
        });
        cb.method("run", &[], None, |m| {
            m.load(0).getfield("W", "lockObj").monitor_enter();
            m.load(0)
                .getfield("W", "log")
                .load(0)
                .getfield("W", "tag")
                .invokevirtual("addElement", &[Ty::Ref], None);
            m.load(0).getfield("W", "lockObj").monitor_exit();
            m.ret();
        });
    });
    pb.class("M", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, |m| {
            m.construct("java.lang.Object", &[], |_| {}).store(0); // the lock
            m.construct("java.util.Vector", &[Ty::I32], |m| {
                m.const_i32(4);
            })
            .store(1); // the log
            // Hold the lock while starting the contenders, then sleep so
            // all three requests are queued before the release.
            m.load(0).monitor_enter();
            m.const_i32(3).jsplit_newarray_ref(); // workers array -> local 2
            m.store(2);
            for (i, (tag, prio)) in [("p2", 2), ("p9", 9), ("p5", 5)].iter().enumerate() {
                m.load(2).const_i32(i as i32);
                m.construct("W", &[Ty::Ref, Ty::Ref, Ty::Ref, Ty::I32], |m| {
                    m.load(0).load(1).ldc_str(tag).const_i32(*prio);
                });
                m.jsplit_astore_ref();
                m.load(2).const_i32(i as i32).jsplit_aload_ref().invokevirtual("start", &[], None);
            }
            m.const_i64(50).invokestatic("java.lang.Thread", "sleep", &[Ty::I64], None);
            m.load(0).monitor_exit();
            // join all, then print the log order
            for i in 0..3 {
                m.load(2).const_i32(i).jsplit_aload_ref().invokevirtual("join", &[], None);
            }
            for i in 0..3 {
                m.load(1).const_i32(i).invokevirtual("elementAt", &[Ty::I32], Some(Ty::Ref)).println_str();
            }
            m.ret();
        });
    });
    let p = pb.build_with_stdlib();
    let r = js(2, &p);
    r.expect_clean();
    assert_eq!(r.output, vec!["p9", "p5", "p2"]);
}

// Small sugar for Ref arrays in this test file.
trait RefArr {
    fn jsplit_newarray_ref(&mut self) -> &mut Self;
    fn jsplit_astore_ref(&mut self) -> &mut Self;
    fn jsplit_aload_ref(&mut self) -> &mut Self;
}
impl RefArr for jsplit_mjvm::builder::MethodBuilder {
    fn jsplit_newarray_ref(&mut self) -> &mut Self {
        self.newarray(jsplit_mjvm::instr::ElemTy::Ref)
    }
    fn jsplit_astore_ref(&mut self) -> &mut Self {
        self.astore(jsplit_mjvm::instr::ElemTy::Ref)
    }
    fn jsplit_aload_ref(&mut self) -> &mut Self {
        self.aload(jsplit_mjvm::instr::ElemTy::Ref)
    }
}

#[test]
fn sleep_advances_virtual_time() {
    let mut pb = ProgramBuilder::new("M");
    pb.class("M", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, |m| {
            m.invokestatic("java.lang.System", "currentTimeMillis", &[], Some(Ty::I64)).store(0);
            m.const_i64(25).invokestatic("java.lang.Thread", "sleep", &[Ty::I64], None);
            m.invokestatic("java.lang.System", "currentTimeMillis", &[], Some(Ty::I64));
            m.load(0).lsub().println_i64();
            m.ret();
        });
    });
    let r = js(1, &pb.build_with_stdlib());
    r.expect_clean();
    let elapsed: i64 = r.output[0].parse().unwrap();
    assert!((25..100).contains(&elapsed), "elapsed {elapsed} ms");
    assert!(r.exec_time_ps >= 25 * 1_000_000_000);
}

#[test]
fn vfile_round_trips_lines() {
    let mut pb = ProgramBuilder::new("M");
    pb.class("M", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, |m| {
            m.ldc_str("out.txt").invokestatic("java.io.VFile", "open", &[Ty::Ref], Some(Ty::I32)).store(0);
            m.load(0).ldc_str("alpha").invokestatic("java.io.VFile", "writeLine", &[Ty::I32, Ty::Ref], None);
            m.load(0).ldc_str("beta").invokestatic("java.io.VFile", "writeLine", &[Ty::I32, Ty::Ref], None);
            m.load(0).invokestatic("java.io.VFile", "readLine", &[Ty::I32], Some(Ty::Ref)).println_str();
            m.load(0).invokestatic("java.io.VFile", "readLine", &[Ty::I32], Some(Ty::Ref)).println_str();
            // EOF -> null
            let eof = m.new_label();
            let done = m.new_label();
            m.load(0).invokestatic("java.io.VFile", "readLine", &[Ty::I32], Some(Ty::Ref)).if_null(eof);
            m.ldc_str("more").println_str().goto(done);
            m.bind(eof).ldc_str("eof").println_str();
            m.bind(done);
            m.load(0).invokestatic("java.io.VFile", "close", &[Ty::I32], None);
            m.ret();
        });
    });
    let r = js(1, &pb.build_with_stdlib());
    r.expect_clean();
    assert_eq!(r.output, vec!["alpha", "beta", "eof"]);
}

#[test]
fn traps_kill_the_thread_and_surface_in_the_report() {
    let mut pb = ProgramBuilder::new("M");
    pb.class("W", "java.lang.Thread", |cb| {
        cb.default_ctor("java.lang.Thread");
        cb.method("run", &[], None, |m| {
            m.const_i32(1).const_i32(0).idiv().println_i32().ret();
        });
    });
    pb.class("M", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, |m| {
            m.construct("W", &[], |_| {}).store(0);
            m.load(0).invokevirtual("start", &[], None);
            // Don't join (the worker dies); just print.
            m.ldc_str("main done").println_str();
            m.ret();
        });
    });
    let r = js(2, &pb.build_with_stdlib());
    assert_eq!(r.output, vec!["main done"]);
    assert_eq!(r.errors.len(), 1);
    assert!(matches!(r.errors[0].1, jsplit_mjvm::interp::VmError::DivByZero { .. }));
    assert!(!r.deadlocked);
}

#[test]
fn max_ops_guard_aborts_runaway_programs() {
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 1).with_max_ops(100_000);
    let r = run_cluster(cfg, &common::runaway()).expect("cluster");
    assert!(r.aborted);
    assert!(r.ops >= 100_000);
}

#[test]
fn remote_deadlock_is_detected() {
    let r = js(2, &common::lock_order_deadlock());
    assert!(r.deadlocked, "classic lock-order deadlock must be detected");
}
