//! Micro-benchmark kernels for Tables 1 and 2.
//!
//! Table 1 measures per-access heap latency, original vs rewritten; Table 2
//! measures local acquire cost (original monitor vs JavaSplit local-object
//! counter vs shared object). The kernels here are tight loops with an
//! `UNROLL`-way unrolled body so loop bookkeeping amortizes out; the harness
//! subtracts an empty-loop kernel to isolate the per-access cost, the same
//! way such micro-benchmarks are run on real JVMs.

use jsplit_mjvm::builder::ProgramBuilder;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::instr::{AccessKind, Cmp, ElemTy, Ty};

/// Accesses per loop iteration.
pub const UNROLL: usize = 16;

/// Which Table 1 row a kernel reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSpec {
    pub kind: AccessKind,
    pub write: bool,
}

impl AccessSpec {
    pub fn name(&self) -> String {
        let k = match self.kind {
            AccessKind::Field => "field",
            AccessKind::Static => "static",
            AccessKind::Array => "array",
        };
        format!("{k} {}", if self.write { "write" } else { "read" })
    }

    /// Operand-setup instructions wrapped around the access in
    /// [`access_kernel`]'s unrolled body (loads/stores/consts). The harness
    /// measures the generic-op cost with [`alu_kernel`] and subtracts
    /// `wrap_ops` of them to isolate the access itself.
    pub fn wrap_ops(&self) -> u32 {
        use AccessKind::*;
        match (self.kind, self.write) {
            (Field, false) => 2,  // load obj; store sink
            (Field, true) => 2,   // load obj; load val
            (Static, false) => 1, // store sink
            (Static, true) => 1,  // load val
            (Array, false) => 3,  // load arr; const idx; store sink
            (Array, true) => 3,   // load arr; const idx; load val
        }
    }

    /// All six Table 1 rows.
    pub const ALL: [AccessSpec; 6] = [
        AccessSpec { kind: AccessKind::Field, write: false },
        AccessSpec { kind: AccessKind::Field, write: true },
        AccessSpec { kind: AccessKind::Static, write: true },
        AccessSpec { kind: AccessKind::Static, write: false },
        AccessSpec { kind: AccessKind::Array, write: false },
        AccessSpec { kind: AccessKind::Array, write: true },
    ];
}

/// Empty-loop control kernel (same loop skeleton, no accesses).
pub fn empty_kernel(iters: i32) -> Program {
    let mut pb = ProgramBuilder::new("micro.Main");
    pb.class("micro.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(0);
            m.bind(top);
            m.load(0).const_i32(iters).if_icmp(Cmp::Ge, end);
            m.iinc(0, 1).goto(top);
            m.bind(end).const_i32(0).println_i32();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// Pure-ALU kernel: `iters` iterations of `UNROLL` (load; store) pairs —
/// measures the generic-op cost that [`AccessSpec::wrap_ops`] subtracts.
pub fn alu_kernel(iters: i32) -> Program {
    let mut pb = ProgramBuilder::new("micro.Main");
    pb.class("micro.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            m.const_i32(7).store(1);
            m.const_i32(0).store(2);
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(0);
            m.bind(top);
            m.load(0).const_i32(iters).if_icmp(Cmp::Ge, end);
            for _ in 0..UNROLL {
                m.load(1).store(2);
            }
            m.iinc(0, 1).goto(top);
            m.bind(end).load(2).println_i32();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// Heap-access kernel: `iters` iterations of `UNROLL` identical accesses.
pub fn access_kernel(spec: AccessSpec, iters: i32) -> Program {
    let mut pb = ProgramBuilder::new("micro.Main");
    pb.class("micro.Obj", "java.lang.Object", |cb| {
        cb.default_ctor("java.lang.Object");
        cb.field("x", Ty::I32);
        cb.static_field("s", Ty::I32);
    });
    pb.class("micro.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            // locals: 0=obj, 1=arr, 2=i, 3=sink
            m.construct("micro.Obj", &[], |_| {}).store(0);
            m.const_i32(8).newarray(ElemTy::I32).store(1);
            m.const_i32(0).store(3); // sink
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(2);
            m.bind(top);
            m.load(2).const_i32(iters).if_icmp(Cmp::Ge, end);
            for _ in 0..UNROLL {
                match (spec.kind, spec.write) {
                    (AccessKind::Field, false) => {
                        m.load(0).getfield("micro.Obj", "x").store(3);
                    }
                    (AccessKind::Field, true) => {
                        m.load(0).load(2).putfield("micro.Obj", "x");
                    }
                    (AccessKind::Static, false) => {
                        m.getstatic("micro.Obj", "s").store(3);
                    }
                    (AccessKind::Static, true) => {
                        m.load(2).putstatic("micro.Obj", "s");
                    }
                    (AccessKind::Array, false) => {
                        m.load(1).const_i32(3).aload(ElemTy::I32).store(3);
                    }
                    (AccessKind::Array, true) => {
                        m.load(1).const_i32(3).load(2).astore(ElemTy::I32);
                    }
                }
            }
            m.iinc(2, 1).goto(top);
            m.bind(end).load(3).println_i32();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// Which Table 2 row an acquire kernel reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireVariant {
    /// `monitorenter` on the baseline (original) VM — and a never-escaping
    /// object on JavaSplit (the §4.4 lock-counter fast path).
    LocalObject,
    /// The locked object is first made *shared* (it escapes to a helper
    /// thread which is joined before the measurement), so every acquire
    /// goes through the shared-object handler — without communication,
    /// which is exactly Table 2's "local acquire" definition.
    SharedObject,
}

/// Lock/unlock kernel: `iters` iterations of `UNROLL` enter/exit pairs.
pub fn acquire_kernel(variant: AcquireVariant, iters: i32) -> Program {
    let mut pb = ProgramBuilder::new("micro.Main");
    pb.class("micro.Toucher", "java.lang.Thread", |cb| {
        cb.field("o", Ty::Ref);
        cb.method("<init>", &[Ty::Ref], None, |m| {
            m.load(0).invokespecial("java.lang.Thread", "<init>", &[], None);
            m.load(0).load(1).putfield("micro.Toucher", "o").ret();
        });
        cb.method("run", &[], None, |m| {
            // Lock it once so the object provably escapes.
            m.load(0).getfield("micro.Toucher", "o").monitor_enter();
            m.load(0).getfield("micro.Toucher", "o").monitor_exit();
            m.ret();
        });
    });
    pb.class("micro.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            m.construct("java.lang.Object", &[], |_| {}).store(0);
            if variant == AcquireVariant::SharedObject {
                // Escape the object through a helper thread.
                m.construct("micro.Toucher", &[Ty::Ref], |m| {
                    m.load(0);
                })
                .store(1);
                m.load(1).invokevirtual("start", &[], None);
                m.load(1).invokevirtual("join", &[], None);
            }
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(2);
            m.bind(top);
            m.load(2).const_i32(iters).if_icmp(Cmp::Ge, end);
            for _ in 0..UNROLL {
                m.load(0).monitor_enter();
                m.load(0).monitor_exit();
            }
            m.iinc(2, 1).goto(top);
            m.bind(end).const_i32(0).println_i32();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// "Unneeded synchronization" kernel (§4.4): a single thread fills a
/// *private* `java.util.Vector` — every `addElement` is a synchronized
/// method on an object only one thread ever touches, the exact pattern the
/// paper says dominates Java bootstrap classes. With the local-object lock
/// counter this is cheap; with the fast path disabled (ablation) every add
/// pays the shared-object handler.
pub fn vector_sync_kernel(iters: i32) -> Program {
    let mut pb = ProgramBuilder::new("micro.Main");
    pb.class("micro.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            m.construct("java.util.Vector", &[Ty::I32], |m| {
                m.const_i32(16);
            })
            .store(0);
            m.ldc_str("x").store(1);
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(2);
            m.bind(top);
            m.load(2).const_i32(iters).if_icmp(Cmp::Ge, end);
            m.load(0).load(1).invokevirtual("addElement", &[Ty::Ref], None);
            m.load(0).invokevirtual("removeLast", &[], Some(Ty::Ref)).pop_();
            m.iinc(2, 1).goto(top);
            m.bind(end);
            m.load(0).invokevirtual("size", &[], Some(Ty::I32)).println_i32();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// Block-parallel array kernel (for the §4.3 chunking ablation): `threads`
/// workers each fill a disjoint block of one shared `len`-element array;
/// main prints the checksum.
pub fn block_array_kernel(len: i32, threads: i32) -> Program {
    let block = len / threads;
    assert!(block > 0 && len % threads == 0);
    let mut pb = ProgramBuilder::new("micro.Main");
    pb.class("micro.BW", "java.lang.Thread", |cb| {
        cb.field("arr", Ty::Ref).field("id", Ty::I32);
        cb.method("<init>", &[Ty::Ref, Ty::I32], None, |m| {
            m.load(0).invokespecial("java.lang.Thread", "<init>", &[], None);
            m.load(0).load(1).putfield("micro.BW", "arr");
            m.load(0).load(2).putfield("micro.BW", "id").ret();
        });
        cb.method("run", &[], None, move |m| {
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(1);
            m.bind(top);
            m.load(1).const_i32(block).if_icmp(Cmp::Ge, end);
            m.load(0).getfield("micro.BW", "arr");
            m.load(0).getfield("micro.BW", "id").const_i32(block).imul().load(1).iadd();
            m.load(0).getfield("micro.BW", "id").const_i32(1000).imul().load(1).iadd();
            m.astore(ElemTy::I32);
            m.iinc(1, 1).goto(top);
            m.bind(end).ret();
        });
    });
    pb.class("micro.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            m.const_i32(len).newarray(ElemTy::I32).store(0);
            m.const_i32(threads).newarray(ElemTy::Ref).store(1);
            crate::common::spawn_join_all(m, threads, 1, 2, |m| {
                m.construct("micro.BW", &[Ty::Ref, Ty::I32], |m| {
                    m.load(0).load(2);
                });
            });
            let top = m.new_label();
            let end = m.new_label();
            m.const_i64(0).store(3).const_i32(0).store(2);
            m.bind(top);
            m.load(2).const_i32(len).if_icmp(Cmp::Ge, end);
            m.load(3).load(0).load(2).aload(ElemTy::I32).i2l().ladd().store(3);
            m.iinc(2, 1).goto(top);
            m.bind(end).load(3).println_i64();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

/// Skewed variant of [`block_array_kernel`]: worker 0 refills its block
/// `skew` times (idempotent overwrites — the checksum is unchanged), every
/// other worker once. One straggler node doing ~`skew`× the work is the
/// round-convoy scenario: under epoch sync each round is paced by the
/// slow node, under async sync the fast nodes run ahead to their own
/// horizons and park — the wall-clock gap between the two sync modes on
/// this kernel is what the convoy-regression tests measure.
pub fn skewed_block_array_kernel(len: i32, threads: i32, skew: i32) -> Program {
    let block = len / threads;
    assert!(block > 0 && len % threads == 0 && skew > 0);
    let mut pb = ProgramBuilder::new("micro.Main");
    pb.class("micro.SW", "java.lang.Thread", |cb| {
        cb.field("arr", Ty::Ref).field("id", Ty::I32);
        cb.method("<init>", &[Ty::Ref, Ty::I32], None, |m| {
            m.load(0).invokespecial("java.lang.Thread", "<init>", &[], None);
            m.load(0).load(1).putfield("micro.SW", "arr");
            m.load(0).load(2).putfield("micro.SW", "id").ret();
        });
        cb.method("run", &[], None, move |m| {
            // local 1 = inner index, 2 = repetitions left (skew for worker
            // 0, 1 for everyone else), computed in bytecode from the id.
            let other = m.new_label();
            let reps_done = m.new_label();
            m.load(0).getfield("micro.SW", "id").const_i32(0).if_icmp(Cmp::Ne, other);
            m.const_i32(skew).store(2).goto(reps_done);
            m.bind(other).const_i32(1).store(2);
            m.bind(reps_done);
            let rep_top = m.new_label();
            let rep_end = m.new_label();
            m.bind(rep_top);
            m.load(2).const_i32(0).if_icmp(Cmp::Le, rep_end);
            let top = m.new_label();
            let end = m.new_label();
            m.const_i32(0).store(1);
            m.bind(top);
            m.load(1).const_i32(block).if_icmp(Cmp::Ge, end);
            m.load(0).getfield("micro.SW", "arr");
            m.load(0).getfield("micro.SW", "id").const_i32(block).imul().load(1).iadd();
            m.load(0).getfield("micro.SW", "id").const_i32(1000).imul().load(1).iadd();
            m.astore(ElemTy::I32);
            m.iinc(1, 1).goto(top);
            m.bind(end).iinc(2, -1).goto(rep_top);
            m.bind(rep_end).ret();
        });
    });
    pb.class("micro.Main", "java.lang.Object", |cb| {
        cb.static_method("main", &[], None, move |m| {
            m.const_i32(len).newarray(ElemTy::I32).store(0);
            m.const_i32(threads).newarray(ElemTy::Ref).store(1);
            crate::common::spawn_join_all(m, threads, 1, 2, |m| {
                m.construct("micro.SW", &[Ty::Ref, Ty::I32], |m| {
                    m.load(0).load(2);
                });
            });
            let top = m.new_label();
            let end = m.new_label();
            m.const_i64(0).store(3).const_i32(0).store(2);
            m.bind(top);
            m.load(2).const_i32(len).if_icmp(Cmp::Ge, end);
            m.load(3).load(0).load(2).aload(ElemTy::I32).i2l().ladd().store(3);
            m.iinc(2, 1).goto(top);
            m.bind(end).load(3).println_i64();
            m.ret();
        });
    });
    pb.build_with_stdlib()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_mjvm::localvm::run_program;

    #[test]
    fn all_access_kernels_run() {
        for spec in AccessSpec::ALL {
            let r = run_program(&access_kernel(spec, 10));
            assert!(r.errors.is_empty(), "{}: {:?}", spec.name(), r.errors);
        }
        let r = run_program(&empty_kernel(10));
        assert!(r.errors.is_empty());
    }

    #[test]
    fn acquire_kernels_run() {
        for v in [AcquireVariant::LocalObject, AcquireVariant::SharedObject] {
            let r = run_program(&acquire_kernel(v, 10));
            assert!(r.errors.is_empty(), "{v:?}: {:?}", r.errors);
            assert!(!r.deadlocked);
        }
    }

    #[test]
    fn vector_sync_kernel_runs() {
        let r = run_program(&vector_sync_kernel(20));
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.output, vec!["0"]);
    }

    #[test]
    fn skewed_kernel_matches_uniform_checksum_and_is_slower() {
        let uniform = run_program(&block_array_kernel(32, 4));
        let skewed = run_program(&skewed_block_array_kernel(32, 4, 8));
        assert!(skewed.errors.is_empty(), "{:?}", skewed.errors);
        // The extra passes are idempotent overwrites: same checksum...
        assert_eq!(uniform.output, skewed.output);
        // ...but worker 0 really does ~8x the work.
        assert!(skewed.time_ps > uniform.time_ps);
    }

    #[test]
    fn more_iters_cost_more_time() {
        let t1 = run_program(&access_kernel(AccessSpec::ALL[0], 10)).time_ps;
        let t2 = run_program(&access_kernel(AccessSpec::ALL[0], 1000)).time_ps;
        assert!(t2 > t1);
    }
}
