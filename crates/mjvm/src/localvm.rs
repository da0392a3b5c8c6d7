//! The baseline single-node VM: the "original, unmodified JVM" of the paper.
//!
//! Runs a (non-rewritten) multithreaded MJVM program with deterministic
//! round-robin green threads, classic in-heap object monitors, `wait` /
//! `notify`, sleeping and a virtual clock driven by the cost model. It is the
//! correctness oracle for differential tests against the distributed runtime
//! and (with the runtime's multi-CPU scheduler) the denominator of the
//! paper's speedup plots.

use crate::cost::CostModel;
use crate::heap::{Heap, ObjRef, ThreadUid};
use crate::interp::{self, Frame, MonOutcome, StepCtx, StepState, Thread, VmEnv, VmError};
use crate::loader::{Image, LoadError, MethodId};
use crate::pcode::{self, PImage};
use crate::value::Value;
use crate::verifier::{self, VerifyOptions};
use std::collections::VecDeque;
use std::sync::Arc;

/// Instructions per scheduling quantum.
const QUANTUM: u32 = 4_096;

/// Result of a completed run.
#[derive(Debug)]
pub struct RunResult {
    /// Console lines, in emission order.
    pub output: Vec<String>,
    /// Virtual execution time in picoseconds (single CPU: sum of all costs).
    pub time_ps: u64,
    /// Instructions retired.
    pub ops: u64,
    /// Threads that died with a trap.
    pub errors: Vec<(ThreadUid, VmError)>,
    /// `true` if the VM stopped because every remaining thread was blocked.
    pub deadlocked: bool,
}

/// Baseline VM environment: classic in-heap monitors, local scheduling.
/// Public so the distributed runtime can reuse it for the paper's
/// "Original" (unrewritten, single dual-CPU node) configuration.
pub struct BaselineEnv {
    pub model: &'static CostModel,
    /// Threads to move to the ready queue after the current quantum.
    pub wakes: Vec<ThreadUid>,
    /// Thread objects passed to `spawn` during the current quantum.
    pub spawns: Vec<ObjRef>,
    /// Sleepers: (wake time ps, thread).
    pub sleepers: Vec<(u64, ThreadUid)>,
    pub output: Vec<String>,
    pub clock_ps: u64,
    pub thread_class: crate::loader::ClassId,
    files: std::collections::HashMap<i32, (String, Vec<String>, usize)>,
    next_fd: i32,
}

impl BaselineEnv {
    pub fn new(model: &'static CostModel, thread_class: crate::loader::ClassId) -> BaselineEnv {
        BaselineEnv {
            model,
            wakes: Vec::new(),
            spawns: Vec::new(),
            sleepers: Vec::new(),
            output: Vec::new(),
            clock_ps: 0,
            thread_class,
            files: Default::default(),
            next_fd: 3,
        }
    }

    fn grant_or_wake(&mut self, heap: &mut Heap, obj: ObjRef) {
        let mon = heap.get_mut(obj).monitor_mut();
        if mon.owner.is_some() {
            return;
        }
        if let Some(&(uid, count)) = mon.entry_q.front() {
            if count > 0 {
                // wait()-resumer: granted directly with its saved count.
                mon.entry_q.pop_front();
                mon.owner = Some(uid);
                mon.count = count;
            }
            // retry-style enterer: just wake it; it re-executes monitorenter.
            self.wakes.push(uid);
        }
    }
}

impl VmEnv for BaselineEnv {
    fn monitor_enter(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> MonOutcome {
        let uid = t.uid;
        let mon = heap.get_mut(obj).monitor_mut();
        match mon.owner {
            None => {
                mon.owner = Some(uid);
                mon.count = 1;
                mon.entry_q.retain(|&(u, _)| u != uid);
                MonOutcome::Entered { cost: self.model.monitor_enter }
            }
            Some(o) if o == uid => {
                mon.count += 1;
                MonOutcome::Entered { cost: self.model.monitor_enter }
            }
            Some(_) => {
                if !mon.entry_q.iter().any(|&(u, _)| u == uid) {
                    mon.entry_q.push_back((uid, 0));
                }
                MonOutcome::Blocked { cost: self.model.monitor_enter }
            }
        }
    }

    fn monitor_exit(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> Result<u64, VmError> {
        let uid = t.uid;
        {
            let mon = heap.get_mut(obj).monitor_mut();
            if mon.owner != Some(uid) {
                return Err(VmError::IllegalMonitorState { op: "monitorexit" });
            }
            mon.count -= 1;
            if mon.count > 0 {
                return Ok(self.model.monitor_exit);
            }
            mon.owner = None;
        }
        self.grant_or_wake(heap, obj);
        Ok(self.model.monitor_exit)
    }

    fn obj_wait(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef) -> Result<u64, VmError> {
        let uid = t.uid;
        {
            let mon = heap.get_mut(obj).monitor_mut();
            if mon.owner != Some(uid) {
                return Err(VmError::IllegalMonitorState { op: "wait" });
            }
            let saved = mon.count;
            mon.wait_q.push_back((uid, saved));
            mon.owner = None;
            mon.count = 0;
        }
        self.grant_or_wake(heap, obj);
        Ok(self.model.monitor_exit + self.model.monitor_enter)
    }

    fn obj_notify(&mut self, heap: &mut Heap, t: &mut Thread, obj: ObjRef, all: bool) -> Result<u64, VmError> {
        let uid = t.uid;
        let mon = heap.get_mut(obj).monitor_mut();
        if mon.owner != Some(uid) {
            return Err(VmError::IllegalMonitorState { op: "notify" });
        }
        let n = if all { mon.wait_q.len() } else { 1.min(mon.wait_q.len()) };
        for _ in 0..n {
            let e = mon.wait_q.pop_front().unwrap();
            mon.entry_q.push_back(e);
        }
        Ok(self.model.monitor_exit)
    }

    fn spawn(&mut self, _heap: &mut Heap, _t: &mut Thread, thread_obj: ObjRef, _via_dsm: bool) -> Result<u64, VmError> {
        self.spawns.push(thread_obj);
        Ok(self.model.invoke * 4)
    }

    fn sleep(&mut self, t: &mut Thread, millis: i64) -> u64 {
        let wake = self.clock_ps + (millis.max(0) as u64) * crate::cost::PS_PER_MS;
        self.sleepers.push((wake, t.uid));
        self.model.invoke
    }

    fn current_thread_obj(&mut self, heap: &mut Heap, t: &mut Thread) -> ObjRef {
        if let Some(r) = t.thread_obj {
            return r;
        }
        // The primordial main thread materialises its Thread object lazily.
        let cls = self.thread_class;
        let nf = 3; // target, priority, alive
        let r = heap.alloc_object(cls, nf, vec![Value::Null, Value::I32(5), Value::I32(1)]);
        t.thread_obj = Some(r);
        r
    }

    fn println(&mut self, _t: &Thread, line: &str) {
        self.output.push(line.to_string());
    }

    fn now_millis(&self) -> i64 {
        (self.clock_ps / crate::cost::PS_PER_MS) as i64
    }

    fn file_open(&mut self, name: &str) -> i32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.files.insert(fd, (name.to_string(), Vec::new(), 0));
        fd
    }

    fn file_write_line(&mut self, fd: i32, line: &str) {
        if let Some((_, lines, _)) = self.files.get_mut(&fd) {
            lines.push(line.to_string());
        }
    }

    fn file_read_line(&mut self, fd: i32) -> Option<String> {
        let (_, lines, pos) = self.files.get_mut(&fd)?;
        let line = lines.get(*pos)?.clone();
        *pos += 1;
        Some(line)
    }

    fn file_close(&mut self, _fd: i32) {}
}

/// The baseline VM.
pub struct LocalVm {
    image: Arc<Image>,
    /// Predecoded bodies (direct-threaded fast path), built at load time.
    pimage: Arc<PImage>,
    heap: Heap,
    env: BaselineEnv,
    threads: Vec<Option<Thread>>,
    ready: VecDeque<ThreadUid>,
    thread_main: MethodId,
    errors: Vec<(ThreadUid, VmError)>,
    ops: u64,
    /// Hard cap on retired instructions (runaway-program guard in tests).
    pub max_ops: u64,
    /// Use the classic enum-dispatch interpreter instead of the predecoded
    /// executor (the differential suites run both and compare).
    pub classic_interp: bool,
}

impl LocalVm {
    /// Load and prepare a program. Verifies it under the ORIGINAL policy.
    pub fn new(program: &crate::class::Program, model: &'static CostModel) -> Result<LocalVm, LoadError> {
        if let Err(errs) = verifier::verify_program(program, VerifyOptions::ORIGINAL) {
            panic!("program failed verification: {}", errs[0]);
        }
        let image = Arc::new(Image::load(program)?);
        let pimage = Arc::new(pcode::predecode(&image, model));
        let mut heap = Heap::new();
        heap.init_statics(&image);
        let thread_class = image.class_id_any(crate::stdlib::THREAD).expect("stdlib Thread");
        let thread_main = image
            .resolve_method(
                image.class_id_any(crate::stdlib::JSRUNTIME).expect("JSRuntime"),
                &crate::class::Sig::new("threadMain", &[crate::instr::Ty::Ref], None),
            )
            .expect("threadMain");
        let main = image.main_method;
        let main_locals = image.method(main).max_locals;
        let mut vm = LocalVm {
            image,
            pimage,
            heap,
            env: BaselineEnv::new(model, thread_class),
            threads: Vec::new(),
            ready: VecDeque::new(),
            thread_main,
            errors: Vec::new(),
            ops: 0,
            max_ops: u64::MAX,
            classic_interp: false,
        };
        let root = Frame::new(main, main_locals, vec![], false);
        vm.add_thread(root);
        Ok(vm)
    }

    fn add_thread(&mut self, root: Frame) -> ThreadUid {
        let uid = self.threads.len() as ThreadUid;
        self.threads.push(Some(Thread::new(uid, root)));
        self.ready.push_back(uid);
        uid
    }

    /// Access the image (tests use it for reflection-style asserts).
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Run to completion (all threads finished, deadlocked or trapped).
    pub fn run(mut self) -> RunResult {
        loop {
            // Wake due sleepers; if nothing is ready, jump the clock.
            if self.ready.is_empty() && !self.env.sleepers.is_empty() {
                let min = self.env.sleepers.iter().map(|&(w, _)| w).min().unwrap();
                self.env.clock_ps = self.env.clock_ps.max(min);
            }
            let due: Vec<ThreadUid> = {
                let clock = self.env.clock_ps;
                let (due, rest): (Vec<_>, Vec<_>) =
                    self.env.sleepers.drain(..).partition(|&(w, _)| w <= clock);
                self.env.sleepers = rest;
                due.into_iter().map(|(_, u)| u).collect()
            };
            for u in due {
                self.ready.push_back(u);
            }

            let Some(uid) = self.ready.pop_front() else {
                let alive = self.threads.iter().flatten().count();
                let deadlocked = alive > 0;
                return self.finish(deadlocked);
            };
            let mut thread = match self.threads[uid as usize].take() {
                Some(t) => t,
                None => continue,
            };

            let image = self.image.clone();
            let pimage = self.pimage.clone();
            let model = self.env.model;
            let outcome = {
                let mut ctx = StepCtx {
                    image: &image,
                    heap: &mut self.heap,
                    env: &mut self.env,
                    cost: model,
                };
                if self.classic_interp {
                    interp::step(&mut thread, &mut ctx, QUANTUM)
                } else {
                    pcode::step(&mut thread, &mut ctx, &pimage, QUANTUM)
                }
            };

            match outcome {
                Ok(out) => {
                    self.env.clock_ps += out.cost;
                    self.ops += out.ops;
                    match out.state {
                        StepState::Running => {
                            self.threads[uid as usize] = Some(thread);
                            self.ready.push_back(uid);
                        }
                        StepState::Blocked => {
                            self.threads[uid as usize] = Some(thread);
                        }
                        StepState::Done => { /* thread retired */ }
                    }
                }
                Err(e) => {
                    self.errors.push((uid, e));
                }
            }

            // Materialize spawns requested during the quantum.
            let spawns: Vec<ObjRef> = self.env.spawns.drain(..).collect();
            for tobj in spawns {
                let m = self.image.method(self.thread_main);
                let frame = Frame::new(self.thread_main, m.max_locals, vec![Value::Ref(tobj)], false);
                let new_uid = self.add_thread(frame);
                self.threads[new_uid as usize].as_mut().unwrap().thread_obj = Some(tobj);
            }
            // Move woken threads to the ready queue.
            let wakes: Vec<ThreadUid> = self.env.wakes.drain(..).collect();
            for w in wakes {
                if self.threads[w as usize].is_some() && !self.ready.contains(&w) {
                    self.ready.push_back(w);
                }
            }

            if self.ops > self.max_ops {
                return self.finish(true);
            }
        }
    }

    fn finish(self, deadlocked: bool) -> RunResult {
        RunResult {
            output: self.env.output,
            time_ps: self.env.clock_ps,
            ops: self.ops,
            errors: self.errors,
            deadlocked,
        }
    }
}

/// Convenience: build, run and return the console output of a program on the
/// Sun profile (the common test harness path).
pub fn run_program(program: &crate::class::Program) -> RunResult {
    LocalVm::new(program, crate::cost::JvmProfile::SunSim.cost_model())
        .expect("load")
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::{Cmp, ElemTy, Ty};

    fn run(f: impl FnOnce(&mut crate::builder::MethodBuilder)) -> RunResult {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, f);
        });
        run_program(&pb.build_with_stdlib())
    }

    #[test]
    fn hello_world() {
        let r = run(|m| {
            m.ldc_str("hello, world").println_str().ret();
        });
        assert_eq!(r.output, vec!["hello, world"]);
        assert!(r.errors.is_empty());
        assert!(!r.deadlocked);
        assert!(r.time_ps > 0);
    }

    #[test]
    fn arithmetic_loop() {
        // sum 0..100 = 4950
        let r = run(|m| {
            let top = m.new_label();
            let out = m.new_label();
            m.const_i32(0).store(0).const_i32(0).store(1);
            m.bind(top);
            m.load(1).const_i32(100).if_icmp(Cmp::Ge, out);
            m.load(0).load(1).iadd().store(0);
            m.iinc(1, 1).goto(top);
            m.bind(out).load(0).println_i32().ret();
        });
        assert_eq!(r.output, vec!["4950"]);
    }

    #[test]
    fn objects_and_virtual_dispatch() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("A", "java.lang.Object", |cb| {
            cb.default_ctor("java.lang.Object");
            cb.method("f", &[], Some(Ty::I32), |m| {
                m.const_i32(1).ret_val();
            });
        });
        pb.class("B", "A", |cb| {
            cb.default_ctor("A");
            cb.method("f", &[], Some(Ty::I32), |m| {
                m.const_i32(2).ret_val();
            });
        });
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.construct("B", &[], |_| {})
                    .invokevirtual("f", &[], Some(Ty::I32))
                    .println_i32()
                    .ret();
            });
        });
        let r = run_program(&pb.build_with_stdlib());
        assert_eq!(r.output, vec!["2"]);
    }

    #[test]
    fn arrays_and_doubles() {
        let r = run(|m| {
            m.const_i32(3).newarray(ElemTy::F64).store(0);
            m.load(0).const_i32(1).const_f64(2.5).astore(ElemTy::F64);
            m.load(0).const_i32(1).aload(ElemTy::F64);
            m.const_f64(4.0).dmul().println_f64();
            m.load(0).arraylen().println_i32();
            m.ret();
        });
        assert_eq!(r.output, vec!["10.0", "3"]);
    }

    #[test]
    fn math_natives() {
        let r = run(|m| {
            m.const_f64(16.0)
                .invokestatic("java.lang.Math", "sqrt", &[Ty::F64], Some(Ty::F64))
                .println_f64()
                .ret();
        });
        assert_eq!(r.output, vec!["4.0"]);
    }

    #[test]
    fn string_builder_formats() {
        let r = run(|m| {
            m.construct("java.lang.StringBuilder", &[], |_| {}).store(0);
            m.load(0).ldc_str("n=").invokevirtual("append", &[Ty::Ref], Some(Ty::Ref)).pop_();
            m.load(0).const_i32(42).invokevirtual("appendI", &[Ty::I32], Some(Ty::Ref)).pop_();
            m.load(0).invokevirtual("toString", &[], Some(Ty::Ref)).println_str().ret();
        });
        assert_eq!(r.output, vec!["n=42"]);
    }

    #[test]
    fn spawn_and_join() {
        // A worker thread increments a shared cell; main joins then prints.
        let mut pb = ProgramBuilder::new("M");
        pb.class("Cell", "java.lang.Object", |cb| {
            cb.default_ctor("java.lang.Object");
            cb.field("v", Ty::I32);
        });
        pb.class("W", "java.lang.Thread", |cb| {
            cb.field("cell", Ty::Ref);
            cb.method("<init>", &[Ty::Ref], None, |m| {
                m.load(0)
                    .invokespecial("java.lang.Thread", "<init>", &[], None)
                    .load(0)
                    .load(1)
                    .putfield("W", "cell")
                    .ret();
            });
            cb.method("run", &[], None, |m| {
                m.load(0)
                    .getfield("W", "cell")
                    .const_i32(41)
                    .putfield("Cell", "v")
                    .ret();
            });
        });
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.construct("Cell", &[], |_| {}).store(0);
                m.construct("W", &[Ty::Ref], |m| {
                    m.load(0);
                })
                .store(1);
                m.load(1).invokevirtual("start", &[], None);
                m.load(1).invokevirtual("join", &[], None);
                m.load(0).getfield("Cell", "v").const_i32(1).iadd().println_i32();
                m.ret();
            });
        });
        let r = run_program(&pb.build_with_stdlib());
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert!(!r.deadlocked);
        assert_eq!(r.output, vec!["42"]);
    }

    #[test]
    fn wait_notify_producer_consumer() {
        // Consumer waits for flag; producer sets it and notifies.
        let mut pb = ProgramBuilder::new("M");
        pb.class("Box", "java.lang.Object", |cb| {
            cb.default_ctor("java.lang.Object");
            cb.field("full", Ty::I32);
            cb.synchronized_method("take", &[], Some(Ty::I32), |m| {
                let top = m.new_label();
                let out = m.new_label();
                m.bind(top);
                m.load(0).getfield("Box", "full").if_i(Cmp::Ne, out);
                m.load(0).invokevirtual("wait", &[], None);
                m.goto(top);
                m.bind(out).load(0).getfield("Box", "full").ret_val();
            });
            cb.synchronized_method("put", &[Ty::I32], None, |m| {
                m.load(0).load(1).putfield("Box", "full");
                m.load(0).invokevirtual("notifyAll", &[], None);
                m.ret();
            });
        });
        pb.class("Producer", "java.lang.Thread", |cb| {
            cb.field("box", Ty::Ref);
            cb.method("<init>", &[Ty::Ref], None, |m| {
                m.load(0)
                    .invokespecial("java.lang.Thread", "<init>", &[], None)
                    .load(0)
                    .load(1)
                    .putfield("Producer", "box")
                    .ret();
            });
            cb.method("run", &[], None, |m| {
                m.load(0)
                    .getfield("Producer", "box")
                    .const_i32(7)
                    .invokevirtual("put", &[Ty::I32], None)
                    .ret();
            });
        });
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.construct("Box", &[], |_| {}).store(0);
                m.construct("Producer", &[Ty::Ref], |m| {
                    m.load(0);
                })
                .invokevirtual("start", &[], None);
                m.load(0).invokevirtual("take", &[], Some(Ty::I32)).println_i32();
                m.ret();
            });
        });
        let r = run_program(&pb.build_with_stdlib());
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert!(!r.deadlocked);
        assert_eq!(r.output, vec!["7"]);
    }

    #[test]
    fn deadlock_detected() {
        // main waits forever on an un-notified object.
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.construct("java.lang.Object", &[], |_| {}).store(0);
                m.load(0).monitor_enter();
                m.load(0).invokevirtual("wait", &[], None);
                m.load(0).monitor_exit();
                m.ret();
            });
        });
        let r = run_program(&pb.build_with_stdlib());
        assert!(r.deadlocked);
    }

    #[test]
    fn vector_is_usable() {
        let r = {
            let mut pb = ProgramBuilder::new("M");
            pb.class("M", "java.lang.Object", |cb| {
                cb.static_method("main", &[], None, |m| {
                    m.construct("java.util.Vector", &[Ty::I32], |m| {
                        m.const_i32(1);
                    })
                    .store(0);
                    for s in ["a", "b", "c"] {
                        m.load(0).ldc_str(s).invokevirtual("addElement", &[Ty::Ref], None);
                    }
                    m.load(0).invokevirtual("size", &[], Some(Ty::I32)).println_i32();
                    m.load(0)
                        .invokevirtual("removeLast", &[], Some(Ty::Ref))
                        .println_str();
                    m.load(0)
                        .const_i32(0)
                        .invokevirtual("elementAt", &[Ty::I32], Some(Ty::Ref))
                        .println_str();
                    m.ret();
                });
            });
            run_program(&pb.build_with_stdlib())
        };
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.output, vec!["3", "c", "a"]);
    }

    #[test]
    fn div_by_zero_traps() {
        let r = run(|m| {
            m.const_i32(1).const_i32(0).idiv().println_i32().ret();
        });
        assert_eq!(r.errors.len(), 1);
        assert!(matches!(r.errors[0].1, VmError::DivByZero { .. }));
    }

    #[test]
    fn random_is_deterministic() {
        let gen = |seed: i64| {
            let mut pb = ProgramBuilder::new("M");
            pb.class("M", "java.lang.Object", |cb| {
                cb.static_method("main", &[], None, move |m| {
                    m.construct("java.util.Random", &[Ty::I64], |m| {
                        m.const_i64(seed);
                    })
                    .store(0);
                    for _ in 0..3 {
                        m.load(0)
                            .const_i32(100)
                            .invokevirtual("nextInt", &[Ty::I32], Some(Ty::I32))
                            .println_i32();
                    }
                    m.ret();
                });
            });
            run_program(&pb.build_with_stdlib()).output
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }
}
