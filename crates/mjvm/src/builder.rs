//! Fluent assembler for MJVM programs.
//!
//! Programs (including the paper's benchmark applications — TSP, Series, the
//! 3D ray tracer) are authored through [`ProgramBuilder`] /
//! [`ClassBuilder`] / [`MethodBuilder`]. Labels are declared with
//! [`MethodBuilder::new_label`], bound with [`MethodBuilder::bind`], and
//! resolved to program-counter indices when the method is finished.

use crate::class::{ClassFile, FieldDef, MethodDef, Program, Sig};
use crate::instr::{Cmp, ElemTy, Instr, Ty};
use crate::value::Value;

/// Builds a whole [`Program`].
pub struct ProgramBuilder {
    classes: Vec<ClassFile>,
    main_class: String,
}

impl ProgramBuilder {
    /// `main_class` must end up containing a `static main()V` method.
    pub fn new(main_class: &str) -> Self {
        ProgramBuilder { classes: Vec::new(), main_class: main_class.to_string() }
    }

    /// Define a class through a closure and attach it to the program.
    pub fn class(&mut self, name: &str, super_name: &str, f: impl FnOnce(&mut ClassBuilder)) -> &mut Self {
        let mut cb = ClassBuilder { cf: ClassFile::new(name, Some(super_name)) };
        f(&mut cb);
        self.classes.push(cb.cf);
        self
    }

    /// Finish with only the user classes (no bootstrap library).
    pub fn build(self) -> Program {
        Program { classes: self.classes, main_class: self.main_class.into() }
    }

    /// Finish and append the MJVM bootstrap library ([`crate::stdlib`]) —
    /// the normal way to produce a loadable program.
    pub fn build_with_stdlib(self) -> Program {
        let mut p = self.build();
        p.classes.extend(crate::stdlib::stdlib_classes());
        p
    }
}

/// Builds one class.
pub struct ClassBuilder {
    cf: ClassFile,
}

impl ClassBuilder {
    /// Declare an instance field.
    pub fn field(&mut self, name: &str, ty: Ty) -> &mut Self {
        self.cf.fields.push(FieldDef { name: name.into(), ty, is_static: false, is_volatile: false });
        self
    }

    /// Declare a `volatile` instance field.
    pub fn volatile_field(&mut self, name: &str, ty: Ty) -> &mut Self {
        self.cf.fields.push(FieldDef { name: name.into(), ty, is_static: false, is_volatile: true });
        self
    }

    /// Declare a static field.
    pub fn static_field(&mut self, name: &str, ty: Ty) -> &mut Self {
        self.cf.fields.push(FieldDef { name: name.into(), ty, is_static: true, is_volatile: false });
        self
    }

    /// Mark this class as part of the bootstrap library (paper §4.1).
    pub fn bootstrap(&mut self) -> &mut Self {
        self.cf.is_bootstrap = true;
        self
    }

    fn add_method(
        &mut self,
        name: &str,
        params: &[Ty],
        ret: Option<Ty>,
        is_static: bool,
        is_synchronized: bool,
        f: impl FnOnce(&mut MethodBuilder),
    ) {
        let sig = Sig::new(name, params, ret);
        let mut mb = MethodBuilder::new(sig.clone(), is_static);
        f(&mut mb);
        self.cf.methods.push(mb.finish(is_synchronized));
    }

    /// Define an instance method (`this` is local 0, parameters follow).
    pub fn method(&mut self, name: &str, params: &[Ty], ret: Option<Ty>, f: impl FnOnce(&mut MethodBuilder)) -> &mut Self {
        self.add_method(name, params, ret, false, false, f);
        self
    }

    /// Define a `synchronized` instance method.
    pub fn synchronized_method(
        &mut self,
        name: &str,
        params: &[Ty],
        ret: Option<Ty>,
        f: impl FnOnce(&mut MethodBuilder),
    ) -> &mut Self {
        self.add_method(name, params, ret, false, true, f);
        self
    }

    /// Define a static method (parameters start at local 0).
    pub fn static_method(&mut self, name: &str, params: &[Ty], ret: Option<Ty>, f: impl FnOnce(&mut MethodBuilder)) -> &mut Self {
        self.add_method(name, params, ret, true, false, f);
        self
    }

    /// Declare a native method (body supplied by an intrinsic).
    pub fn native_method(&mut self, name: &str, params: &[Ty], ret: Option<Ty>, is_static: bool) -> &mut Self {
        self.cf.methods.push(MethodDef {
            sig: Sig::new(name, params, ret),
            is_static,
            is_synchronized: false,
            is_native: true,
            max_locals: 0,
            code: vec![],
        });
        self
    }

    /// Define a trivial constructor that only calls `super.<init>()`.
    pub fn default_ctor(&mut self, super_name: &str) -> &mut Self {
        let sup = super_name.to_string();
        self.method("<init>", &[], None, |m| {
            m.load(0).invokespecial(&sup, "<init>", &[], None).ret();
        });
        self
    }
}

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Builds one method body.
pub struct MethodBuilder {
    sig: Sig,
    is_static: bool,
    code: Vec<Instr>,
    /// label id -> bound pc
    labels: Vec<Option<usize>>,
    max_local: u16,
}

impl MethodBuilder {
    fn new(sig: Sig, is_static: bool) -> Self {
        let params = sig.params.len() as u16 + if is_static { 0 } else { 1 };
        MethodBuilder { sig, is_static, code: Vec::new(), labels: Vec::new(), max_local: params }
    }

    fn finish(mut self, is_synchronized: bool) -> MethodDef {
        // Resolve label placeholders stored as label ids into pc indices.
        for ins in &mut self.code {
            if let Some(t) = ins.branch_target() {
                let pc = self.labels[t].unwrap_or_else(|| panic!("unbound label L{t} in {}", self.sig));
                ins.set_branch_target(pc);
            }
        }
        MethodDef {
            sig: self.sig,
            is_static: self.is_static,
            is_synchronized,
            is_native: false,
            max_locals: self.max_local,
            code: self.code,
        }
    }

    fn emit(&mut self, i: Instr) -> &mut Self {
        self.code.push(i);
        self
    }

    /// Current code offset (used by tests and the rewriter).
    pub fn pc(&self) -> usize {
        self.code.len()
    }

    /// Declare a new, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind a label to the current position.
    pub fn bind(&mut self, l: Label) -> &mut Self {
        assert!(self.labels[l.0].is_none(), "label L{} bound twice", l.0);
        self.labels[l.0] = Some(self.code.len());
        self
    }

    // ---- constants & stack ----
    pub fn const_i32(&mut self, v: i32) -> &mut Self {
        self.emit(Instr::Const(Value::I32(v)))
    }
    pub fn const_i64(&mut self, v: i64) -> &mut Self {
        self.emit(Instr::Const(Value::I64(v)))
    }
    pub fn const_f64(&mut self, v: f64) -> &mut Self {
        self.emit(Instr::Const(Value::F64(v)))
    }
    pub fn const_null(&mut self) -> &mut Self {
        self.emit(Instr::Const(Value::Null))
    }
    pub fn ldc_str(&mut self, s: &str) -> &mut Self {
        self.emit(Instr::LdcStr(s.into()))
    }
    pub fn dup(&mut self) -> &mut Self {
        self.emit(Instr::Dup)
    }
    pub fn dup_x1(&mut self) -> &mut Self {
        self.emit(Instr::DupX1)
    }
    pub fn pop_(&mut self) -> &mut Self {
        self.emit(Instr::Pop)
    }
    pub fn swap(&mut self) -> &mut Self {
        self.emit(Instr::Swap)
    }

    // ---- locals ----
    pub fn load(&mut self, n: u16) -> &mut Self {
        self.max_local = self.max_local.max(n + 1);
        self.emit(Instr::Load(n))
    }
    pub fn store(&mut self, n: u16) -> &mut Self {
        self.max_local = self.max_local.max(n + 1);
        self.emit(Instr::Store(n))
    }
    pub fn iinc(&mut self, n: u16, delta: i32) -> &mut Self {
        self.max_local = self.max_local.max(n + 1);
        self.emit(Instr::IInc(n, delta))
    }

    // ---- arithmetic ----
    pub fn iadd(&mut self) -> &mut Self {
        self.emit(Instr::IAdd)
    }
    pub fn isub(&mut self) -> &mut Self {
        self.emit(Instr::ISub)
    }
    pub fn imul(&mut self) -> &mut Self {
        self.emit(Instr::IMul)
    }
    pub fn idiv(&mut self) -> &mut Self {
        self.emit(Instr::IDiv)
    }
    pub fn irem(&mut self) -> &mut Self {
        self.emit(Instr::IRem)
    }
    pub fn ineg(&mut self) -> &mut Self {
        self.emit(Instr::INeg)
    }
    pub fn ishl(&mut self) -> &mut Self {
        self.emit(Instr::IShl)
    }
    pub fn ishr(&mut self) -> &mut Self {
        self.emit(Instr::IShr)
    }
    pub fn iushr(&mut self) -> &mut Self {
        self.emit(Instr::IUShr)
    }
    pub fn iand(&mut self) -> &mut Self {
        self.emit(Instr::IAnd)
    }
    pub fn ior(&mut self) -> &mut Self {
        self.emit(Instr::IOr)
    }
    pub fn ixor(&mut self) -> &mut Self {
        self.emit(Instr::IXor)
    }
    pub fn ladd(&mut self) -> &mut Self {
        self.emit(Instr::LAdd)
    }
    pub fn lsub(&mut self) -> &mut Self {
        self.emit(Instr::LSub)
    }
    pub fn lmul(&mut self) -> &mut Self {
        self.emit(Instr::LMul)
    }
    pub fn ldiv(&mut self) -> &mut Self {
        self.emit(Instr::LDiv)
    }
    pub fn lrem(&mut self) -> &mut Self {
        self.emit(Instr::LRem)
    }
    pub fn lneg(&mut self) -> &mut Self {
        self.emit(Instr::LNeg)
    }
    pub fn dadd(&mut self) -> &mut Self {
        self.emit(Instr::DAdd)
    }
    pub fn dsub(&mut self) -> &mut Self {
        self.emit(Instr::DSub)
    }
    pub fn dmul(&mut self) -> &mut Self {
        self.emit(Instr::DMul)
    }
    pub fn ddiv(&mut self) -> &mut Self {
        self.emit(Instr::DDiv)
    }
    pub fn drem(&mut self) -> &mut Self {
        self.emit(Instr::DRem)
    }
    pub fn dneg(&mut self) -> &mut Self {
        self.emit(Instr::DNeg)
    }

    // ---- conversions & comparisons ----
    pub fn i2l(&mut self) -> &mut Self {
        self.emit(Instr::I2L)
    }
    pub fn i2d(&mut self) -> &mut Self {
        self.emit(Instr::I2D)
    }
    pub fn l2i(&mut self) -> &mut Self {
        self.emit(Instr::L2I)
    }
    pub fn l2d(&mut self) -> &mut Self {
        self.emit(Instr::L2D)
    }
    pub fn d2i(&mut self) -> &mut Self {
        self.emit(Instr::D2I)
    }
    pub fn d2l(&mut self) -> &mut Self {
        self.emit(Instr::D2L)
    }
    pub fn lcmp(&mut self) -> &mut Self {
        self.emit(Instr::LCmp)
    }
    pub fn dcmp(&mut self) -> &mut Self {
        self.emit(Instr::DCmp)
    }

    // ---- control flow ----
    pub fn goto(&mut self, l: Label) -> &mut Self {
        self.emit(Instr::Goto(l.0))
    }
    pub fn if_icmp(&mut self, c: Cmp, l: Label) -> &mut Self {
        self.emit(Instr::IfICmp(c, l.0))
    }
    pub fn if_i(&mut self, c: Cmp, l: Label) -> &mut Self {
        self.emit(Instr::IfI(c, l.0))
    }
    pub fn if_null(&mut self, l: Label) -> &mut Self {
        self.emit(Instr::IfNull(l.0))
    }
    pub fn if_acmp_eq(&mut self, l: Label) -> &mut Self {
        self.emit(Instr::IfACmpEq(l.0))
    }
    pub fn if_acmp_ne(&mut self, l: Label) -> &mut Self {
        self.emit(Instr::IfACmpNe(l.0))
    }

    // ---- heap ----
    pub fn new_(&mut self, class: &str) -> &mut Self {
        self.emit(Instr::New(class.into()))
    }
    pub fn getfield(&mut self, class: &str, field: &str) -> &mut Self {
        self.emit(Instr::GetField(class.into(), field.into()))
    }
    pub fn putfield(&mut self, class: &str, field: &str) -> &mut Self {
        self.emit(Instr::PutField(class.into(), field.into()))
    }
    pub fn getstatic(&mut self, class: &str, field: &str) -> &mut Self {
        self.emit(Instr::GetStatic(class.into(), field.into()))
    }
    pub fn putstatic(&mut self, class: &str, field: &str) -> &mut Self {
        self.emit(Instr::PutStatic(class.into(), field.into()))
    }
    pub fn newarray(&mut self, elem: ElemTy) -> &mut Self {
        self.emit(Instr::NewArray(elem))
    }
    pub fn aload(&mut self, elem: ElemTy) -> &mut Self {
        self.emit(Instr::ALoad(elem))
    }
    pub fn astore(&mut self, elem: ElemTy) -> &mut Self {
        self.emit(Instr::AStore(elem))
    }
    pub fn arraylen(&mut self) -> &mut Self {
        self.emit(Instr::ArrayLen)
    }

    // ---- invocation ----
    pub fn invokestatic(&mut self, class: &str, name: &str, params: &[Ty], ret: Option<Ty>) -> &mut Self {
        self.emit(Instr::InvokeStatic(class.into(), Sig::new(name, params, ret)))
    }
    pub fn invokevirtual(&mut self, name: &str, params: &[Ty], ret: Option<Ty>) -> &mut Self {
        self.emit(Instr::InvokeVirtual(Sig::new(name, params, ret)))
    }
    pub fn invokespecial(&mut self, class: &str, name: &str, params: &[Ty], ret: Option<Ty>) -> &mut Self {
        self.emit(Instr::InvokeSpecial(class.into(), Sig::new(name, params, ret)))
    }
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Instr::Return)
    }
    pub fn ret_val(&mut self) -> &mut Self {
        self.emit(Instr::ReturnVal)
    }

    // ---- synchronization ----
    pub fn monitor_enter(&mut self) -> &mut Self {
        self.emit(Instr::MonitorEnter)
    }
    pub fn monitor_exit(&mut self) -> &mut Self {
        self.emit(Instr::MonitorExit)
    }
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::Nop)
    }

    // ---- composite conveniences ----

    /// `new C; dup; <push args via f>; invokespecial C.<init>` — leaves the
    /// constructed object on the stack.
    pub fn construct(&mut self, class: &str, params: &[Ty], push_args: impl FnOnce(&mut Self)) -> &mut Self {
        self.new_(class).dup();
        push_args(self);
        self.invokespecial(class, "<init>", params, None)
    }

    /// `System.println(String)` on the string on top of the stack.
    pub fn println_str(&mut self) -> &mut Self {
        self.invokestatic("java.lang.System", "println", &[Ty::Ref], None)
    }

    /// `System.println(int)` on the i32 on top of the stack.
    pub fn println_i32(&mut self) -> &mut Self {
        self.invokestatic("java.lang.System", "printlnI", &[Ty::I32], None)
    }

    /// `System.println(double)` on the f64 on top of the stack.
    pub fn println_f64(&mut self) -> &mut Self {
        self.invokestatic("java.lang.System", "printlnD", &[Ty::F64], None)
    }

    /// `System.println(long)` on the i64 on top of the stack.
    pub fn println_i64(&mut self) -> &mut Self {
        self.invokestatic("java.lang.System", "printlnJ", &[Ty::I64], None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                let top = m.new_label();
                let done = m.new_label();
                m.const_i32(0).store(0);
                m.bind(top);
                m.load(0).const_i32(10).if_icmp(Cmp::Ge, done);
                m.iinc(0, 1).goto(top);
                m.bind(done).ret();
            });
        });
        let p = pb.build();
        let code = &p.class("M").unwrap().method("main").unwrap().code;
        // `done` must point at the final Return, `top` back at pc 2.
        let if_target = code.iter().find_map(|i| match i {
            Instr::IfICmp(_, t) => Some(*t),
            _ => None,
        });
        assert_eq!(if_target, Some(code.len() - 1));
        let goto_target = code.iter().find_map(|i| match i {
            Instr::Goto(t) => Some(*t),
            _ => None,
        });
        assert_eq!(goto_target, Some(2));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                let l = m.new_label();
                m.goto(l).ret();
            });
        });
    }

    #[test]
    fn max_locals_tracks_stores_and_params() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.method("f", &[Ty::I32, Ty::I32], None, |m| {
                m.const_i32(1).store(7).ret();
            });
        });
        let p = pb.build();
        assert_eq!(p.class("M").unwrap().method("f").unwrap().max_locals, 8);
    }

    #[test]
    fn fields_and_flags() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.field("a", Ty::I32)
                .volatile_field("v", Ty::I64)
                .static_field("s", Ty::Ref);
            cb.synchronized_method("m", &[], None, |m| {
                m.ret();
            });
            cb.native_method("n", &[], Some(Ty::I32), true);
        });
        let p = pb.build();
        let c = p.class("M").unwrap();
        assert!(!c.field("a").unwrap().is_volatile);
        assert!(c.field("v").unwrap().is_volatile);
        assert!(c.field("s").unwrap().is_static);
        assert!(c.method("m").unwrap().is_synchronized);
        assert!(c.method("n").unwrap().is_native);
    }
}
