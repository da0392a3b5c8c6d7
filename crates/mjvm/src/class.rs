//! The symbolic class-file model: what the builder produces, what the
//! JavaSplit rewriter transforms, and what the loader resolves.

use crate::instr::{Instr, Ty};
use std::fmt;
use std::sync::Arc;

/// A method signature: name, parameter types and return type. Plays the role
/// of the JVM's `NameAndType` constant — overload resolution uses the full
/// parameter list, as in real class files.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sig {
    pub name: Arc<str>,
    pub params: Vec<Ty>,
    pub ret: Option<Ty>,
}

impl Sig {
    pub fn new(name: &str, params: &[Ty], ret: Option<Ty>) -> Self {
        Sig { name: name.into(), params: params.to_vec(), ret }
    }

    /// Number of argument slots *excluding* the receiver.
    pub fn nargs(&self) -> usize {
        self.params.len()
    }
}

impl fmt::Display for Sig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for p in &self.params {
            write!(f, "{}", p.descriptor())?;
        }
        write!(f, "){}", self.ret.map(|t| t.descriptor()).unwrap_or('V'))
    }
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    pub name: Arc<str>,
    pub ty: Ty,
    pub is_static: bool,
    /// Volatile fields get acquire/release bracketing from the rewriter
    /// (paper §3: natural mapping of volatiles onto LRC release-acquire).
    pub is_volatile: bool,
}

/// A method definition with its body.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDef {
    pub sig: Sig,
    pub is_static: bool,
    /// `synchronized` methods are desugared by the rewriter into an explicit
    /// monitor-wrapped body before handler substitution (paper §4 change 2).
    pub is_synchronized: bool,
    /// Native methods have no bytecode body; they resolve to intrinsics.
    /// User-defined native methods are rejected by the rewriter (paper §4).
    pub is_native: bool,
    /// Number of local-variable slots (including parameters & receiver).
    pub max_locals: u16,
    pub code: Vec<Instr>,
}

impl MethodDef {
    /// Locals occupied by the parameters (receiver included for instance
    /// methods).
    pub fn param_slots(&self) -> u16 {
        self.sig.params.len() as u16 + if self.is_static { 0 } else { 1 }
    }
}

/// A class: the unit the JavaSplit rewriter transforms one at a time
/// (paper §4: "the bytecode rewriter individually transforms each class").
#[derive(Debug, Clone, PartialEq)]
pub struct ClassFile {
    pub name: Arc<str>,
    /// Superclass name; `None` only for the root `java.lang.Object`.
    pub super_name: Option<Arc<str>>,
    pub fields: Vec<FieldDef>,
    pub methods: Vec<MethodDef>,
    /// Marks classes belonging to the bootstrap library (rewritten via the
    /// dedicated bootstrap path, paper §4.1).
    pub is_bootstrap: bool,
}

impl ClassFile {
    pub fn new(name: &str, super_name: Option<&str>) -> Self {
        ClassFile {
            name: name.into(),
            super_name: super_name.map(Into::into),
            fields: Vec::new(),
            methods: Vec::new(),
            is_bootstrap: false,
        }
    }

    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| &*f.name == name)
    }

    pub fn method(&self, name: &str) -> Option<&MethodDef> {
        self.methods.iter().find(|m| &*m.sig.name == name)
    }

    /// `true` if any declared field is static (such classes get a `C_static`
    /// companion from the rewriter, paper §4.2).
    pub fn has_statics(&self) -> bool {
        self.fields.iter().any(|f| f.is_static)
    }
}

/// A whole program: a set of classes plus the entry point, the unit submitted
/// for distributed execution (paper Figure 1).
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub classes: Vec<ClassFile>,
    /// Class whose `main()V` static method starts the application.
    pub main_class: Arc<str>,
}

impl Program {
    pub fn class(&self, name: &str) -> Option<&ClassFile> {
        self.classes.iter().find(|c| &*c.name == name)
    }

    /// Total instruction count over all method bodies (used by rewriter
    /// statistics and tests).
    pub fn code_size(&self) -> usize {
        self.classes
            .iter()
            .flat_map(|c| &c.methods)
            .map(|m| m.code.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_display() {
        let s = Sig::new("foo", &[Ty::I32, Ty::Ref], Some(Ty::F64));
        assert_eq!(s.to_string(), "foo(IL)D");
        let v = Sig::new("run", &[], None);
        assert_eq!(v.to_string(), "run()V");
    }

    #[test]
    fn param_slots_counts_receiver() {
        let m = MethodDef {
            sig: Sig::new("m", &[Ty::I32], None),
            is_static: false,
            is_synchronized: false,
            is_native: false,
            max_locals: 2,
            code: vec![],
        };
        assert_eq!(m.param_slots(), 2);
        let s = MethodDef { is_static: true, ..m };
        assert_eq!(s.param_slots(), 1);
    }

    #[test]
    fn class_lookup() {
        let mut c = ClassFile::new("A", Some("java.lang.Object"));
        c.fields.push(FieldDef { name: "x".into(), ty: Ty::I32, is_static: false, is_volatile: false });
        c.fields.push(FieldDef { name: "S".into(), ty: Ty::I32, is_static: true, is_volatile: false });
        assert!(c.field("x").is_some());
        assert!(c.field("y").is_none());
        assert!(c.has_statics());
    }
}
