//! Class loading and resolution.
//!
//! [`Image::load`] takes a symbolic [`Program`] plus the bootstrap library and
//! produces a resolved image: dense class/method/signature ids, flattened
//! field layouts (superclass fields first), per-class vtables indexed by
//! signature id, and *quickened* method bodies in which every symbolic heap or
//! call instruction has been replaced by its `*Q` variant — the same job the
//! JVM's resolution + quick-opcode machinery performs on first execution.

use crate::class::{ClassFile, Program, Sig};
use crate::instr::{AccessKind, ElemTy, Instr, Ty};
use crate::intrinsics::NativeOp;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Dense class index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Dense method index (global across classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodId(pub u32);

/// Dense virtual-dispatch signature index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SigId(pub u16);

/// Errors surfaced while resolving a program.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    DuplicateClass(String),
    UnknownClass(String),
    UnknownSuper { class: String, super_name: String },
    UnknownField { class: String, field: String },
    UnknownMethod { class: String, sig: String },
    UnknownNative { class: String, sig: String },
    NoMainMethod(String),
    StaticSynchronizedUnsupported { class: String, sig: String },
    CyclicInheritance(String),
    /// The program failed pre-load verification (first error).
    Unverified(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::DuplicateClass(c) => write!(f, "duplicate class {c}"),
            LoadError::UnknownClass(c) => write!(f, "unknown class {c}"),
            LoadError::UnknownSuper { class, super_name } => {
                write!(f, "class {class}: unknown superclass {super_name}")
            }
            LoadError::UnknownField { class, field } => {
                write!(f, "unknown field {class}.{field}")
            }
            LoadError::UnknownMethod { class, sig } => {
                write!(f, "unknown method {class}.{sig}")
            }
            LoadError::UnknownNative { class, sig } => {
                write!(f, "no intrinsic registered for native {class}.{sig}")
            }
            LoadError::NoMainMethod(c) => write!(f, "class {c} has no static main()V"),
            LoadError::StaticSynchronizedUnsupported { class, sig } => {
                write!(f, "static synchronized methods are unsupported: {class}.{sig}")
            }
            LoadError::CyclicInheritance(c) => write!(f, "cyclic inheritance through {c}"),
            LoadError::Unverified(e) => write!(f, "program failed verification: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// A resolved class.
#[derive(Debug)]
pub struct RClass {
    pub id: ClassId,
    pub name: Arc<str>,
    pub super_id: Option<ClassId>,
    /// Flattened instance-field layout: super fields first. Parallel arrays
    /// to keep the hot interpreter paths compact.
    pub field_names: Vec<Arc<str>>,
    pub field_tys: Vec<Ty>,
    pub field_volatile: Vec<bool>,
    /// Static fields declared by *this* class only (each class owns its
    /// static storage area, as in the JVM).
    pub static_names: Vec<Arc<str>>,
    pub static_tys: Vec<Ty>,
    /// Virtual method table indexed by [`SigId`].
    pub vtable: Vec<Option<MethodId>>,
    pub is_bootstrap: bool,
}

impl RClass {
    /// Zero-initialised instance field vector.
    pub fn zeroed_fields(&self) -> Vec<Value> {
        self.field_tys.iter().map(|t| Value::zero_of(*t)).collect()
    }

    /// Zero-initialised static storage.
    pub fn zeroed_statics(&self) -> Vec<Value> {
        self.static_tys.iter().map(|t| Value::zero_of(*t)).collect()
    }

    pub fn field_slot(&self, name: &str) -> Option<u16> {
        self.field_names.iter().position(|n| &**n == name).map(|i| i as u16)
    }
}

/// A resolved method.
#[derive(Debug)]
pub struct RMethod {
    pub id: MethodId,
    pub class: ClassId,
    pub sig: Sig,
    pub sig_id: SigId,
    pub is_static: bool,
    pub is_synchronized: bool,
    pub max_locals: u16,
    /// Quickened body; empty for natives.
    pub code: Vec<Instr>,
    /// Intrinsic implementation for native methods.
    pub native: Option<NativeOp>,
}

/// A fully resolved, executable program image. Immutable after load; the
/// per-node mutable state (heaps, statics) lives outside so several simulated
/// nodes can share one image, just as the paper distributes one set of
/// rewritten classes to every worker (§2).
#[derive(Debug)]
pub struct Image {
    pub classes: Vec<RClass>,
    pub methods: Vec<RMethod>,
    pub sigs: Vec<Sig>,
    name_to_class: HashMap<Arc<str>, ClassId>,
    /// Pseudo-classes used for array objects, one per element type.
    array_classes: [ClassId; 4],
    /// Pseudo-class for string objects.
    pub string_class: ClassId,
    pub main_method: MethodId,
    /// Per-call-site monomorphic inline caches for `InvokeVirtualQ`, indexed
    /// by the instruction's `site` id assigned during quickening. Each slot
    /// packs `(class + 1) << 32 | method` (0 = empty). Atomics because the
    /// image is shared (`Arc`) across simulated nodes; `Relaxed` suffices —
    /// a cache entry is pure memoization of the immutable vtable, so any
    /// stale or torn view only costs a refill, never a wrong target.
    vcall_cache: Vec<AtomicU64>,
}

impl Image {
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.name_to_class.get(name).copied()
    }

    /// Resolve a class by its original name *or* its rewritten
    /// `javasplit.`-prefixed name — runtime components that must find
    /// bootstrap classes (Thread, String, JSRuntime) work against both
    /// original and rewritten programs through this.
    pub fn class_id_any(&self, name: &str) -> Option<ClassId> {
        self.class_id(name)
            .or_else(|| self.class_id(&format!("javasplit.{name}")))
    }

    #[inline]
    pub fn class(&self, id: ClassId) -> &RClass {
        &self.classes[id.0 as usize]
    }

    #[inline]
    pub fn method(&self, id: MethodId) -> &RMethod {
        &self.methods[id.0 as usize]
    }

    #[inline]
    pub fn array_class(&self, elem: ElemTy) -> ClassId {
        self.array_classes[match elem {
            ElemTy::I32 => 0,
            ElemTy::I64 => 1,
            ElemTy::F64 => 2,
            ElemTy::Ref => 3,
        }]
    }

    /// Virtual dispatch: find the implementation of `sig` for runtime class
    /// `class`.
    #[inline]
    pub fn dispatch(&self, class: ClassId, sig: SigId) -> Option<MethodId> {
        self.classes[class.0 as usize].vtable.get(sig.0 as usize).copied().flatten()
    }

    /// Virtual dispatch through the call site's monomorphic inline cache.
    /// A hit (same receiver class as last time at this site) skips the
    /// vtable walk; a miss falls back to [`Image::dispatch`] and re-primes
    /// the cache. Deterministic: a hit returns exactly what `dispatch`
    /// would, since vtables are immutable after load.
    #[inline]
    pub fn dispatch_cached(&self, site: u32, class: ClassId, sig: SigId) -> Option<MethodId> {
        let slot = &self.vcall_cache[site as usize];
        let e = slot.load(Ordering::Relaxed);
        if (e >> 32) == class.0 as u64 + 1 {
            return Some(MethodId(e as u32));
        }
        let mid = self.dispatch(class, sig)?;
        slot.store(((class.0 as u64 + 1) << 32) | mid.0 as u64, Ordering::Relaxed);
        Some(mid)
    }

    /// Resolve `class.method(sig)` walking up the hierarchy (for
    /// `invokespecial` / `invokestatic`).
    pub fn resolve_method(&self, class: ClassId, sig: &Sig) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(cid) = cur {
            let c = self.class(cid);
            if let Some(mid) = self
                .methods
                .iter()
                .find(|m| m.class == cid && &m.sig == sig)
                .map(|m| m.id)
            {
                return Some(mid);
            }
            cur = c.super_id;
        }
        None
    }

    /// `true` if `sub` equals or inherits from `sup`.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).super_id;
        }
        false
    }

    /// Load and resolve a program. `program` should already include the
    /// bootstrap classes (see [`crate::builder::ProgramBuilder::build_with_stdlib`]).
    pub fn load(program: &Program) -> Result<Image, LoadError> {
        let mut name_to_class: HashMap<Arc<str>, ClassId> = HashMap::new();

        // Synthesize pseudo-classes for arrays and strings first so they get
        // stable ids and participate in vtable sizing (they have no methods).
        let mut all: Vec<ClassFile> = Vec::with_capacity(program.classes.len() + 5);
        for n in ["[I", "[J", "[D", "[Ljava.lang.Object;"] {
            let mut c = ClassFile::new(n, None);
            c.is_bootstrap = true;
            all.push(c);
        }
        all.extend(program.classes.iter().cloned());

        for (i, c) in all.iter().enumerate() {
            if name_to_class.insert(c.name.clone(), ClassId(i as u32)).is_some() {
                return Err(LoadError::DuplicateClass(c.name.to_string()));
            }
        }

        let string_class = name_to_class
            .get("java.lang.String")
            .or_else(|| name_to_class.get("javasplit.java.lang.String"))
            .copied()
            .ok_or_else(|| LoadError::UnknownClass("java.lang.String".into()))?;

        // Intern all virtual-dispatch signatures.
        let mut sigs: Vec<Sig> = Vec::new();
        let mut sig_ids: HashMap<Sig, SigId> = HashMap::new();
        let mut intern_sig = |sig: &Sig, sigs: &mut Vec<Sig>| -> SigId {
            if let Some(&id) = sig_ids.get(sig) {
                return id;
            }
            let id = SigId(sigs.len() as u16);
            sigs.push(sig.clone());
            sig_ids.insert(sig.clone(), id);
            id
        };

        // Resolve field layouts in topological (super-first) order.
        let mut classes: Vec<Option<RClass>> = (0..all.len()).map(|_| None).collect();
        let mut methods: Vec<RMethod> = Vec::new();

        fn layout(
            idx: usize,
            all: &[ClassFile],
            name_to_class: &HashMap<Arc<str>, ClassId>,
            classes: &mut Vec<Option<RClass>>,
            depth: usize,
        ) -> Result<(), LoadError> {
            if classes[idx].is_some() {
                return Ok(());
            }
            if depth > all.len() {
                return Err(LoadError::CyclicInheritance(all[idx].name.to_string()));
            }
            let cf = &all[idx];
            let (super_id, mut fnames, mut ftys, mut fvol) = match &cf.super_name {
                Some(sname) => {
                    let sid = *name_to_class.get(sname).ok_or_else(|| LoadError::UnknownSuper {
                        class: cf.name.to_string(),
                        super_name: sname.to_string(),
                    })?;
                    layout(sid.0 as usize, all, name_to_class, classes, depth + 1)?;
                    let sup = classes[sid.0 as usize].as_ref().unwrap();
                    (
                        Some(sid),
                        sup.field_names.clone(),
                        sup.field_tys.clone(),
                        sup.field_volatile.clone(),
                    )
                }
                None => (None, vec![], vec![], vec![]),
            };
            let mut static_names = Vec::new();
            let mut static_tys = Vec::new();
            for f in &cf.fields {
                if f.is_static {
                    static_names.push(f.name.clone());
                    static_tys.push(f.ty);
                } else {
                    fnames.push(f.name.clone());
                    ftys.push(f.ty);
                    fvol.push(f.is_volatile);
                }
            }
            classes[idx] = Some(RClass {
                id: ClassId(idx as u32),
                name: cf.name.clone(),
                super_id,
                field_names: fnames,
                field_tys: ftys,
                field_volatile: fvol,
                static_names,
                static_tys,
                vtable: vec![],
                is_bootstrap: cf.is_bootstrap,
            });
            Ok(())
        }

        for i in 0..all.len() {
            layout(i, &all, &name_to_class, &mut classes, 0)?;
        }
        let mut classes: Vec<RClass> = classes.into_iter().map(Option::unwrap).collect();

        // Register methods (bodies quickened in a second pass).
        let mut method_of: HashMap<(ClassId, Sig), MethodId> = HashMap::new();
        for (i, cf) in all.iter().enumerate() {
            let cid = ClassId(i as u32);
            for m in &cf.methods {
                if m.is_static && m.is_synchronized {
                    return Err(LoadError::StaticSynchronizedUnsupported {
                        class: cf.name.to_string(),
                        sig: m.sig.to_string(),
                    });
                }
                let native = if m.is_native {
                    Some(NativeOp::resolve(&cf.name, &m.sig).ok_or_else(|| {
                        LoadError::UnknownNative {
                            class: cf.name.to_string(),
                            sig: m.sig.to_string(),
                        }
                    })?)
                } else {
                    None
                };
                let id = MethodId(methods.len() as u32);
                let sig_id = intern_sig(&m.sig, &mut sigs);
                methods.push(RMethod {
                    id,
                    class: cid,
                    sig: m.sig.clone(),
                    sig_id,
                    is_static: m.is_static,
                    is_synchronized: m.is_synchronized,
                    max_locals: m.max_locals.max(m.param_slots()),
                    code: Vec::new(),
                    native,
                });
                method_of.insert((cid, m.sig.clone()), id);
            }
        }

        // Build vtables in inheritance order (supers first — class ids do
        // not follow the hierarchy because bootstrap classes are appended
        // after user classes): inherit from super, then override.
        let nsigs = sigs.len();
        let mut order: Vec<usize> = (0..classes.len()).collect();
        let depth_of = |mut i: usize, classes: &[RClass]| {
            let mut d = 0usize;
            while let Some(s) = classes[i].super_id {
                d += 1;
                i = s.0 as usize;
            }
            d
        };
        order.sort_by_key(|&i| depth_of(i, &classes));
        for i in order {
            let mut vt = match classes[i].super_id {
                Some(sid) => {
                    let mut v = classes[sid.0 as usize].vtable.clone();
                    v.resize(nsigs, None);
                    v
                }
                None => vec![None; nsigs],
            };
            for m in methods.iter().filter(|m| m.class.0 as usize == i && !m.is_static) {
                vt[m.sig_id.0 as usize] = Some(m.id);
            }
            classes[i].vtable = vt;
        }

        // Quicken method bodies.
        let find_field_slot = |class: &str, field: &str| -> Result<u16, LoadError> {
            let cid = name_to_class
                .get(class)
                .ok_or_else(|| LoadError::UnknownClass(class.to_string()))?;
            classes[cid.0 as usize].field_slot(field).ok_or_else(|| LoadError::UnknownField {
                class: class.to_string(),
                field: field.to_string(),
            })
        };
        let find_static = |class: &str, field: &str| -> Result<(ClassId, u16), LoadError> {
            // Statics are *not* inherited lookups in MJVM: accesses name the
            // declaring class directly (the builder guarantees this).
            let mut cur = Some(
                *name_to_class
                    .get(class)
                    .ok_or_else(|| LoadError::UnknownClass(class.to_string()))?,
            );
            while let Some(cid) = cur {
                let c = &classes[cid.0 as usize];
                if let Some(pos) = c.static_names.iter().position(|n| &**n == field) {
                    return Ok((cid, pos as u16));
                }
                cur = c.super_id;
            }
            Err(LoadError::UnknownField { class: class.to_string(), field: field.to_string() })
        };
        let resolve_static_call =
            |class: &str, sig: &Sig, method_of: &HashMap<(ClassId, Sig), MethodId>| -> Result<MethodId, LoadError> {
                let mut cur = Some(
                    *name_to_class
                        .get(class)
                        .ok_or_else(|| LoadError::UnknownClass(class.to_string()))?,
                );
                while let Some(cid) = cur {
                    if let Some(&mid) = method_of.get(&(cid, sig.clone())) {
                        return Ok(mid);
                    }
                    cur = classes[cid.0 as usize].super_id;
                }
                Err(LoadError::UnknownMethod { class: class.to_string(), sig: sig.to_string() })
            };

        let mut quickened: Vec<Vec<Instr>> = Vec::with_capacity(methods.len());
        let mut vcall_sites: u32 = 0;
        for (i, cf) in all.iter().enumerate() {
            let _cid = ClassId(i as u32);
            for m in &cf.methods {
                let mut code = Vec::with_capacity(m.code.len());
                for ins in &m.code {
                    code.push(match ins {
                        Instr::New(cn) => {
                            let cid = *name_to_class
                                .get(cn)
                                .ok_or_else(|| LoadError::UnknownClass(cn.to_string()))?;
                            Instr::NewQ(cid)
                        }
                        Instr::GetField(cn, fnm) => Instr::GetFieldQ {
                            slot: find_field_slot(cn, fnm)?,
                            kind_cost: access_kind_for(cn),
                        },
                        Instr::PutField(cn, fnm) => Instr::PutFieldQ {
                            slot: find_field_slot(cn, fnm)?,
                            kind_cost: access_kind_for(cn),
                        },
                        Instr::GetStatic(cn, fnm) => {
                            let (cid, slot) = find_static(cn, fnm)?;
                            Instr::GetStaticQ { class: cid, slot, free: fnm.starts_with("__javasplit") }
                        }
                        Instr::PutStatic(cn, fnm) => {
                            let (cid, slot) = find_static(cn, fnm)?;
                            Instr::PutStaticQ { class: cid, slot }
                        }
                        Instr::InvokeStatic(cn, sig) => {
                            Instr::InvokeStaticQ(resolve_static_call(cn, sig, &method_of)?)
                        }
                        Instr::InvokeSpecial(cn, sig) => {
                            let cid = *name_to_class
                                .get(cn)
                                .ok_or_else(|| LoadError::UnknownClass(cn.to_string()))?;
                            // Walk up for super calls.
                            let mut cur = Some(cid);
                            let mut found = None;
                            while let Some(c) = cur {
                                if let Some(&mid) = method_of.get(&(c, sig.clone())) {
                                    found = Some(mid);
                                    break;
                                }
                                cur = classes[c.0 as usize].super_id;
                            }
                            Instr::InvokeSpecialQ(found.ok_or_else(|| LoadError::UnknownMethod {
                                class: cn.to_string(),
                                sig: sig.to_string(),
                            })?)
                        }
                        Instr::InvokeVirtual(sig) => {
                            let sid = intern_sig(sig, &mut sigs);
                            let site = vcall_sites;
                            vcall_sites += 1;
                            Instr::InvokeVirtualQ {
                                sig: sid,
                                nargs: sig.nargs() as u8,
                                ret: sig.ret.is_some(),
                                site,
                            }
                        }
                        other => other.clone(),
                    });
                }
                quickened.push(code);
            }
        }
        // InvokeVirtual interning may have grown `sigs`; extend vtables.
        let nsigs = sigs.len();
        for c in &mut classes {
            c.vtable.resize(nsigs, None);
        }
        for (m, code) in methods.iter_mut().zip(quickened) {
            m.code = code;
        }

        let main_sig = Sig::new("main", &[], None);
        let main_cid = *name_to_class
            .get(&*program.main_class)
            .ok_or_else(|| LoadError::UnknownClass(program.main_class.to_string()))?;
        let main_method = *method_of
            .get(&(main_cid, main_sig))
            .ok_or_else(|| LoadError::NoMainMethod(program.main_class.to_string()))?;

        Ok(Image {
            array_classes: [
                name_to_class["[I"],
                name_to_class["[J"],
                name_to_class["[D"],
                name_to_class["[Ljava.lang.Object;"],
            ],
            string_class,
            classes,
            methods,
            sigs,
            name_to_class,
            main_method,
            vcall_cache: (0..vcall_sites).map(|_| AtomicU64::new(0)).collect(),
        })
    }
}

/// Classify the access-cost kind from the accessed class's name: the statics
/// transformation (paper §4.2) turns static accesses into instance accesses
/// on `C_static` companions; the cost model still charges them as statics so
/// Table 1's static rows stay meaningful.
fn access_kind_for(class_name: &str) -> AccessKind {
    if class_name.ends_with("_static") {
        AccessKind::Static
    } else {
        AccessKind::Field
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn tiny_program() -> Program {
        let mut pb = ProgramBuilder::new("Main");
        pb.class("Main", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.const_i32(1).pop_().ret();
            });
        });
        pb.build_with_stdlib()
    }

    #[test]
    fn load_tiny() {
        let img = Image::load(&tiny_program()).expect("load");
        let main = img.method(img.main_method);
        assert_eq!(&*main.sig.name, "main");
        assert!(main.is_static);
        assert!(img.class_id("Main").is_some());
        assert!(img.class_id("java.lang.Object").is_some());
        assert!(img.class_id("Nope").is_none());
    }

    #[test]
    fn field_layout_includes_super() {
        let mut pb = ProgramBuilder::new("Main");
        pb.class("A", "java.lang.Object", |cb| {
            cb.field("x", Ty::I32);
        });
        pb.class("B", "A", |cb| {
            cb.field("y", Ty::F64);
        });
        pb.class("Main", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.ret();
            });
        });
        let img = Image::load(&pb.build_with_stdlib()).unwrap();
        let b = img.class(img.class_id("B").unwrap());
        assert_eq!(b.field_slot("x"), Some(0));
        assert_eq!(b.field_slot("y"), Some(1));
        let a = img.class(img.class_id("A").unwrap());
        assert_eq!(a.field_slot("x"), Some(0));
        assert_eq!(a.field_slot("y"), None);
    }

    #[test]
    fn subclass_relation() {
        let mut pb = ProgramBuilder::new("Main");
        pb.class("A", "java.lang.Object", |_| {});
        pb.class("B", "A", |_| {});
        pb.class("Main", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.ret();
            });
        });
        let img = Image::load(&pb.build_with_stdlib()).unwrap();
        let a = img.class_id("A").unwrap();
        let b = img.class_id("B").unwrap();
        let obj = img.class_id("java.lang.Object").unwrap();
        assert!(img.is_subclass(b, a));
        assert!(img.is_subclass(b, obj));
        assert!(!img.is_subclass(a, b));
    }

    #[test]
    fn missing_main_rejected() {
        let mut pb = ProgramBuilder::new("Main");
        pb.class("Main", "java.lang.Object", |_| {});
        let err = Image::load(&pb.build_with_stdlib()).unwrap_err();
        assert!(matches!(err, LoadError::NoMainMethod(_)));
    }

    #[test]
    fn unknown_super_rejected() {
        let mut pb = ProgramBuilder::new("Main");
        pb.class("Main", "Ghost", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.ret();
            });
        });
        let err = Image::load(&pb.build_with_stdlib()).unwrap_err();
        assert!(matches!(err, LoadError::UnknownSuper { .. }));
    }
}
