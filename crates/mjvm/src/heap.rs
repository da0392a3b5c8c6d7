//! The object heap: objects, arrays, strings, monitors and the DSM header.
//!
//! Every heap object carries a [`DsmHeader`] — the in-object mirror of the
//! fields the JavaSplit rewriter injects at the top of each instrumented
//! class hierarchy (`__javasplit__state`, `__javasplit__version`,
//! `__javasplit__locking_status`, `__javasplit__global_id`; paper Figure 2).
//! Keeping the DSM state inside the object gives the same two properties the
//! paper claims for the field-injection approach: O(1) retrieval on the
//! access-check fast path, and state that dies with the object.
//!
//! Arrays are first-class heap objects here, so they natively carry a DSM
//! header. The paper needs wrapper classes for this (§4.3) because JVM arrays
//! cannot gain fields; our substrate gives the wrapper's effect directly —
//! the deviation is recorded in DESIGN.md.

use crate::instr::ElemTy;
use crate::loader::ClassId;
use crate::value::Value;
use std::collections::VecDeque;
use std::sync::Arc;

/// Node-local object reference (a heap index, like a compressed oop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(pub u32);

/// Globally unique object id, assigned when an object becomes *shared*
/// (paper §2: "the object receives a globally unique id (64-bit long)").
/// Layout: home node id in the top 24 bits, per-node counter below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gid(pub u64);

impl Gid {
    pub fn new(home: u16, counter: u64) -> Gid {
        debug_assert!(counter < (1 << 40));
        Gid(((home as u64) << 40) | counter)
    }

    /// The node that manages this object's master copy (paper §3: "each
    /// object has a node called its home").
    pub fn home(self) -> u16 {
        (self.0 >> 40) as u16
    }

    pub fn counter(self) -> u64 {
        self.0 & ((1 << 40) - 1)
    }
}

/// Globally unique application-thread id.
pub type ThreadUid = u32;

/// DSM coherency state of an object (the `__javasplit__state` byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsmState {
    /// Not registered with the DSM: accessible by a single thread so far
    /// (paper §2: "a newly created object is always local").
    Local,
    /// Shared and the cached/master copy is valid for read and write.
    Valid,
    /// Shared but invalidated by a write notice; any access must fetch a
    /// fresh copy from home first.
    Invalid,
}

/// The injected DSM fields (paper Figure 2).
#[derive(Debug, Clone)]
pub struct DsmHeader {
    pub state: DsmState,
    /// Scalar version timestamp of this copy (§3.1: scalar timestamps).
    pub version: u32,
    /// Global id; `Some` iff the object is shared.
    pub gid: Option<Gid>,
    /// Local-lock fast path (§4.4): owner and re-entrance counter. Cheaper
    /// than a JVM `monitorenter` because no queueing machinery is touched.
    pub lock_owner: Option<ThreadUid>,
    pub lock_count: u32,
    /// Set once a twin has been made in the current interval (multiple-writer
    /// support; cleared when diffs are flushed at a release).
    pub twinned: bool,
}

impl Default for DsmHeader {
    fn default() -> Self {
        DsmHeader {
            state: DsmState::Local,
            version: 0,
            gid: None,
            lock_owner: None,
            lock_count: 0,
            twinned: false,
        }
    }
}

impl DsmHeader {
    /// `true` once the object is registered with the DSM.
    pub fn is_shared(&self) -> bool {
        self.gid.is_some()
    }
}

/// A classic JVM object monitor, used by the baseline (non-distributed) VM.
/// The distributed runtime never touches this; it substitutes its own
/// queue-passing lock protocol (paper §3.2).
#[derive(Debug, Default, Clone)]
pub struct Monitor {
    pub owner: Option<ThreadUid>,
    pub count: u32,
    /// Threads blocked on `monitorenter` or resuming from `wait()`. The
    /// second element is the re-entry count to restore: 0 marks a
    /// retry-style enterer (it re-executes `monitorenter` itself), >0 marks
    /// a `wait()` resumer granted ownership directly with its saved count.
    pub entry_q: VecDeque<(ThreadUid, u32)>,
    /// Threads parked in `wait()` with their saved re-entry counts.
    pub wait_q: VecDeque<(ThreadUid, u32)>,
}

/// Object contents.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjPayload {
    /// Instance fields, flattened: superclass fields first (loader layout).
    Fields(Vec<Value>),
    ArrI32(Vec<i32>),
    ArrI64(Vec<i64>),
    ArrF64(Vec<f64>),
    /// Reference array; elements are `Value::Ref` or `Value::Null`.
    ArrRef(Vec<Value>),
    /// Immutable string payload (`java.lang.String`).
    Str(Arc<str>),
}

impl ObjPayload {
    pub fn array_len(&self) -> Option<usize> {
        match self {
            ObjPayload::ArrI32(v) => Some(v.len()),
            ObjPayload::ArrI64(v) => Some(v.len()),
            ObjPayload::ArrF64(v) => Some(v.len()),
            ObjPayload::ArrRef(v) => Some(v.len()),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes — drives simulated message sizes.
    pub fn byte_size(&self) -> usize {
        match self {
            ObjPayload::Fields(v) => v.len() * 8,
            ObjPayload::ArrI32(v) => v.len() * 4,
            ObjPayload::ArrI64(v) => v.len() * 8,
            ObjPayload::ArrF64(v) => v.len() * 8,
            ObjPayload::ArrRef(v) => v.len() * 8,
            ObjPayload::Str(s) => s.len(),
        }
    }
}

/// A heap object.
#[derive(Debug, Clone)]
pub struct Obj {
    pub class: ClassId,
    pub payload: ObjPayload,
    pub dsm: DsmHeader,
    /// Baseline-VM monitor, allocated lazily on first contention-relevant op.
    pub monitor: Option<Box<Monitor>>,
}

impl Obj {
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        self.monitor.get_or_insert_with(Default::default)
    }
}

/// Allocation statistics, mirrored into run reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct HeapStats {
    pub objects: u64,
    pub arrays: u64,
    pub strings: u64,
}

/// A node-local heap. No GC is implemented (objects live for the run): the
/// paper delegates collection to the unmodified local JVM, which has no
/// analogue here, and the benchmark working sets are bounded.
///
/// The heap also owns the node's static-field storage (one `Vec<Value>` per
/// class) and the string-literal intern table, since both are per-node
/// mutable state alongside the objects.
#[derive(Debug, Default)]
pub struct Heap {
    objs: Vec<Obj>,
    /// Static storage per class, indexed by `ClassId`. Initialised by
    /// [`Heap::init_statics`].
    statics: Vec<Vec<Value>>,
    interned: std::collections::HashMap<Arc<str>, ObjRef>,
    pub stats: HeapStats,
}

/// The longest array a guest may allocate (16 Mi elements, ≤ 256 MiB of
/// references): the model's heap limit. Far above any workload's arrays;
/// a longer `newarray` traps instead of asking the host for gigabytes.
pub const MAX_ARRAY_LEN: i32 = 1 << 24;

impl Heap {
    pub fn new() -> Self {
        Heap::default()
    }

    /// Allocate zeroed static areas for every class in the image.
    pub fn init_statics(&mut self, image: &crate::loader::Image) {
        self.statics = image.classes.iter().map(|c| c.zeroed_statics()).collect();
    }

    #[inline]
    pub fn get_static(&self, class: ClassId, slot: u16) -> Value {
        self.statics[class.0 as usize][slot as usize]
    }

    #[inline]
    pub fn set_static(&mut self, class: ClassId, slot: u16, v: Value) {
        self.statics[class.0 as usize][slot as usize] = v;
    }

    /// Intern a string literal (one object per distinct literal per node,
    /// like the JVM constant-pool string cache).
    pub fn intern_str(&mut self, class: ClassId, s: &Arc<str>) -> ObjRef {
        if let Some(&r) = self.interned.get(s) {
            return r;
        }
        let r = self.alloc_str(class, s.clone());
        self.interned.insert(s.clone(), r);
        r
    }

    pub fn len(&self) -> usize {
        self.objs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }

    fn push(&mut self, obj: Obj) -> ObjRef {
        let r = ObjRef(self.objs.len() as u32);
        self.objs.push(obj);
        r
    }

    /// Allocate a plain object with zeroed fields.
    pub fn alloc_object(&mut self, class: ClassId, nfields: usize, zeros: Vec<Value>) -> ObjRef {
        debug_assert_eq!(nfields, zeros.len());
        self.stats.objects += 1;
        self.push(Obj {
            class,
            payload: ObjPayload::Fields(zeros),
            dsm: DsmHeader::default(),
            monitor: None,
        })
    }

    /// Allocate an array of `len` zeroed elements.
    pub fn alloc_array(&mut self, class: ClassId, elem: ElemTy, len: usize) -> ObjRef {
        self.stats.arrays += 1;
        let payload = match elem {
            ElemTy::I32 => ObjPayload::ArrI32(vec![0; len]),
            ElemTy::I64 => ObjPayload::ArrI64(vec![0; len]),
            ElemTy::F64 => ObjPayload::ArrF64(vec![0.0; len]),
            ElemTy::Ref => ObjPayload::ArrRef(vec![Value::Null; len]),
        };
        self.push(Obj { class, payload, dsm: DsmHeader::default(), monitor: None })
    }

    /// Allocate a string object.
    pub fn alloc_str(&mut self, class: ClassId, s: Arc<str>) -> ObjRef {
        self.stats.strings += 1;
        self.push(Obj {
            class,
            payload: ObjPayload::Str(s),
            dsm: DsmHeader::default(),
            monitor: None,
        })
    }

    #[inline]
    pub fn get(&self, r: ObjRef) -> &Obj {
        &self.objs[r.0 as usize]
    }

    #[inline]
    pub fn get_mut(&mut self, r: ObjRef) -> &mut Obj {
        &mut self.objs[r.0 as usize]
    }

    /// Read the string payload of a `java.lang.String` object.
    pub fn str_of(&self, r: ObjRef) -> &Arc<str> {
        match &self.get(r).payload {
            ObjPayload::Str(s) => s,
            other => panic!("expected string payload, found {other:?}"),
        }
    }

    /// Iterate over all objects (used by tests and DSM bookkeeping).
    pub fn iter(&self) -> impl Iterator<Item = (ObjRef, &Obj)> {
        self.objs.iter().enumerate().map(|(i, o)| (ObjRef(i as u32), o))
    }

    /// Clear the local-lock fast-path counter of every object still owned by
    /// `thread`. A thread that dies abnormally (a `VmError` trap) cannot
    /// unwind its `monitorexit`s, so the runtime drops its monitors here —
    /// otherwise a sibling blocked on one of them deadlocks.
    pub fn release_local_locks_of(&mut self, thread: ThreadUid) {
        for o in &mut self.objs {
            if o.dsm.lock_owner == Some(thread) {
                o.dsm.lock_owner = None;
                o.dsm.lock_count = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gid_packing() {
        let g = Gid::new(7, 123_456);
        assert_eq!(g.home(), 7);
        assert_eq!(g.counter(), 123_456);
        let g2 = Gid::new(0xFFFF, (1 << 40) - 1);
        assert_eq!(g2.home(), 0xFFFF);
        assert_eq!(g2.counter(), (1 << 40) - 1);
    }

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId(0), 2, vec![Value::I32(0), Value::Null]);
        let a = h.alloc_array(ClassId(1), ElemTy::F64, 4);
        let s = h.alloc_str(ClassId(2), "hi".into());
        assert_eq!(h.len(), 3);
        assert_eq!(h.get(o).payload, ObjPayload::Fields(vec![Value::I32(0), Value::Null]));
        assert_eq!(h.get(a).payload.array_len(), Some(4));
        assert_eq!(&**h.str_of(s), "hi");
        assert_eq!(h.stats.objects, 1);
        assert_eq!(h.stats.arrays, 1);
        assert_eq!(h.stats.strings, 1);
    }

    #[test]
    fn new_objects_are_local() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId(0), 0, vec![]);
        let hdr = &h.get(o).dsm;
        assert_eq!(hdr.state, DsmState::Local);
        assert!(!hdr.is_shared());
        assert_eq!(hdr.version, 0);
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(ObjPayload::ArrI32(vec![0; 3]).byte_size(), 12);
        assert_eq!(ObjPayload::Fields(vec![Value::Null; 2]).byte_size(), 16);
        assert_eq!(ObjPayload::Str("abcd".into()).byte_size(), 4);
    }

    #[test]
    fn monitor_lazy_alloc() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId(0), 0, vec![]);
        assert!(h.get(o).monitor.is_none());
        h.get_mut(o).monitor_mut().count = 1;
        assert_eq!(h.get(o).monitor.as_ref().unwrap().count, 1);
    }
}
