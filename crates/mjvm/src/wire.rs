//! The byte layer: the one bounds-checked [`Writer`] / [`Reader`] pair every
//! wire format in the workspace sits on (paper §2).
//!
//! "We do not use Java's built-in serialization mechanism, since it is too
//! slow for our purposes, including many unneeded features, e.g.,
//! serialization of referenced objects (deep copy) [...] Instead, we augment
//! each rewritten class with class-specific serialization and deserialization
//! methods." The MJVM equivalent: flat little-endian primitives,
//! varint-compressed counts, and 64-bit global ids in place of references —
//! never a deep copy.
//!
//! Everything a [`Reader`] is handed came from a peer or a file, so it is
//! total: truncation, a count the remaining bytes cannot hold, bad UTF-8 and
//! trailing garbage are all a [`CodecError`], never a panic and never an
//! allocation sized by the input's claims. DESIGN.md's "Wire formats" table
//! lists the formats built on this module.

use crate::heap::Gid;

/// A decoding failure: the bytes are not an encoding of what was expected.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// The fixed-width little-endian writers, over whatever `put` appends to.
macro_rules! le_writers {
    ($($t:ident)*) => {$(
        pub fn $t(&mut self, v: $t) -> &mut Self {
            self.put(&v.to_le_bytes());
            self
        }
    )*};
}

/// Wire writer. Backed by a plain `Vec<u8>` so callers that reuse encode
/// buffers (the framed transport, chunked class shipping) can lend one in
/// with [`Writer::over`] and take it back with [`Writer::into_inner`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer { buf: Vec::with_capacity(64) }
    }

    /// Write into a caller-provided buffer, appending to its current
    /// contents (the caller clears it when reusing).
    pub fn over(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    le_writers!(u8 u16 u32 u64 i32 i64 f64);

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.put(bytes);
        self
    }

    /// LEB128-style variable-length unsigned integer (counts, small ids).
    pub fn varu(&mut self, mut v: u64) -> &mut Self {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                return self.u8(b);
            }
            self.u8(b | 0x80);
        }
    }

    pub fn gid(&mut self, g: Gid) -> &mut Self {
        self.u64(g.0)
    }

    /// A varint byte count, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.varu(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        for v in vs {
            self.u64(*v);
        }
        self
    }

    /// Every counter of `s`, in `table` order (see [`Counter`]).
    pub fn counters<S>(&mut self, table: &[Counter<S>], s: &S) -> &mut Self {
        for c in table {
            for lane in 0..c.lanes {
                let v = (c.get)(s, lane);
                if c.max {
                    self.varu(v);
                } else {
                    self.u64(v);
                }
            }
        }
        self
    }
}

/// Writer over a region reserved earlier — a length prefix or record header
/// whose fields are only known once what follows it has been encoded.
/// Panics if more is written than was reserved.
pub struct Patch<'a>(pub &'a mut [u8]);

impl Patch<'_> {
    fn put(&mut self, bytes: &[u8]) {
        let (head, tail) = std::mem::take(&mut self.0).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        self.0 = tail;
    }

    le_writers!(u8 u32 u64);
}

/// The fixed-width little-endian readers.
macro_rules! le_readers {
    ($($t:ident)*) => {$(
        #[inline]
        pub fn $t(&mut self) -> Result<$t, CodecError> {
            let (head, tail) = self.buf.split_first_chunk().ok_or(CodecError("truncated message"))?;
            self.buf = tail;
            Ok($t::from_le_bytes(*head))
        }
    )*};
}

/// Wire reader over a received byte slice; decoded strings and sub-slices
/// borrow nothing from it beyond the slice's own lifetime.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() {
            return Err(CodecError("truncated message"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Everything left (a body that runs to the end of its envelope).
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// The decoder is done: anything left over is an error.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError("trailing bytes"))
        }
    }

    le_readers!(u8 u16 u32 u64 i32 i64 f64);

    pub fn varu(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(CodecError("varint overflow"));
            }
        }
    }

    pub fn gid(&mut self) -> Result<Gid, CodecError> {
        Ok(Gid(self.u64()?))
    }

    /// Vet an element count `n` that came off the wire: each element takes
    /// at least `min_elem_bytes`, so a count the remaining bytes cannot hold
    /// is malformed — refused here, before anything is allocated for it.
    pub fn count(&self, n: u64, min_elem_bytes: usize) -> Result<usize, CodecError> {
        match usize::try_from(n) {
            Ok(n) if n.checked_mul(min_elem_bytes.max(1)).is_some_and(|bytes| bytes <= self.buf.len()) => Ok(n),
            _ => Err(CodecError("count exceeds message")),
        }
    }

    /// `n` elements (a count already read, in whatever width the format
    /// uses), each decoded by `elem` from at least `min_elem_bytes`. An
    /// element can be larger in memory than on the wire, so what is
    /// allocated up front is also capped at the bytes that are left.
    pub fn seq_of<T>(
        &mut self,
        n: u64,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(n, min_elem_bytes)?;
        let mut out = Vec::with_capacity(n.min(self.buf.len() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// A varint-counted sequence — the codec's own convention.
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        elem: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.varu()?;
        self.seq_of(n, min_elem_bytes, elem)
    }

    /// The next `n` bytes as UTF-8.
    pub fn utf8(&mut self, n: usize) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError("invalid utf-8"))
    }

    /// Inverse of [`Writer::str`].
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.varu()?;
        self.utf8(self.count(n, 1)?).map(str::to_owned)
    }

    pub fn u64s<const N: usize>(&mut self) -> Result<[u64; N], CodecError> {
        let mut out = [0u64; N];
        for v in &mut out {
            *v = self.u64()?;
        }
        Ok(out)
    }

    /// Inverse of [`Writer::counters`].
    pub fn counters<S: Default>(&mut self, table: &[Counter<S>]) -> Result<S, CodecError> {
        let mut s = S::default();
        for c in table {
            for lane in 0..c.lanes {
                let v = if c.max { self.varu()? } else { self.u64()? };
                (c.set)(&mut s, lane, v);
            }
        }
        Ok(s)
    }
}

/// One row of a statistics struct's field table — the single listing of its
/// counters from which merging, lookup by name and the wire form are all
/// derived (build one with [`counters!`](crate::counters)). A row is a
/// `u64`-valued field, or a `[u64; N]` field of `lanes = N` words.
pub struct Counter<S> {
    /// The field's name.
    pub name: &'static str,
    pub lanes: usize,
    pub get: fn(&S, usize) -> u64,
    pub set: fn(&mut S, usize, u64),
    /// A high-water mark: merges by `max` and travels as a varint. Every
    /// other counter merges by sum and travels as a fixed `u64`.
    pub max: bool,
}

impl<S> Counter<S> {
    /// Fold `from` into `into` (cluster-wide summaries).
    pub fn merge(table: &[Counter<S>], into: &mut S, from: &S) {
        for c in table {
            for lane in 0..c.lanes {
                let (a, b) = ((c.get)(into, lane), (c.get)(from, lane));
                (c.set)(into, lane, if c.max { a.max(b) } else { a + b });
            }
        }
    }

    /// The scalar counter called `name`, `None` if the table has no such row.
    pub fn by_name(table: &[Counter<S>], s: &S, name: &str) -> Option<u64> {
        table.iter().find(|c| c.name == name && c.lanes == 1).map(|c| (c.get)(s, 0))
    }
}

/// Build a `&[Counter<S>]` field table: `counters!(S: sum a, max b, sum c[8])`
/// lists scalar fields `a` (summed) and `b` (a high-water mark) and the
/// eight-word array field `c`, in wire order.
#[macro_export]
macro_rules! counters {
    ($S:ty: $($fold:ident $f:ident $([$n:literal])?),* $(,)?) => {
        &[$($crate::counters!(@row $S, $fold, $f $(, $n)?)),*]
    };
    (@row $S:ty, $fold:ident, $f:ident) => {
        $crate::wire::Counter::<$S> {
            name: stringify!($f),
            lanes: 1,
            get: |s, _| s.$f as u64,
            set: |s, _, v| s.$f = v as _,
            max: $crate::counters!(@max $fold),
        }
    };
    (@row $S:ty, $fold:ident, $f:ident, $n:literal) => {
        $crate::wire::Counter::<$S> {
            name: stringify!($f),
            lanes: $n,
            get: |s, lane| s.$f[lane],
            set: |s, lane, v| s.$f[lane] = v,
            max: $crate::counters!(@max $fold),
        }
    };
    (@max sum) => { false };
    (@max max) => { true };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = Writer::new();
        w.u8(7).u32(0xDEAD_BEEF).i64(-5).f64(2.5).str("héllo").varu(300).gid(Gid::new(3, 42)).u64s(&[1, u64::MAX]);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.varu().unwrap(), 300);
        assert_eq!(r.gid().unwrap(), Gid::new(3, 42));
        assert!(r.finish().is_err());
        assert_eq!(r.u64s::<2>().unwrap(), [1, u64::MAX]);
        assert_eq!(r.finish(), Ok(()));
        assert!(r.u8().is_err());
    }

    #[test]
    fn counts_are_bounded_by_what_is_left() {
        let bytes = [0u8; 16];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.count(4, 4), Ok(4));
        assert!(r.count(5, 4).is_err());
        assert_eq!(r.count(16, 0), Ok(16), "a zero minimum is read as one byte");
        assert!(r.count(u64::MAX, 1).is_err());
        // Nothing is allocated or consumed for a count that lies.
        assert!(r.seq_of(u64::MAX, 1, Reader::u8).is_err());
        assert!(r.utf8(17).is_err());
        assert_eq!(r.remaining(), 16);
        assert_eq!(r.seq_of(3, 4, Reader::u32), Ok(vec![0; 3]));
        assert_eq!(r.rest().len(), 4);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn patch_fills_a_reserved_region() {
        let mut buf = vec![0xAAu8; 14];
        Patch(&mut buf[1..14]).u8(1).u32(2).u64(3);
        let mut r = Reader::new(&buf);
        assert_eq!((r.u8(), r.u8(), r.u32(), r.u64()), (Ok(0xAA), Ok(1), Ok(2), Ok(3)));
    }

    #[derive(Debug, Default, PartialEq)]
    struct Stats {
        hits: u64,
        peak: usize,
        by_kind: [u64; 3],
    }

    const STATS: &[Counter<Stats>] = counters!(Stats: sum hits, max peak, sum by_kind[3]);

    #[test]
    fn one_field_table_drives_merge_lookup_and_wire_form() {
        let mut a = Stats { hits: 2, peak: 5, by_kind: [1, 0, 4] };
        let b = Stats { hits: 3, peak: 900, by_kind: [0, 7, 1] };
        Counter::merge(STATS, &mut a, &b);
        assert_eq!(a, Stats { hits: 5, peak: 900, by_kind: [1, 7, 5] });
        assert_eq!(Counter::by_name(STATS, &a, "peak"), Some(900));
        assert_eq!(Counter::by_name(STATS, &a, "by_kind"), None, "arrays have no single value");
        assert_eq!(Counter::by_name(STATS, &a, "nope"), None);
        let mut w = Writer::new();
        w.counters(STATS, &a);
        // Sums as fixed words, the high-water mark as a two-byte varint.
        assert_eq!(w.len(), 8 + 2 + 3 * 8);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.counters(STATS), Ok(a));
        assert_eq!(r.finish(), Ok(()));
        assert!(Reader::new(&bytes[..bytes.len() - 1]).counters(STATS).is_err());
    }

    proptest! {
        #[test]
        fn varu_round_trip(v in any::<u64>()) {
            let mut w = Writer::new();
            w.varu(v);
            let bytes = w.into_inner();
            let mut r = Reader::new(&bytes);
            prop_assert_eq!(r.varu().unwrap(), v);
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn mixed_stream_round_trip(items in proptest::collection::vec((any::<i64>(), any::<u32>(), ".{0,12}"), 0..20)) {
            let mut w = Writer::new();
            for (a, b, s) in &items {
                w.i64(*a).u32(*b).str(s);
            }
            let bytes = w.into_inner();
            let mut r = Reader::new(&bytes);
            for (a, b, s) in &items {
                prop_assert_eq!(r.i64().unwrap(), *a);
                prop_assert_eq!(r.u32().unwrap(), *b);
                prop_assert_eq!(&r.str().unwrap(), s);
            }
            prop_assert_eq!(r.remaining(), 0);
        }
    }
}
