//! Binary class-file serialization.
//!
//! The paper's runtime physically ships the rewritten classes to worker
//! nodes ("the resulting rewritten classes are sent to one of the worker
//! nodes", §2; applet workers download them over HTTP). This module gives
//! MJVM programs the same property: a compact, self-contained binary format
//! for whole [`Program`]s, so the distributed runtime can account for class
//! distribution as real network traffic and tooling can persist rewritten
//! programs to disk.
//!
//! Format: little-endian, length-prefixed strings, one opcode byte per
//! instruction with operands following — the moral equivalent of a `.class`
//! file for the MJVM instruction set.

use crate::class::{ClassFile, FieldDef, MethodDef, Program, Sig};
use crate::instr::{AccessKind, Cmp, ElemTy, Instr, Ty};
use crate::value::Value;
use crate::wire::{CodecError, Reader, Writer};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"MJVM";
const VERSION: u16 = 1;

/// Class files count bytes and elements in fixed `u32`s (strings included),
/// not the codec's varints.
fn put_len(w: &mut Writer, n: usize) -> &mut Writer {
    w.u32(n as u32)
}

fn put_str<'w>(w: &'w mut Writer, s: &str) -> &'w mut Writer {
    w.u32(s.len() as u32).bytes(s.as_bytes())
}

fn get_str(r: &mut Reader) -> Result<Arc<str>, CodecError> {
    let n = r.u32()?;
    r.utf8(n as usize).map(Arc::from)
}

/// A `u32`-counted run of elements of at least `min_elem_bytes` each. The
/// count comes from a file or a peer, so it is vetted against what is left
/// before anything is allocated for it.
fn get_seq<T>(
    r: &mut Reader,
    min_elem_bytes: usize,
    elem: impl FnMut(&mut Reader) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.u32()?;
    r.seq_of(n.into(), min_elem_bytes, elem)
}

fn ty_tag(t: Ty) -> u8 {
    match t {
        Ty::I32 => 0,
        Ty::I64 => 1,
        Ty::F64 => 2,
        Ty::Ref => 3,
    }
}

fn ty_from(tag: u8) -> Result<Ty, CodecError> {
    Ok(match tag {
        0 => Ty::I32,
        1 => Ty::I64,
        2 => Ty::F64,
        3 => Ty::Ref,
        _ => return Err(CodecError("bad type tag")),
    })
}

fn elem_tag(t: ElemTy) -> u8 {
    match t {
        ElemTy::I32 => 0,
        ElemTy::I64 => 1,
        ElemTy::F64 => 2,
        ElemTy::Ref => 3,
    }
}

fn elem_from(tag: u8) -> Result<ElemTy, CodecError> {
    Ok(match tag {
        0 => ElemTy::I32,
        1 => ElemTy::I64,
        2 => ElemTy::F64,
        3 => ElemTy::Ref,
        _ => return Err(CodecError("bad elem tag")),
    })
}

fn cmp_tag(c: Cmp) -> u8 {
    match c {
        Cmp::Eq => 0,
        Cmp::Ne => 1,
        Cmp::Lt => 2,
        Cmp::Le => 3,
        Cmp::Gt => 4,
        Cmp::Ge => 5,
    }
}

fn cmp_from(tag: u8) -> Result<Cmp, CodecError> {
    Ok(match tag {
        0 => Cmp::Eq,
        1 => Cmp::Ne,
        2 => Cmp::Lt,
        3 => Cmp::Le,
        4 => Cmp::Gt,
        5 => Cmp::Ge,
        _ => return Err(CodecError("bad cmp tag")),
    })
}

fn kind_tag(k: AccessKind) -> u8 {
    match k {
        AccessKind::Field => 0,
        AccessKind::Static => 1,
        AccessKind::Array => 2,
    }
}

fn kind_from(tag: u8) -> Result<AccessKind, CodecError> {
    Ok(match tag {
        0 => AccessKind::Field,
        1 => AccessKind::Static,
        2 => AccessKind::Array,
        _ => return Err(CodecError("bad kind tag")),
    })
}

fn write_sig<'w>(w: &'w mut Writer, s: &Sig) -> &'w mut Writer {
    put_str(w, &s.name).u8(s.params.len() as u8);
    for p in &s.params {
        w.u8(ty_tag(*p));
    }
    w.u8(s.ret.map_or(0, |t| 1 + ty_tag(t)))
}

fn read_sig(r: &mut Reader) -> Result<Sig, CodecError> {
    let name = get_str(r)?;
    let np = r.u8()?;
    let params = r.seq_of(np.into(), 1, |r| ty_from(r.u8()?))?;
    let ret = match r.u8()? {
        0 => None,
        t => Some(ty_from(t - 1)?),
    };
    Ok(Sig { name, params, ret })
}

#[rustfmt::skip]
fn write_instr(w: &mut Writer, ins: &Instr) -> Result<(), CodecError> {
    use Instr::*;
    match ins {
        Const(Value::I32(v)) => w.u8(0).i32(*v),
        Const(Value::I64(v)) => w.u8(1).i64(*v),
        Const(Value::F64(v)) => w.u8(2).f64(*v),
        Const(Value::Null) => w.u8(3),
        Const(Value::Ref(_)) => return Err(CodecError("object constant in code")),
        LdcStr(s) => put_str(w.u8(4), s),
        Dup => w.u8(5),
        DupX1 => w.u8(6),
        Pop => w.u8(7),
        Swap => w.u8(8),
        Load(n) => w.u8(9).u16(*n),
        Store(n) => w.u8(10).u16(*n),
        IInc(n, d) => w.u8(11).u16(*n).i32(*d),
        IAdd => w.u8(12), ISub => w.u8(13), IMul => w.u8(14), IDiv => w.u8(15),
        IRem => w.u8(16), INeg => w.u8(17), IShl => w.u8(18), IShr => w.u8(19),
        IUShr => w.u8(20), IAnd => w.u8(21), IOr => w.u8(22), IXor => w.u8(23),
        LAdd => w.u8(24), LSub => w.u8(25), LMul => w.u8(26), LDiv => w.u8(27),
        LRem => w.u8(28), LNeg => w.u8(29),
        DAdd => w.u8(30), DSub => w.u8(31), DMul => w.u8(32), DDiv => w.u8(33),
        DRem => w.u8(34), DNeg => w.u8(35),
        I2L => w.u8(36), I2D => w.u8(37), L2I => w.u8(38), L2D => w.u8(39),
        D2I => w.u8(40), D2L => w.u8(41), LCmp => w.u8(42), DCmp => w.u8(43),
        Goto(t) => put_len(w.u8(44), *t),
        IfICmp(c, t) => put_len(w.u8(45).u8(cmp_tag(*c)), *t),
        IfI(c, t) => put_len(w.u8(46).u8(cmp_tag(*c)), *t),
        IfNull(t) => put_len(w.u8(47), *t),
        IfNonNull(t) => put_len(w.u8(48), *t),
        IfACmpEq(t) => put_len(w.u8(49), *t),
        IfACmpNe(t) => put_len(w.u8(50), *t),
        New(c) => put_str(w.u8(51), c),
        GetField(c, f) => put_str(put_str(w.u8(52), c), f),
        PutField(c, f) => put_str(put_str(w.u8(53), c), f),
        GetStatic(c, f) => put_str(put_str(w.u8(54), c), f),
        PutStatic(c, f) => put_str(put_str(w.u8(55), c), f),
        NewArray(e) => w.u8(56).u8(elem_tag(*e)),
        ALoad(e) => w.u8(57).u8(elem_tag(*e)),
        AStore(e) => w.u8(58).u8(elem_tag(*e)),
        ArrayLen => w.u8(59),
        InvokeStatic(c, s) => write_sig(put_str(w.u8(60), c), s),
        InvokeVirtual(s) => write_sig(w.u8(61), s),
        InvokeSpecial(c, s) => write_sig(put_str(w.u8(62), c), s),
        Return => w.u8(63),
        ReturnVal => w.u8(64),
        MonitorEnter => w.u8(65),
        MonitorExit => w.u8(66),
        Nop => w.u8(67),
        DsmCheckRead { depth, kind } => w.u8(68).u8(*depth).u8(kind_tag(*kind)),
        DsmCheckWrite { depth, kind } => w.u8(69).u8(*depth).u8(kind_tag(*kind)),
        DsmMonitorEnter => w.u8(70),
        DsmMonitorExit => w.u8(71),
        DsmSpawn => w.u8(72),
        DsmVolatileAcquire { depth } => w.u8(73).u8(*depth),
        DsmVolatileRelease => w.u8(74),
        // Quickened opcodes are a load-time artifact — never serialized
        // (class files travel in symbolic form, like real .class files).
        GetFieldQ { .. } | PutFieldQ { .. } | GetStaticQ { .. } | PutStaticQ { .. }
        | NewQ(_) | InvokeStaticQ(_) | InvokeSpecialQ(_) | InvokeVirtualQ { .. } => {
            return Err(CodecError("quickened instruction in class file"))
        }
    };
    Ok(())
}

fn read_instr(r: &mut Reader) -> Result<Instr, CodecError> {
    use Instr::*;
    Ok(match r.u8()? {
        0 => Const(Value::I32(r.i32()?)),
        1 => Const(Value::I64(r.i64()?)),
        2 => Const(Value::F64(r.f64()?)),
        3 => Const(Value::Null),
        4 => LdcStr(get_str(r)?),
        5 => Dup,
        6 => DupX1,
        7 => Pop,
        8 => Swap,
        9 => Load(r.u16()?),
        10 => Store(r.u16()?),
        11 => IInc(r.u16()?, r.i32()?),
        12 => IAdd,
        13 => ISub,
        14 => IMul,
        15 => IDiv,
        16 => IRem,
        17 => INeg,
        18 => IShl,
        19 => IShr,
        20 => IUShr,
        21 => IAnd,
        22 => IOr,
        23 => IXor,
        24 => LAdd,
        25 => LSub,
        26 => LMul,
        27 => LDiv,
        28 => LRem,
        29 => LNeg,
        30 => DAdd,
        31 => DSub,
        32 => DMul,
        33 => DDiv,
        34 => DRem,
        35 => DNeg,
        36 => I2L,
        37 => I2D,
        38 => L2I,
        39 => L2D,
        40 => D2I,
        41 => D2L,
        42 => LCmp,
        43 => DCmp,
        44 => Goto(r.u32()? as usize),
        45 => IfICmp(cmp_from(r.u8()?)?, r.u32()? as usize),
        46 => IfI(cmp_from(r.u8()?)?, r.u32()? as usize),
        47 => IfNull(r.u32()? as usize),
        48 => IfNonNull(r.u32()? as usize),
        49 => IfACmpEq(r.u32()? as usize),
        50 => IfACmpNe(r.u32()? as usize),
        51 => New(get_str(r)?),
        52 => GetField(get_str(r)?, get_str(r)?),
        53 => PutField(get_str(r)?, get_str(r)?),
        54 => GetStatic(get_str(r)?, get_str(r)?),
        55 => PutStatic(get_str(r)?, get_str(r)?),
        56 => NewArray(elem_from(r.u8()?)?),
        57 => ALoad(elem_from(r.u8()?)?),
        58 => AStore(elem_from(r.u8()?)?),
        59 => ArrayLen,
        60 => InvokeStatic(get_str(r)?, read_sig(r)?),
        61 => InvokeVirtual(read_sig(r)?),
        62 => InvokeSpecial(get_str(r)?, read_sig(r)?),
        63 => Return,
        64 => ReturnVal,
        65 => MonitorEnter,
        66 => MonitorExit,
        67 => Nop,
        68 => DsmCheckRead { depth: r.u8()?, kind: kind_from(r.u8()?)? },
        69 => DsmCheckWrite { depth: r.u8()?, kind: kind_from(r.u8()?)? },
        70 => DsmMonitorEnter,
        71 => DsmMonitorExit,
        72 => DsmSpawn,
        73 => DsmVolatileAcquire { depth: r.u8()? },
        74 => DsmVolatileRelease,
        _ => return Err(CodecError("bad opcode")),
    })
}

/// Serialize a single class.
pub fn encode_class(cf: &ClassFile) -> Vec<u8> {
    let mut w = Writer::over(Vec::with_capacity(256));
    put_str(&mut w, &cf.name);
    match &cf.super_name {
        Some(s) => put_str(w.u8(1), s),
        None => w.u8(0),
    };
    w.u8(cf.is_bootstrap as u8);
    put_len(&mut w, cf.fields.len());
    for f in &cf.fields {
        put_str(&mut w, &f.name).u8(ty_tag(f.ty)).u8((f.is_static as u8) | ((f.is_volatile as u8) << 1));
    }
    put_len(&mut w, cf.methods.len());
    for m in &cf.methods {
        write_sig(&mut w, &m.sig)
            .u8((m.is_static as u8) | ((m.is_synchronized as u8) << 1) | ((m.is_native as u8) << 2))
            .u16(m.max_locals);
        put_len(&mut w, m.code.len());
        for ins in &m.code {
            write_instr(&mut w, ins).expect("symbolic code only");
        }
    }
    w.into_inner()
}

/// Deserialize a single class: `bytes` is exactly one [`encode_class`]
/// image.
pub fn decode_class(bytes: &[u8]) -> Result<ClassFile, CodecError> {
    let r = &mut Reader::new(bytes);
    let name = get_str(r)?;
    let super_name = match r.u8()? {
        0 => None,
        _ => Some(get_str(r)?),
    };
    let is_bootstrap = r.u8()? != 0;
    let fields = get_seq(r, 6, |r| {
        let name = get_str(r)?;
        let ty = ty_from(r.u8()?)?;
        let flags = r.u8()?;
        Ok(FieldDef { name, ty, is_static: flags & 1 != 0, is_volatile: flags & 2 != 0 })
    })?;
    let methods = get_seq(r, 13, |r| {
        let sig = read_sig(r)?;
        let flags = r.u8()?;
        Ok(MethodDef {
            sig,
            is_static: flags & 1 != 0,
            is_synchronized: flags & 2 != 0,
            is_native: flags & 4 != 0,
            max_locals: r.u16()?,
            code: get_seq(r, 1, read_instr)?,
        })
    })?;
    r.finish()?;
    Ok(ClassFile { name, super_name, fields, methods, is_bootstrap })
}

/// The program header — magic, version, main class, class count — that
/// precedes the length-prefixed class images.
fn program_header(p: &Program, capacity: usize) -> Writer {
    let mut w = Writer::over(Vec::with_capacity(capacity));
    put_len(put_str(w.bytes(MAGIC).u16(VERSION), &p.main_class), p.classes.len());
    w
}

fn put_class(w: &mut Writer, c: &ClassFile) {
    let bytes = encode_class(c);
    put_len(w, bytes.len()).bytes(&bytes);
}

/// Serialize a whole program (what the runtime ships to each worker).
pub fn encode_program(p: &Program) -> Vec<u8> {
    let mut w = program_header(p, 4096);
    for c in &p.classes {
        put_class(&mut w, c);
    }
    w.into_inner()
}

/// Serialize a whole program in bounded chunks, streaming every filled
/// `chunk`-byte piece to `sink` (the final piece may be shorter). The
/// concatenated pieces are byte-for-byte identical to [`encode_program`],
/// but peak memory is one chunk plus one class instead of the whole
/// program. Returns the total encoded size.
pub fn encode_program_chunked(p: &Program, chunk: usize, sink: &mut dyn FnMut(&[u8])) -> usize {
    assert!(chunk > 0, "chunk size must be positive");
    let mut total = 0usize;
    let mut w = program_header(p, chunk.min(4096));
    for c in &p.classes {
        put_class(&mut w, c);
        let mut buf = w.into_inner();
        while buf.len() >= chunk {
            sink(&buf[..chunk]);
            total += chunk;
            buf.drain(..chunk);
        }
        w = Writer::over(buf);
    }
    if !w.is_empty() {
        total += w.len();
        sink(&w.into_inner());
    }
    total
}

/// Deserialize a whole program. The bytes come from a file or a peer
/// (`Welcome.program`): anything but exactly one [`encode_program`] image
/// is an error, and no count in it is trusted further than the bytes that
/// are actually there.
pub fn decode_program(bytes: &[u8]) -> Result<Program, CodecError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CodecError("bad magic"));
    }
    if r.u16()? != VERSION {
        return Err(CodecError("unsupported class-file version"));
    }
    let main_class = get_str(&mut r)?;
    let classes = get_seq(&mut r, 4, |r| {
        let len = r.u32()?;
        decode_class(r.take(len as usize)?)
    })?;
    r.finish()?;
    Ok(Program { classes, main_class })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::stdlib;

    #[test]
    fn stdlib_round_trips() {
        let p = Program { classes: stdlib::stdlib_classes(), main_class: "x".into() };
        let bytes = encode_program(&p);
        let back = decode_program(&bytes).expect("decode");
        assert_eq!(p.classes, back.classes);
        assert_eq!(p.main_class, back.main_class);
    }

    #[test]
    fn stdlib_bytes_are_pinned() {
        let p = Program { classes: stdlib::stdlib_classes(), main_class: "x".into() };
        crate::wire_check::assert_pinned("encode_program(stdlib)", &encode_program(&p), (0xfae, 0x484d_dd32_6644_b6c9));
        crate::wire_check::assert_pinned("encode_program(rewritten)", &encode_program(&rewritten_sample()), (4211, 0x94c9_48c2_06c9_ecbb));
    }

    /// The actual payload the runtime would ship: a rewritten app with DSM
    /// pseudo-instructions, companions and renamed classes.
    fn rewritten_sample() -> Program {
        let mut pb = ProgramBuilder::new("M");
        pb.class("A", "java.lang.Object", |cb| {
            cb.field("x", crate::instr::Ty::I32);
            cb.static_field("s", crate::instr::Ty::I64);
            cb.volatile_field("v", crate::instr::Ty::I32);
            cb.synchronized_method("m", &[], None, |m| {
                m.load(0).getfield("A", "x").pop_().ret();
            });
        });
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.ldc_str("hé\u{1F600}").println_str().ret();
            });
        });
        // Simulate rewriter output shape with pseudo-ops present.
        let mut p = pb.build_with_stdlib();
        p.classes[0].methods[0].code.insert(0, Instr::DsmCheckRead {
            depth: 0,
            kind: AccessKind::Field,
        });
        p
    }

    #[test]
    fn rewritten_program_round_trips() {
        let p = rewritten_sample();
        let back = decode_program(&encode_program(&p)).unwrap();
        assert_eq!(p.classes, back.classes);
    }

    #[test]
    fn chunked_encoding_matches_whole_buffer() {
        let p = Program { classes: stdlib::stdlib_classes(), main_class: "x".into() };
        let whole = encode_program(&p);
        for chunk in [1usize, 7, 64, 4096, whole.len(), whole.len() * 2] {
            let mut pieces: Vec<Vec<u8>> = Vec::new();
            let total = encode_program_chunked(&p, chunk, &mut |c| pieces.push(c.to_vec()));
            assert_eq!(total, whole.len());
            for (i, piece) in pieces.iter().enumerate() {
                assert!(piece.len() <= chunk, "piece {i} overflows chunk {chunk}");
                // Only the last piece may be short.
                if i + 1 < pieces.len() {
                    assert_eq!(piece.len(), chunk);
                }
            }
            let cat: Vec<u8> = pieces.concat();
            assert_eq!(cat, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn size_is_reasonable() {
        let p = Program { classes: stdlib::stdlib_classes(), main_class: "x".into() };
        let bytes = encode_program(&p);
        let instrs = p.code_size();
        // A few bytes per instruction plus names — sanity band.
        assert!(bytes.len() > instrs, "{} bytes for {instrs} instrs", bytes.len());
        assert!(bytes.len() < instrs * 60, "{} bytes for {instrs} instrs", bytes.len());
    }

    #[test]
    fn decode_program_is_total() {
        let good = encode_program(&rewritten_sample());
        crate::wire_check::assert_total(decode_program, &good);
        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert_eq!(decode_program(&bad_magic).err(), Some(CodecError("bad magic")));
    }

    /// Every count in a class file is outside input (a `.mjvm` file, or
    /// `Welcome.program` from a peer): a maximal one is refused against the
    /// bytes actually left, before anything is allocated for it — not
    /// handed to `Vec::with_capacity`, which aborts the process.
    #[test]
    fn maximal_counts_are_refused_not_allocated_for() {
        let refused = Some(CodecError("count exceeds message"));
        let mut program = program_header(&Program { classes: Vec::new(), main_class: "x".into() }, 16).into_inner();
        let at = program.len() - 4;
        program[at..].fill(0xFF);
        assert_eq!(decode_program(&program).err(), refused, "class count");

        // Class "A", no superclass, not bootstrap — then the counts.
        let class = |tail: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            put_str(&mut w, "A").u8(0).u8(0);
            tail(&mut w);
            decode_class(&w.into_inner()).err()
        };
        assert_eq!(class(&|w| { w.u32(u32::MAX); }), refused, "field count");
        assert_eq!(class(&|w| { w.u32(0).u32(u32::MAX); }), refused, "method count");
        // No fields, one method, whose signature starts with the name "m".
        let method = |w: &mut Writer| { put_str(w.u32(0).u32(1), "m"); };
        assert_eq!(class(&|w| { method(w); w.u8(0).u8(0).u8(0).u16(0).u32(u32::MAX); }), refused, "code length");
        assert_eq!(class(&|w| { method(w); w.u8(u8::MAX); }), refused, "parameter count");
    }

    #[test]
    fn decoded_program_loads_and_runs() {
        let mut pb = ProgramBuilder::new("M");
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.const_i32(6).const_i32(7).imul().println_i32().ret();
            });
        });
        let p = pb.build_with_stdlib();
        let back = decode_program(&encode_program(&p)).unwrap();
        let r = crate::localvm::run_program(&back);
        assert!(r.errors.is_empty());
        assert_eq!(r.output, vec!["42"]);
    }
}
