//! Real-socket transport: length-prefixed envelopes over TCP.
//!
//! The paper's nodes are separate processes on commodity workstations
//! talking over "standard IP sockets" (§2). This module is the wire layer
//! of the sockets backend: it carries the *same* frame bytes the in-process
//! channel mesh ships (see [`crate::transport`]) inside `Data` envelopes,
//! plus the control vocabulary the coordinator and workers speak — the
//! handshake, the epoch slot exchange, the async idle reports, and the
//! shutdown sequence.
//!
//! ## Envelope format
//!
//! ```text
//! len: u32 LE | type: u8 | body (len - 1 bytes)
//! ```
//!
//! All integers little-endian, matching the record headers inside frames.
//! TCP gives per-connection FIFO byte delivery; every ordering argument in
//! DESIGN.md §16 reduces to "bytes written earlier on a stream are read
//! earlier".
//!
//! ## The epoch exchange on the wire
//!
//! Under the threads backend a node *publishes* its epoch slot with a
//! Release store and peers Acquire-load it. Over TCP the same handoff is an
//! explicit [`Envelope::Slot`] record: writing it after the node's data
//! flush is the release (program order = stream order), and reading the
//! relayed [`Envelope::Slots`] is the acquire — every frame that preceded a
//! peer's `Slot` on its stream precedes `Slots` on ours.

use crate::codec::{CodecError, Patch, Reader, Writer};
use crate::sim::NodeId;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::Sender;

/// Protocol magic ("JSPL") — first field of every `Hello`.
pub const MAGIC: u32 = 0x4A53_504C;
/// Wire-protocol version; bumped on any envelope change.
/// v2: `Welcome` carries telemetry arming (`metrics_interval_us`, `flags`);
/// `Metrics` and `Fault` envelopes added.
/// v3: one rendezvous per epoch round — the round-barrier envelope pair
/// (tags 5, 6) retired, `Slot` carries `min_out`; the wire config lost its
/// lookahead and batch bytes (PR 13), the node report its barrier count.
/// Not bumped for the report body's `VmError` tag 10 (`ArrayTooLarge`): no
/// envelope changed shape, and the tag only appears in a run whose guest
/// hit the heap limit. Workers are spawned from the coordinator's own
/// executable by default; a mixed-build run (`worker_bin`, or workers
/// started by hand) that does hit it fails with the typed codec error
/// `bad VmError tag` on the report, never with a misread one.
pub const VERSION: u16 = 3;
/// `Hello.node_id` value asking the coordinator to assign one.
pub const ANY_NODE: u16 = u16::MAX;
/// Upper bound on a single envelope body (corrupt-stream guard).
pub const MAX_ENVELOPE: usize = 256 * 1024 * 1024;

/// Values of an epoch slot post: `next_event`, `live`, `spawns_sent`,
/// `spawns_recv`, `ops` — the quintuple every node posts to the run's
/// rendezvous, over the wire or, in the threads backend, under a lock.
pub type SlotWire = [u64; 5];

/// `Welcome.flags` bit: arm the per-object DSM sharing profiler.
pub const WF_OBJPROF: u8 = 1 << 0;
/// `Welcome.flags` bit: arm the flight recorder (its tail rides the final
/// report, and a `Fault` envelope on panic/fault).
pub const WF_FLIGHT: u8 = 1 << 1;

/// Everything that crosses a coordinator⟷worker connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope {
    /// Worker → coordinator: dial-in identification.
    Hello { magic: u32, version: u16, node_id: u16, config_hash: u64 },
    /// Coordinator → worker: admission, with the run's full configuration
    /// and the serialized (pre-rewrite) program. `metrics_interval_us` > 0
    /// asks the worker to ship `Metrics` envelopes at roughly that cadence
    /// (0 = telemetry off); `flags` arms deployment-side observers
    /// ([`WF_OBJPROF`], [`WF_FLIGHT`]) that are deliberately *not* part of
    /// the hashed cluster config — they never change virtual-time results.
    Welcome {
        node_id: u16,
        nodes: u16,
        config_hash: u64,
        metrics_interval_us: u64,
        flags: u8,
        config: Vec<u8>,
        program: Vec<u8>,
    },
    /// Coordinator → worker: handshake refused; connection closes after.
    Reject { reason: String },
    /// A transport frame (record batch) from `src`, relayed toward `dst`.
    Data { src: u16, dst: u16, frame: Vec<u8> },
    /// Worker → coordinator: the closing window's sends are all on the
    /// stream; this is the node's pre-drain slot for `round`, and
    /// `min_out[d]` the earliest delivery time of any record it framed for
    /// node `d` in that window (`u64::MAX` = none).
    Slot { round: u64, slot: SlotWire, min_out: Vec<u64> },
    /// Coordinator → worker: all nodes' slots for `round`, in node order,
    /// each `next_event` already folded with every sender's `min_out` —
    /// and every window frame addressed to this worker precedes it on the
    /// stream.
    Slots { round: u64, slots: Vec<SlotWire> },
    /// Worker → coordinator (async sync): progress report for the
    /// coordinator's termination scan — queue head, records drained from
    /// the wire, live threads, retired instructions.
    State { qhead: u64, drained: u64, live: u64, ops: u64 },
    /// Coordinator → worker (async sync): the run's outcome is decided.
    Done { outcome: u8 },
    /// Worker → coordinator (async sync): final flush completed.
    Flushed,
    /// Coordinator → worker (async sync): all workers flushed; leftover
    /// data precedes this on the stream — drain it and report.
    Shutdown,
    /// Worker → coordinator: final per-node run report (opaque here;
    /// serialized by the runtime).
    Report { body: Vec<u8> },
    /// Worker → coordinator: one telemetry sample — the worker's full
    /// metrics-registry row, every cell in canonical metric order. The
    /// coordinator merges it into its own registry so one sampler sees the
    /// whole cluster.
    Metrics { node: u16, cells: Vec<u64> },
    /// Worker → coordinator: the worker hit a panic or watchdog-class fault
    /// and is going down. `message` is the human-readable cause; `flight`
    /// is the rendered flight-recorder tail ("" if the recorder was off).
    Fault { node: u16, message: String, flight: String },
}

const T_HELLO: u8 = 1;
const T_WELCOME: u8 = 2;
const T_REJECT: u8 = 3;
const T_DATA: u8 = 4;
// 5 and 6 were the round-barrier pair through v2; retired, never reused.
const T_SLOT: u8 = 7;
const T_SLOTS: u8 = 8;
const T_STATE: u8 = 9;
const T_DONE: u8 = 10;
const T_FLUSHED: u8 = 11;
const T_SHUTDOWN: u8 = 12;
const T_REPORT: u8 = 13;
const T_METRICS: u8 = 14;
const T_FAULT: u8 = 15;

/// A `u32` byte count, then the bytes (config and program blobs, strings).
fn put_blob(w: &mut Writer, bytes: &[u8]) {
    w.u32(bytes.len() as u32).bytes(bytes);
}

fn get_blob<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], CodecError> {
    let n = r.u32()?;
    r.take(n as usize)
}

fn get_string(r: &mut Reader) -> Result<String, CodecError> {
    let n = r.u32()?;
    r.utf8(n as usize).map(str::to_owned)
}

/// A `u16`-counted run of `u64`s.
fn get_u64s(r: &mut Reader) -> Result<Vec<u64>, CodecError> {
    let n = r.u16()?;
    r.seq_of(n.into(), 8, Reader::u64)
}

/// Serialize an envelope (length prefix included).
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let mut w = Writer::over(vec![0u8; 4]);
    match env {
        Envelope::Hello { magic, version, node_id, config_hash } => {
            w.u8(T_HELLO).u32(*magic).u16(*version).u16(*node_id).u64(*config_hash);
        }
        Envelope::Welcome { node_id, nodes, config_hash, metrics_interval_us, flags, config, program } => {
            w.u8(T_WELCOME).u16(*node_id).u16(*nodes).u64(*config_hash).u64(*metrics_interval_us).u8(*flags);
            put_blob(&mut w, config);
            put_blob(&mut w, program);
        }
        Envelope::Reject { reason } => put_blob(w.u8(T_REJECT), reason.as_bytes()),
        Envelope::Data { src, dst, frame } => {
            w.u8(T_DATA).u16(*src).u16(*dst).bytes(frame);
        }
        Envelope::Slot { round, slot, min_out } => {
            w.u8(T_SLOT).u64(*round).u64s(slot).u16(min_out.len() as u16).u64s(min_out);
        }
        Envelope::Slots { round, slots } => {
            w.u8(T_SLOTS).u64(*round).u16(slots.len() as u16);
            for s in slots {
                w.u64s(s);
            }
        }
        Envelope::State { qhead, drained, live, ops } => {
            w.u8(T_STATE).u64(*qhead).u64(*drained).u64(*live).u64(*ops);
        }
        Envelope::Done { outcome } => {
            w.u8(T_DONE).u8(*outcome);
        }
        Envelope::Flushed => {
            w.u8(T_FLUSHED);
        }
        Envelope::Shutdown => {
            w.u8(T_SHUTDOWN);
        }
        Envelope::Report { body } => {
            w.u8(T_REPORT).bytes(body);
        }
        Envelope::Metrics { node, cells } => {
            w.u8(T_METRICS).u16(*node).u16(cells.len() as u16).u64s(cells);
        }
        Envelope::Fault { node, message, flight } => {
            w.u8(T_FAULT).u16(*node);
            put_blob(&mut w, message.as_bytes());
            put_blob(&mut w, flight.as_bytes());
        }
    }
    let mut b = w.into_inner();
    let len = (b.len() - 4) as u32;
    Patch(&mut b[..4]).u32(len);
    b
}

/// Decode one envelope body (the bytes after the length prefix). The body
/// is peer input: every count is vetted against what is left before
/// anything is allocated for it, and nothing may trail the last field.
fn decode_body(body: &[u8]) -> io::Result<Envelope> {
    let mut r = Reader::new(body);
    // Callers never pass an empty body; if one did, 0 is no envelope type.
    let ty = r.u8().unwrap_or(0);
    decode_fields(ty, &mut r)
        .and_then(|env| r.finish().map(|()| env))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad envelope of type {ty}: {e}")))
}

fn decode_fields(ty: u8, r: &mut Reader) -> Result<Envelope, CodecError> {
    Ok(match ty {
        T_HELLO => Envelope::Hello {
            magic: r.u32()?,
            version: r.u16()?,
            node_id: r.u16()?,
            config_hash: r.u64()?,
        },
        T_WELCOME => Envelope::Welcome {
            node_id: r.u16()?,
            nodes: r.u16()?,
            config_hash: r.u64()?,
            metrics_interval_us: r.u64()?,
            flags: r.u8()?,
            config: get_blob(r)?.to_vec(),
            program: get_blob(r)?.to_vec(),
        },
        T_REJECT => Envelope::Reject { reason: get_string(r)? },
        T_DATA => Envelope::Data { src: r.u16()?, dst: r.u16()?, frame: r.rest().to_vec() },
        T_SLOT => Envelope::Slot { round: r.u64()?, slot: r.u64s()?, min_out: get_u64s(r)? },
        T_SLOTS => Envelope::Slots {
            round: r.u64()?,
            slots: {
                let n = r.u16()?;
                r.seq_of(n.into(), 40, Reader::u64s)?
            },
        },
        T_STATE => Envelope::State {
            qhead: r.u64()?,
            drained: r.u64()?,
            live: r.u64()?,
            ops: r.u64()?,
        },
        T_DONE => Envelope::Done { outcome: r.u8()? },
        T_FLUSHED => Envelope::Flushed,
        T_SHUTDOWN => Envelope::Shutdown,
        T_REPORT => Envelope::Report { body: r.rest().to_vec() },
        T_METRICS => Envelope::Metrics { node: r.u16()?, cells: get_u64s(r)? },
        T_FAULT => Envelope::Fault { node: r.u16()?, message: get_string(r)?, flight: get_string(r)? },
        _ => return Err(CodecError("unknown envelope type")),
    })
}

/// Write one envelope to a stream.
pub fn write_envelope(w: &mut dyn Write, env: &Envelope) -> io::Result<()> {
    w.write_all(&encode_envelope(env))
}

/// Write a `Data` envelope borrowing the frame bytes (no copy into an
/// [`Envelope`] value — the hot path for frame shipping).
pub fn write_data(w: &mut dyn Write, src: u16, dst: u16, frame: &[u8]) -> io::Result<()> {
    let mut hdr = [0u8; 9];
    hdr[0..4].copy_from_slice(&((frame.len() + 5) as u32).to_le_bytes());
    hdr[4] = T_DATA;
    hdr[5..7].copy_from_slice(&src.to_le_bytes());
    hdr[7..9].copy_from_slice(&dst.to_le_bytes());
    w.write_all(&hdr)?;
    w.write_all(frame)
}

/// Read one envelope from a stream (blocking until complete or EOF).
pub fn read_envelope(r: &mut dyn Read) -> io::Result<Envelope> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_ENVELOPE {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad envelope length {len}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    decode_body(&body)
}

/// Incremental envelope decoder: feed arbitrary byte slices (as a socket
/// hands them over), pop complete envelopes. Decoding is independent of
/// where the input was split — asserted by the reassembly property test.
#[derive(Debug, Default)]
pub struct EnvelopeDecoder {
    buf: Vec<u8>,
    at: usize,
}

impl EnvelopeDecoder {
    pub fn new() -> EnvelopeDecoder {
        EnvelopeDecoder::default()
    }

    /// Append raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: drop consumed prefix before growing.
        if self.at > 0 && self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        } else if self.at > 4096 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete envelope, `Ok(None)` if more bytes are needed.
    // Same name as an iterator by design, but fallible + incremental; not
    // an Iterator impl.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> io::Result<Option<Envelope>> {
        let avail = &self.buf[self.at..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_ENVELOPE {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad envelope length {len}")));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let env = decode_body(&avail[4..4 + len])?;
        self.at += 4 + len;
        Ok(Some(env))
    }
}

/// What the coordinator checks an incoming `Hello` against.
#[derive(Debug, Clone, Copy)]
pub struct HandshakeExpect {
    pub nodes: u16,
    pub config_hash: u64,
}

/// Validate a dial-in. `claimed` is a bitset-free view of already-claimed
/// node ids; `Ok` returns the admitted node id (resolving [`ANY_NODE`] to
/// the lowest free one). Errors are human-readable and become the `Reject`
/// reason / the coordinator's `ClusterError::Config` detail.
pub fn validate_hello(
    env: &Envelope,
    expect: HandshakeExpect,
    claimed: &[bool],
) -> Result<u16, String> {
    let Envelope::Hello { magic, version, node_id, config_hash } = env else {
        return Err(format!("expected Hello, got {env:?}"));
    };
    if *magic != MAGIC {
        return Err(format!("wrong magic {magic:#010x} (want {MAGIC:#010x}) — not a jsplit worker?"));
    }
    if *version != VERSION {
        return Err(format!("wire protocol version mismatch: worker {version}, coordinator {VERSION}"));
    }
    if *config_hash != 0 && *config_hash != expect.config_hash {
        return Err(format!(
            "cluster config hash mismatch: worker expects {config_hash:#018x}, coordinator is {:#018x}",
            expect.config_hash
        ));
    }
    if *node_id == ANY_NODE {
        return claimed
            .iter()
            .position(|c| !c)
            .map(|i| i as u16)
            .ok_or_else(|| format!("all {} node ids already claimed", expect.nodes));
    }
    if *node_id >= expect.nodes {
        return Err(format!("node id {node_id} out of range (cluster has {} nodes)", expect.nodes));
    }
    if claimed[*node_id as usize] {
        return Err(format!("node id {node_id} already claimed by another worker"));
    }
    Ok(*node_id)
}

/// FNV-1a over a byte stream — the cluster-config fingerprint both ends of
/// the handshake compare.
pub fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// [`crate::transport::FrameLink`] over the worker's coordinator
/// connection: finished frames become `Data` envelopes on the stream
/// (written in program order with the worker's control envelopes — the
/// FIFO ordering every §16 argument rests on), and drained buffers return
/// to a local pool instead of crossing back to the sender's process.
pub struct TcpFrameLink {
    stream: TcpStream,
    pool: Sender<Vec<u8>>,
}

impl TcpFrameLink {
    pub fn new(stream: TcpStream, pool: Sender<Vec<u8>>) -> TcpFrameLink {
        TcpFrameLink { stream, pool }
    }
}

impl crate::transport::FrameLink for TcpFrameLink {
    fn ship(&mut self, dst: NodeId, frame: crate::transport::Frame) {
        write_data(&mut self.stream, frame.src, dst, &frame.buf)
            .unwrap_or_else(|e| panic!("worker {}: coordinator connection lost: {e}", frame.src));
        let mut buf = frame.buf;
        buf.clear();
        let _ = self.pool.send(buf);
    }

    fn recycle(&mut self, _src: NodeId, buf: Vec<u8>) {
        let _ = self.pool.send(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<Envelope> {
        vec![
            Envelope::Hello { magic: MAGIC, version: VERSION, node_id: 3, config_hash: 77 },
            Envelope::Welcome {
                node_id: 3,
                nodes: 8,
                config_hash: 77,
                metrics_interval_us: 250_000,
                flags: WF_OBJPROF | WF_FLIGHT,
                config: vec![1, 2, 3],
                program: vec![9; 300],
            },
            Envelope::Reject { reason: "nope".into() },
            Envelope::Data { src: 1, dst: 2, frame: vec![0xAB; 95] },
            Envelope::Data { src: 0, dst: 7, frame: Vec::new() },
            Envelope::Slot { round: 9, slot: [u64::MAX, 1, 2, 3, 4], min_out: vec![u64::MAX, 7, 0] },
            Envelope::Slot { round: 1, slot: [0; 5], min_out: Vec::new() },
            Envelope::Slots { round: 9, slots: vec![[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]] },
            Envelope::State { qhead: u64::MAX, drained: 17, live: 0, ops: 12345 },
            Envelope::Done { outcome: 1 },
            Envelope::Flushed,
            Envelope::Shutdown,
            Envelope::Report { body: vec![5; 40] },
            Envelope::Metrics { node: 2, cells: vec![0, u64::MAX, 17, 42] },
            Envelope::Metrics { node: 0, cells: Vec::new() },
            Envelope::Fault {
                node: 5,
                message: "worker panicked: index out of bounds".into(),
                flight: "t+1.2ms park horizon=9\nt+1.3ms unpark".into(),
            },
            Envelope::Fault { node: 1, message: String::new(), flight: String::new() },
        ]
    }

    #[test]
    fn envelope_bytes_are_pinned() {
        let stream: Vec<u8> = samples().iter().flat_map(encode_envelope).collect();
        crate::wire_check::assert_pinned("every sample envelope", &stream, (0x3c4, 0xbb27_3436_88b8_2479));
    }

    #[test]
    fn roundtrip_every_envelope() {
        for env in samples() {
            let bytes = encode_envelope(&env);
            let mut r = &bytes[..];
            let got = read_envelope(&mut r).expect("decode");
            assert_eq!(got, env);
            assert!(r.is_empty(), "reader consumed exactly one envelope");
        }
    }

    /// Every sample envelope decodes only from exactly its own bytes, and
    /// nothing a peer can put on the stream makes the decoder panic.
    #[test]
    fn envelope_decoding_is_total() {
        for env in samples() {
            crate::wire_check::assert_total(
                |bytes| {
                    let mut stream = bytes;
                    let env = read_envelope(&mut stream)?;
                    if stream.is_empty() { Ok(env) } else { Err(io::Error::other("bytes after the envelope")) }
                },
                &encode_envelope(&env),
            );
        }
    }

    /// Tags 5 and 6 carried the round-barrier pair through v2. A stale
    /// peer is refused at the handshake, but an envelope of its that did
    /// reach the decoder must be an error — never a panic, never misparsed
    /// as something live.
    #[test]
    fn retired_tags_decode_to_an_error() {
        for tag in [5u8, 6] {
            let mut bytes = vec![9, 0, 0, 0, tag];
            bytes.extend_from_slice(&42u64.to_le_bytes());
            let err = read_envelope(&mut &bytes[..]).expect_err("retired tag accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("unknown envelope type") && msg.contains(&format!("type {tag}:")), "{msg}");
        }
    }

    /// A `Slot` whose `min_out` count outruns its body is refused before
    /// anything is allocated for it.
    #[test]
    fn slot_with_a_lying_min_out_count_is_refused() {
        let mut bytes = encode_envelope(&Envelope::Slot { round: 1, slot: [0; 5], min_out: vec![1, 2] });
        let count_at = 4 + 1 + 8 + 40;
        bytes[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(read_envelope(&mut &bytes[..]).is_err());
    }

    #[test]
    fn write_data_matches_envelope_encoding() {
        let frame = vec![7u8; 33];
        let mut via_helper = Vec::new();
        write_data(&mut via_helper, 4, 6, &frame).unwrap();
        let via_env = encode_envelope(&Envelope::Data { src: 4, dst: 6, frame });
        assert_eq!(via_helper, via_env);
    }

    #[test]
    fn decoder_handles_back_to_back_envelopes() {
        let mut stream = Vec::new();
        for env in samples() {
            stream.extend_from_slice(&encode_envelope(&env));
        }
        let mut dec = EnvelopeDecoder::new();
        dec.push(&stream);
        let mut got = Vec::new();
        while let Some(env) = dec.next().unwrap() {
            got.push(env);
        }
        assert_eq!(got, samples());
    }

    #[test]
    fn decoder_byte_at_a_time_equals_whole_buffer() {
        let mut stream = Vec::new();
        for env in samples() {
            stream.extend_from_slice(&encode_envelope(&env));
        }
        let mut dec = EnvelopeDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            while let Some(env) = dec.next().unwrap() {
                got.push(env);
            }
        }
        assert_eq!(got, samples());
    }

    #[test]
    fn hello_validation_rejects_mismatches() {
        let expect = HandshakeExpect { nodes: 4, config_hash: 0xABCD };
        let claimed = [true, false, false, false];
        let hello = |magic, version, node_id, config_hash| Envelope::Hello {
            magic,
            version,
            node_id,
            config_hash,
        };
        assert_eq!(validate_hello(&hello(MAGIC, VERSION, 2, 0xABCD), expect, &claimed), Ok(2));
        // Hash 0 skips the check (worker didn't compute one).
        assert_eq!(validate_hello(&hello(MAGIC, VERSION, 1, 0), expect, &claimed), Ok(1));
        // ANY_NODE picks the lowest free id.
        assert_eq!(validate_hello(&hello(MAGIC, VERSION, ANY_NODE, 0), expect, &claimed), Ok(1));
        let err = validate_hello(&hello(0xDEAD, VERSION, 1, 0), expect, &claimed).unwrap_err();
        assert!(err.contains("magic"), "{err}");
        let err = validate_hello(&hello(MAGIC, VERSION + 1, 1, 0), expect, &claimed).unwrap_err();
        assert!(err.contains("version"), "{err}");
        let err = validate_hello(&hello(MAGIC, VERSION, 1, 0x1234), expect, &claimed).unwrap_err();
        assert!(err.contains("config hash"), "{err}");
        let err = validate_hello(&hello(MAGIC, VERSION, 9, 0), expect, &claimed).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = validate_hello(&hello(MAGIC, VERSION, 0, 0), expect, &claimed).unwrap_err();
        assert!(err.contains("already claimed"), "{err}");
        let err =
            validate_hello(&Envelope::Flushed, expect, &claimed).unwrap_err();
        assert!(err.contains("expected Hello"), "{err}");
    }

    #[test]
    fn fnv1a_is_chunking_independent() {
        assert_eq!(fnv1a(&[b"hello world"]), fnv1a(&[b"hello", b" ", b"world"]));
        assert_ne!(fnv1a(&[b"hello"]), fnv1a(&[b"hellp"]));
    }

    fn arb_slot() -> impl Strategy<Value = SlotWire> {
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(a, b, c, d, e)| [a, b, c, d, e])
    }

    fn arb_envelope() -> impl Strategy<Value = Envelope> {
        prop_oneof![
            (any::<u32>(), any::<u16>(), any::<u16>(), any::<u64>()).prop_map(
                |(magic, version, node_id, config_hash)| Envelope::Hello {
                    magic,
                    version,
                    node_id,
                    config_hash
                }
            ),
            (any::<u16>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..200))
                .prop_map(|(src, dst, frame)| Envelope::Data { src, dst, frame }),
            (any::<u64>(), arb_slot(), proptest::collection::vec(any::<u64>(), 0..9))
                .prop_map(|(round, slot, min_out)| Envelope::Slot { round, slot, min_out }),
            (any::<u64>(), proptest::collection::vec(arb_slot(), 0..9))
                .prop_map(|(round, slots)| Envelope::Slots { round, slots }),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                |(qhead, drained, live, ops)| Envelope::State { qhead, drained, live, ops }
            ),
            proptest::collection::vec(any::<u8>(), 0..64)
                .prop_map(|body| Envelope::Report { body }),
            (any::<u16>(), proptest::collection::vec(any::<u64>(), 0..24))
                .prop_map(|(node, cells)| Envelope::Metrics { node, cells }),
            (any::<u16>(), "[ -~]{0,40}", "[ -~]{0,40}")
                .prop_map(|(node, message, flight)| Envelope::Fault { node, message, flight }),
            Just(Envelope::Flushed),
            Just(Envelope::Shutdown),
        ]
    }

    proptest! {
        /// The reassembly property the satellite task asks for: feeding the
        /// decoder at arbitrary split points (including byte-at-a-time,
        /// which the shrinker converges to) yields exactly the whole-buffer
        /// decode of the same stream.
        #[test]
        fn frame_reassembly_is_split_invariant(
            envs in proptest::collection::vec(arb_envelope(), 1..12),
            cuts in proptest::collection::vec(any::<u16>(), 0..40),
        ) {
            let mut stream = Vec::new();
            for env in &envs {
                stream.extend_from_slice(&encode_envelope(env));
            }
            // Whole-buffer reference decode.
            let mut whole = EnvelopeDecoder::new();
            whole.push(&stream);
            let mut want = Vec::new();
            while let Some(env) = whole.next().unwrap() {
                want.push(env);
            }
            prop_assert_eq!(&want, &envs);
            // Split decode: cut the stream at the (sorted, deduped) offsets.
            let mut offsets: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (stream.len() + 1)).collect();
            offsets.push(0);
            offsets.push(stream.len());
            offsets.sort_unstable();
            offsets.dedup();
            let mut dec = EnvelopeDecoder::new();
            let mut got = Vec::new();
            for w in offsets.windows(2) {
                dec.push(&stream[w[0]..w[1]]);
                while let Some(env) = dec.next().unwrap() {
                    got.push(env);
                }
            }
            prop_assert_eq!(got, want);
        }
    }
}
