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
pub const VERSION: u16 = 3;
/// `Hello.node_id` value asking the coordinator to assign one.
pub const ANY_NODE: u16 = u16::MAX;
/// Upper bound on a single envelope body (corrupt-stream guard).
pub const MAX_ENVELOPE: usize = 256 * 1024 * 1024;

/// Values of an epoch slot publish: `next_event`, `live`, `spawns_sent`,
/// `spawns_recv`, `ops` — the exact quintuple the threads backend stores
/// into its shared-memory `NodeSlot`.
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

fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.at + n > self.b.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated envelope body"));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u16`-counted run of `u64`s (the count is at most 64 Ki, so a
    /// hostile one cannot over-allocate before `take` refuses it).
    fn u64s(&mut self) -> io::Result<Vec<u64>> {
        let n = self.u16()? as usize;
        self.take(8 * n)?.chunks_exact(8).map(|b| Ok(u64::from_le_bytes(b.try_into().unwrap()))).collect()
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.b[self.at..];
        self.at = self.b.len();
        s
    }
}

/// Serialize an envelope (length prefix included).
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let mut b = vec![0u8; 4];
    match env {
        Envelope::Hello { magic, version, node_id, config_hash } => {
            b.push(T_HELLO);
            put_u32(&mut b, *magic);
            put_u16(&mut b, *version);
            put_u16(&mut b, *node_id);
            put_u64(&mut b, *config_hash);
        }
        Envelope::Welcome { node_id, nodes, config_hash, metrics_interval_us, flags, config, program } => {
            b.push(T_WELCOME);
            put_u16(&mut b, *node_id);
            put_u16(&mut b, *nodes);
            put_u64(&mut b, *config_hash);
            put_u64(&mut b, *metrics_interval_us);
            b.push(*flags);
            put_u32(&mut b, config.len() as u32);
            b.extend_from_slice(config);
            put_u32(&mut b, program.len() as u32);
            b.extend_from_slice(program);
        }
        Envelope::Reject { reason } => {
            b.push(T_REJECT);
            put_u32(&mut b, reason.len() as u32);
            b.extend_from_slice(reason.as_bytes());
        }
        Envelope::Data { src, dst, frame } => {
            b.push(T_DATA);
            put_u16(&mut b, *src);
            put_u16(&mut b, *dst);
            b.extend_from_slice(frame);
        }
        Envelope::Slot { round, slot, min_out } => {
            b.push(T_SLOT);
            put_u64(&mut b, *round);
            for v in slot {
                put_u64(&mut b, *v);
            }
            put_u16(&mut b, min_out.len() as u16);
            for v in min_out {
                put_u64(&mut b, *v);
            }
        }
        Envelope::Slots { round, slots } => {
            b.push(T_SLOTS);
            put_u64(&mut b, *round);
            put_u16(&mut b, slots.len() as u16);
            for s in slots {
                for v in s {
                    put_u64(&mut b, *v);
                }
            }
        }
        Envelope::State { qhead, drained, live, ops } => {
            b.push(T_STATE);
            put_u64(&mut b, *qhead);
            put_u64(&mut b, *drained);
            put_u64(&mut b, *live);
            put_u64(&mut b, *ops);
        }
        Envelope::Done { outcome } => {
            b.push(T_DONE);
            b.push(*outcome);
        }
        Envelope::Flushed => b.push(T_FLUSHED),
        Envelope::Shutdown => b.push(T_SHUTDOWN),
        Envelope::Report { body } => {
            b.push(T_REPORT);
            b.extend_from_slice(body);
        }
        Envelope::Metrics { node, cells } => {
            b.push(T_METRICS);
            put_u16(&mut b, *node);
            put_u16(&mut b, cells.len() as u16);
            for v in cells {
                put_u64(&mut b, *v);
            }
        }
        Envelope::Fault { node, message, flight } => {
            b.push(T_FAULT);
            put_u16(&mut b, *node);
            put_u32(&mut b, message.len() as u32);
            b.extend_from_slice(message.as_bytes());
            put_u32(&mut b, flight.len() as u32);
            b.extend_from_slice(flight.as_bytes());
        }
    }
    let len = (b.len() - 4) as u32;
    b[0..4].copy_from_slice(&len.to_le_bytes());
    b
}

fn decode_body(ty: u8, body: &[u8]) -> io::Result<Envelope> {
    let mut c = Cursor { b: body, at: 0 };
    let env = match ty {
        T_HELLO => Envelope::Hello {
            magic: c.u32()?,
            version: c.u16()?,
            node_id: c.u16()?,
            config_hash: c.u64()?,
        },
        T_WELCOME => {
            let node_id = c.u16()?;
            let nodes = c.u16()?;
            let config_hash = c.u64()?;
            let metrics_interval_us = c.u64()?;
            let flags = c.u8()?;
            let clen = c.u32()? as usize;
            let config = c.take(clen)?.to_vec();
            let plen = c.u32()? as usize;
            let program = c.take(plen)?.to_vec();
            Envelope::Welcome { node_id, nodes, config_hash, metrics_interval_us, flags, config, program }
        }
        T_REJECT => {
            let rlen = c.u32()? as usize;
            let reason = String::from_utf8_lossy(c.take(rlen)?).into_owned();
            Envelope::Reject { reason }
        }
        T_DATA => {
            let src = c.u16()?;
            let dst = c.u16()?;
            Envelope::Data { src, dst, frame: c.rest().to_vec() }
        }
        T_SLOT => {
            let round = c.u64()?;
            let mut slot = [0u64; 5];
            for v in &mut slot {
                *v = c.u64()?;
            }
            Envelope::Slot { round, slot, min_out: c.u64s()? }
        }
        T_SLOTS => {
            let round = c.u64()?;
            let n = c.u16()? as usize;
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                let mut slot = [0u64; 5];
                for v in &mut slot {
                    *v = c.u64()?;
                }
                slots.push(slot);
            }
            Envelope::Slots { round, slots }
        }
        T_STATE => Envelope::State {
            qhead: c.u64()?,
            drained: c.u64()?,
            live: c.u64()?,
            ops: c.u64()?,
        },
        T_DONE => Envelope::Done { outcome: c.u8()? },
        T_FLUSHED => Envelope::Flushed,
        T_SHUTDOWN => Envelope::Shutdown,
        T_REPORT => Envelope::Report { body: c.rest().to_vec() },
        T_METRICS => Envelope::Metrics { node: c.u16()?, cells: c.u64s()? },
        T_FAULT => {
            let node = c.u16()?;
            let mlen = c.u32()? as usize;
            let message = String::from_utf8_lossy(c.take(mlen)?).into_owned();
            let flen = c.u32()? as usize;
            let flight = String::from_utf8_lossy(c.take(flen)?).into_owned();
            Envelope::Fault { node, message, flight }
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown envelope type {other}"),
            ))
        }
    };
    if c.at != body.len() && !matches!(ty, T_DATA | T_REPORT) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "trailing bytes in envelope body"));
    }
    Ok(env)
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
    decode_body(body[0], &body[1..])
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
        let env = decode_body(avail[4], &avail[5..4 + len])?;
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
    fn roundtrip_every_envelope() {
        for env in samples() {
            let bytes = encode_envelope(&env);
            let mut r = &bytes[..];
            let got = read_envelope(&mut r).expect("decode");
            assert_eq!(got, env);
            assert!(r.is_empty(), "reader consumed exactly one envelope");
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
            assert!(err.to_string().contains(&format!("unknown envelope type {tag}")), "{err}");
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
