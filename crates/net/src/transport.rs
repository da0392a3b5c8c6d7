//! Pluggable message transport beneath the runtime drivers.
//!
//! The paper's nodes exchange messages over "standard IP-based
//! communication" (§2); the reproduction abstracts that seam as
//! [`Transport`]: the virtual-time [`Network`] is the reference
//! implementation, and [`ChannelEndpoint`] carries *encoded* protocol
//! bytes between OS threads over in-process channels — same latency model,
//! same FIFO rule, same statistics, real serialization boundary. A TCP
//! implementation slots in behind the same seam.
//!
//! ## Framing
//!
//! Remote sends are *batched*: every message a node emits to the same peer
//! within one synchronization window is appended to a per-peer frame buffer
//! and shipped as a single [`Frame`] when the driver flushes (or when the
//! frame exceeds [`FRAME_CHUNK`]). Each record in a frame is
//!
//! ```text
//! deliver_ps: u64 LE | step_ps: u64 LE | seq: u64 LE | kind: u8 | len: u32 LE | payload
//! ```
//!
//! so the receiver merge-decodes records preserving the deterministic
//! `(deliver, step, src, seq)` order. Per-*message* latency and statistics
//! are unchanged by framing — each record is planned through the same link
//! model as an unbatched send, so `NetStats` stays identical to the
//! simulated [`Network`]. Frame buffers are pooled: the receiver returns a
//! decoded frame's buffer to its sender over a recycle channel, so the
//! steady state allocates nothing on the wire path.

use crate::codec::{CodecError, Counter, Patch, Reader, Writer};
use crate::sim::{LinkParams, Network, NodeId};
use crate::stats::{MsgKind, NetStats};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Flush threshold for a per-peer frame buffer, and the chunk size the
/// driver uses when encoding bulk payloads (class shipping): large enough
/// to amortize per-frame costs, small enough to keep allocations bounded.
pub const FRAME_CHUNK: usize = 64 * 1024;

/// Bytes of record header preceding each payload in a frame.
const REC_HDR: usize = 8 + 8 + 8 + 1 + 4;

/// Record-kind byte marking a *null record*: a Chandy–Misra–Bryant promise
/// carrying no protocol message. The `deliver_ps` header field holds the
/// promise ("no future record on this channel will deliver below this
/// time"); `step_ps`, `seq` and the payload length are zero. Null records
/// exist only at the framing layer — they touch [`FrameStats`], never
/// [`NetStats`], so message accounting stays identical to the simulated
/// [`Network`]. Distinct from every [`MsgKind::wire_id`] (those count up
/// from zero).
pub const NULL_WIRE_ID: u8 = 0xFF;

/// The header preceding each record's payload — the one definition of the
/// record layout in the module docs.
#[derive(Clone, Copy)]
struct RecHdr {
    /// Virtual delivery time; for a null record, the promise.
    deliver_ps: u64,
    step_ps: u64,
    seq: u64,
    /// `None` marks a null record ([`NULL_WIRE_ID`] on the wire).
    kind: Option<MsgKind>,
    len: u32,
}

impl RecHdr {
    /// A null record carrying `promise_ps`.
    fn null(promise_ps: u64) -> RecHdr {
        RecHdr { deliver_ps: promise_ps, step_ps: 0, seq: 0, kind: None, len: 0 }
    }

    /// Reserve a header's worth of bytes at the end of `buf`, to be filled
    /// by [`RecHdr::put`] once the fields are known.
    fn reserve(buf: &mut Vec<u8>) -> usize {
        let at = buf.len();
        buf.resize(at + REC_HDR, 0);
        at
    }

    fn put(&self, buf: &mut [u8], at: usize) {
        Patch(&mut buf[at..at + REC_HDR])
            .u64(self.deliver_ps)
            .u64(self.step_ps)
            .u64(self.seq)
            .u8(self.kind.map_or(NULL_WIRE_ID, MsgKind::wire_id))
            .u32(self.len);
    }

    fn get(r: &mut Reader) -> Result<RecHdr, CodecError> {
        Ok(RecHdr {
            deliver_ps: r.u64()?,
            step_ps: r.u64()?,
            seq: r.u64()?,
            kind: match r.u8()? {
                NULL_WIRE_ID => None,
                id => Some(MsgKind::from_wire(id).ok_or(CodecError("bad frame record kind"))?),
            },
            len: r.u32()?,
        })
    }
}

/// The checked walk over one frame's records: `(header, payload)` pairs
/// until the buffer is used up exactly. A frame is peer bytes — a header or
/// payload running past the end, or an unknown kind byte, ends the walk
/// with an error instead of an index panic.
fn records(buf: &[u8]) -> impl Iterator<Item = Result<(RecHdr, &[u8]), CodecError>> {
    let mut r = Reader::new(buf);
    std::iter::from_fn(move || {
        if r.remaining() == 0 {
            return None;
        }
        let rec = RecHdr::get(&mut r).and_then(|h| Ok((h, r.take(h.len as usize)?)));
        if rec.is_err() {
            r.rest(); // a broken walk yields its error once, then ends
        }
        Some(rec)
    })
}

/// Count the non-null records inside one encoded frame without decoding
/// payloads, refusing a frame that is not a whole number of well-formed
/// records. The sockets coordinator uses this to keep an authoritative
/// per-destination delivery count for its termination decision: a worker is
/// quiescent only once it has drained exactly as many records as the
/// coordinator relayed toward it, so in-flight frames can never be mistaken
/// for global quiescence — and it is where a malformed frame is stopped,
/// at the sender's stream, before it is relayed to a receiver.
pub fn frame_data_records(buf: &[u8]) -> Result<u64, CodecError> {
    records(buf).try_fold(0, |n, rec| Ok(n + rec?.0.kind.is_some() as u64))
}

/// What a driver needs from a message fabric: given a send of `bytes` wire
/// bytes at virtual `now_ps`, account it on both ends and return the
/// virtual delivery time (respecting the per-link FIFO rule).
pub trait Transport {
    fn send(&mut self, now_ps: u64, src: NodeId, dst: NodeId, bytes: usize, kind: MsgKind) -> u64;
    fn nodes(&self) -> usize;
}

impl Transport for Network {
    fn send(&mut self, now_ps: u64, src: NodeId, dst: NodeId, bytes: usize, kind: MsgKind) -> u64 {
        Network::send(self, now_ps, src, dst, bytes, kind)
    }

    fn nodes(&self) -> usize {
        Network::nodes(self)
    }
}

/// A loopback delivery: self-sends never cross a channel, so the encoded
/// message is handed straight back to the caller, which queues it locally
/// and returns the (pooled) payload buffer via [`ChannelEndpoint::recycle`]
/// after decoding.
#[derive(Debug)]
pub struct WireMsg {
    pub src: NodeId,
    pub kind: MsgKind,
    /// The real codec output — exactly the bytes a socket would carry.
    pub payload: Vec<u8>,
    /// Virtual delivery time at the receiver, computed by the sender's
    /// link model (send time + latency, FIFO-adjusted).
    pub deliver_ps: u64,
    /// Virtual time of the sender's scheduler step that produced the
    /// message (tie-break key for deterministic merge).
    pub step_ps: u64,
    /// Sender-local sequence number: `(deliver_ps, step_ps, src, seq)`
    /// totally orders all arrivals at a receiver.
    pub seq: u64,
}

/// A batch of records from one sender, crossing the thread boundary.
#[derive(Debug)]
pub struct Frame {
    pub src: NodeId,
    pub buf: Vec<u8>,
}

/// Where finished frames go and where drained buffers return: the one seam
/// between an endpoint and the fabric that carries its frames. The in-process
/// mesh ([`ChannelFanout`]) ships over `mpsc` channels and recycles buffers
/// to their senders' pools; the TCP fabric writes length-prefixed envelopes
/// to a socket and recycles into a local pool. Everything above this trait —
/// framing, statistics, FIFO delivery planning, null records — is identical
/// across backends.
pub trait FrameLink: Send {
    /// Deliver a finished frame to `dst`'s inbound path.
    fn ship(&mut self, dst: NodeId, frame: Frame);
    /// Return a drained frame buffer to whoever allocated it.
    fn recycle(&mut self, src: NodeId, buf: Vec<u8>);
}

/// The in-process mesh fabric: one `mpsc` sender per peer for frames, one
/// per peer for buffer recycling (`None` at this node's own slot).
pub struct ChannelFanout {
    peers: Vec<Option<Sender<Frame>>>,
    recycle_peers: Vec<Option<Sender<Vec<u8>>>>,
}

impl FrameLink for ChannelFanout {
    fn ship(&mut self, dst: NodeId, frame: Frame) {
        // A peer only disconnects at teardown, when the run's outcome is
        // already decided.
        let _ = self.peers[dst as usize].as_ref().expect("no channel to self").send(frame);
    }

    fn recycle(&mut self, src: NodeId, buf: Vec<u8>) {
        let _ = self.recycle_peers[src as usize].as_ref().expect("frame from self").send(buf);
    }
}

/// A frame that is not a whole number of well-formed records, and the node
/// whose bytes it was.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    pub src: NodeId,
    pub err: CodecError,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame from node {}: {}", self.src, self.err)
    }
}

/// Per-record callback for [`ChannelEndpoint::drain_frames`]:
/// `(src, kind, deliver_ps, step_ps, seq, payload)`. The payload slice
/// borrows from the frame buffer being drained.
pub type RecordSink<'a> = dyn FnMut(NodeId, MsgKind, u64, u64, u64, &[u8]) + 'a;

/// Frame-level counters (message-level accounting lives in [`NetStats`],
/// which framing must not perturb — cross-backend identity is asserted on
/// it).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrameStats {
    /// Frames shipped to peers.
    pub frames_sent: u64,
    /// Total frame bytes shipped (headers + payloads).
    pub frame_bytes: u64,
    /// Messages carried inside those frames.
    pub msgs_framed: u64,
    /// Null records that had to travel in a frame of their own
    /// (async sync mode: a standalone promise to a stale peer).
    pub nulls_sent: u64,
    /// Null records that rode along in a frame already carrying data.
    pub nulls_piggybacked: u64,
}

impl FrameStats {
    /// The field table, in wire order.
    pub const FIELDS: &'static [Counter<FrameStats>] = jsplit_mjvm::counters!(FrameStats:
        sum frames_sent, sum frame_bytes, sum msgs_framed, sum nulls_sent, sum nulls_piggybacked);
}

/// One node's end of a fully connected channel mesh.
///
/// Owns this node's link parameters, FIFO state, statistics, the receive
/// end of its inbound frame channel, and the buffer pool. Send statistics
/// are recorded per message at [`ChannelEndpoint::transmit`]; receive
/// statistics when the receiver drains the record
/// ([`ChannelEndpoint::drain_frames`]) — totals match the simulated
/// [`Network`] because every sent message is drained (the threads driver
/// drains leftovers at shutdown).
pub struct ChannelEndpoint {
    pub id: NodeId,
    link: LinkParams,
    /// The fabric carrying finished frames (channel mesh or TCP).
    wire: Box<dyn FrameLink>,
    rx: Receiver<Frame>,
    recycle_rx: Receiver<Vec<u8>>,
    /// Per-destination frame under construction (batch mode).
    pending: Vec<Vec<u8>>,
    /// Frames accepted by [`Self::wait_inbound`] ahead of the next drain.
    stash: Vec<Frame>,
    /// Local buffer pool (fed by `recycle_rx` and loopback returns).
    pool: Vec<Vec<u8>>,
    /// `false` ships every record as its own frame immediately.
    batch: bool,
    /// FIFO slot per destination: delivery times on a (src,dst) link are
    /// strictly increasing, same rule as [`Network::send`].
    last_delivery: Vec<u64>,
    /// Earliest delivery time of any record framed for each peer since the
    /// last [`Self::take_min_out`] (`u64::MAX` = none) — what lets the
    /// epoch exchange know a receiver's queue head before it drains.
    min_out: Vec<u64>,
    pub stats: NetStats,
    pub frame_stats: FrameStats,
    /// Send-event buffer, mirroring [`Network::send`]'s recording exactly
    /// (same stamp, same FIFO-adjusted delivery) so a traced threads run
    /// emits the same `NetSend` stream as the sim. Drained by the driver at
    /// its deterministic flush points.
    pub trace: Option<Vec<jsplit_trace::Event>>,
    /// Shipped-frame size histogram (bytes), when the driver profiles.
    pub frame_hist: Option<jsplit_trace::LogHist>,
    seq: u64,
}

impl ChannelEndpoint {
    /// Build a fully connected mesh, one endpoint per link entry.
    pub fn mesh(links: &[LinkParams], batch: bool) -> Vec<ChannelEndpoint> {
        let n = links.len();
        let mut senders: Vec<Sender<Frame>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Frame>> = Vec::with_capacity(n);
        let mut rec_senders: Vec<Sender<Vec<u8>>> = Vec::with_capacity(n);
        let mut rec_receivers: Vec<Receiver<Vec<u8>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
            let (tx, rx) = channel();
            rec_senders.push(tx);
            rec_receivers.push(rx);
        }
        receivers
            .into_iter()
            .zip(rec_receivers)
            .enumerate()
            .map(|(i, (rx, recycle_rx))| {
                let fanout = ChannelFanout {
                    peers: (0..n).map(|j| if j == i { None } else { Some(senders[j].clone()) }).collect(),
                    recycle_peers: (0..n)
                        .map(|j| if j == i { None } else { Some(rec_senders[j].clone()) })
                        .collect(),
                };
                ChannelEndpoint::single(i as NodeId, n, links[i], Box::new(fanout), rx, recycle_rx, batch)
            })
            .collect()
    }

    /// Build one endpoint over an arbitrary fabric — the sockets worker's
    /// constructor, where the rest of the mesh lives in other processes.
    /// `rx` receives inbound frames (fed by the fabric's reader) and
    /// `recycle_rx` returns reusable buffers.
    pub fn single(
        id: NodeId,
        n: usize,
        link: LinkParams,
        wire: Box<dyn FrameLink>,
        rx: Receiver<Frame>,
        recycle_rx: Receiver<Vec<u8>>,
        batch: bool,
    ) -> ChannelEndpoint {
        ChannelEndpoint {
            id,
            link,
            wire,
            rx,
            recycle_rx,
            pending: vec![Vec::new(); n],
            stash: Vec::new(),
            pool: Vec::new(),
            batch,
            last_delivery: vec![0; n],
            min_out: vec![u64::MAX; n],
            stats: NetStats::default(),
            frame_stats: FrameStats::default(),
            trace: None,
            frame_hist: None,
            seq: 0,
        }
    }

    /// Cluster size this endpoint was built for.
    pub fn nodes(&self) -> usize {
        self.pending.len()
    }

    /// This node's link parameters (lookahead bound source).
    pub fn link(&self) -> LinkParams {
        self.link
    }

    /// Delivery-time computation + send-side accounting (the sender half
    /// of [`Network::send`]'s latency model, identical numbers).
    fn plan_send(&mut self, now_ps: u64, dst: NodeId, bytes: usize, kind: MsgKind) -> u64 {
        self.stats.record_send(dst, bytes, kind);
        let raw = if dst == self.id {
            now_ps + self.link.loopback_ps()
        } else {
            now_ps + self.link.latency_ps(bytes)
        };
        let slot = &mut self.last_delivery[dst as usize];
        let t = raw.max(*slot + 1);
        *slot = t;
        if let Some(trace) = &mut self.trace {
            trace.push(jsplit_trace::Event {
                t: now_ps,
                ev: jsplit_trace::TraceEvent::NetSend {
                    src: self.id,
                    dst,
                    kind: kind.into(),
                    bytes: bytes as u32,
                    deliver: t,
                },
            });
        }
        t
    }

    /// Grab a reusable buffer: local pool first, then anything peers have
    /// returned on the recycle channel, else allocate.
    fn take_buf(&mut self) -> Vec<u8> {
        while let Ok(buf) = self.recycle_rx.try_recv() {
            self.pool.push(buf);
        }
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a buffer (loopback payloads, drained frames) to the pool.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.push(buf);
    }

    /// Encode-and-ship a protocol message to `dst` at virtual `now_ps`.
    /// `encode` writes the payload bytes (e.g. `|w| msg.encode_into(w)`).
    /// Remote sends land in the per-peer frame (shipped at [`Self::flush`]
    /// or when the frame exceeds [`FRAME_CHUNK`]) and return `None`;
    /// self-sends are handed back to the caller, which must queue the
    /// delivery itself (a loopback arrives below any synchronization
    /// window).
    pub fn transmit(
        &mut self,
        now_ps: u64,
        step_ps: u64,
        dst: NodeId,
        kind: MsgKind,
        encode: &mut dyn FnMut(&mut Writer),
    ) -> (u64, Option<WireMsg>) {
        let seq = self.seq;
        self.seq += 1;
        if dst == self.id {
            let mut w = Writer::over(self.take_buf());
            encode(&mut w);
            let payload = w.into_inner();
            let deliver_ps = self.plan_send(now_ps, dst, payload.len(), kind);
            return (deliver_ps, Some(WireMsg { src: self.id, kind, payload, deliver_ps, step_ps, seq }));
        }
        // Append a record to the destination's frame: reserve the header,
        // encode the payload in place, then patch the header (the delivery
        // time depends on the encoded length).
        let mut buf = std::mem::take(&mut self.pending[dst as usize]);
        if buf.capacity() == 0 {
            buf = self.take_buf();
        }
        let start = RecHdr::reserve(&mut buf);
        let mut w = Writer::over(buf);
        encode(&mut w);
        let mut buf = w.into_inner();
        let payload_len = buf.len() - start - REC_HDR;
        let deliver_ps = self.plan_send(now_ps, dst, payload_len, kind);
        RecHdr { deliver_ps, step_ps, seq, kind: Some(kind), len: payload_len as u32 }.put(&mut buf, start);
        self.frame_stats.msgs_framed += 1;
        let m = &mut self.min_out[dst as usize];
        *m = (*m).min(deliver_ps);
        self.pending[dst as usize] = buf;
        if !self.batch || self.pending[dst as usize].len() >= FRAME_CHUNK {
            self.flush_to(dst);
        }
        (deliver_ps, None)
    }

    fn flush_to(&mut self, dst: NodeId) {
        let buf = std::mem::take(&mut self.pending[dst as usize]);
        if buf.is_empty() {
            return;
        }
        self.frame_stats.frames_sent += 1;
        self.frame_stats.frame_bytes += buf.len() as u64;
        if let Some(h) = &mut self.frame_hist {
            h.record(buf.len() as u64);
        }
        self.wire.ship(dst, Frame { src: self.id, buf });
    }

    /// Ship every pending frame. The driver calls this before each
    /// synchronization point — after it, everything this node sent this
    /// window is in its peers' channels.
    pub fn flush(&mut self) {
        for dst in 0..self.pending.len() {
            self.flush_to(dst as NodeId);
        }
    }

    /// Copy out the per-peer earliest delivery times of everything framed
    /// since the previous call, and start the next window's record.
    pub fn take_min_out(&mut self, out: &mut [u64]) {
        out.copy_from_slice(&self.min_out);
        self.min_out.fill(u64::MAX);
    }

    /// Append a null record (promise `promise_ps`) to the frame under
    /// construction for `dst` and ship the frame immediately. A promise is
    /// only useful once it is in the peer's channel, so unlike data records
    /// nulls never wait for a later flush. Counted as piggybacked when the
    /// frame already carried data records, standalone otherwise.
    pub fn push_null(&mut self, dst: NodeId, promise_ps: u64) {
        debug_assert_ne!(dst, self.id, "null record to self");
        let mut buf = std::mem::take(&mut self.pending[dst as usize]);
        if buf.capacity() == 0 {
            buf = self.take_buf();
        }
        if buf.is_empty() {
            self.frame_stats.nulls_sent += 1;
        } else {
            self.frame_stats.nulls_piggybacked += 1;
        }
        let start = RecHdr::reserve(&mut buf);
        RecHdr::null(promise_ps).put(&mut buf, start);
        self.pending[dst as usize] = buf;
        self.flush_to(dst);
    }

    /// Block until an inbound frame arrives (stashed for the next drain) or
    /// `timeout` elapses. Returns whether a frame arrived. This is the
    /// async-mode park: a node whose horizon is exhausted sleeps here until
    /// a peer's data or null record can move it forward.
    pub fn wait_inbound(&mut self, timeout: std::time::Duration) -> bool {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => {
                self.stash.push(frame);
                true
            }
            Err(_) => false,
        }
    }

    /// Drain all inbound frames, invoking the sink for each record in
    /// arrival order and recording receive statistics. Payloads are decoded
    /// in place from the frame buffer (no copy); buffers go back to their
    /// senders' pools. Null records are routed to `nulls` (src, promise) and
    /// touch no statistics. A frame is peer bytes: one that is not a whole
    /// number of well-formed records stops the drain with an error naming
    /// its sender (the records before the fault have been delivered).
    pub fn drain_frames_with_nulls(
        &mut self,
        sink: &mut RecordSink<'_>,
        nulls: &mut dyn FnMut(NodeId, u64),
    ) -> Result<(), FrameError> {
        loop {
            let frame = if self.stash.is_empty() {
                match self.rx.try_recv() {
                    Ok(f) => f,
                    Err(_) => break,
                }
            } else {
                // FIFO: a stashed frame arrived before anything still in rx.
                self.stash.remove(0)
            };
            for rec in records(&frame.buf) {
                let (h, payload) = rec.map_err(|err| FrameError { src: frame.src, err })?;
                match h.kind {
                    None => nulls(frame.src, h.deliver_ps),
                    Some(kind) => {
                        self.stats.record_recv(payload.len(), kind);
                        sink(frame.src, kind, h.deliver_ps, h.step_ps, h.seq, payload);
                    }
                }
            }
            // Hand the buffer back to whoever allocated it.
            self.wire.recycle(frame.src, frame.buf);
        }
        Ok(())
    }

    /// [`Self::drain_frames_with_nulls`] for drivers that never emit null
    /// records (epoch sync): a null record, like a malformed frame, is a
    /// protocol violation and panics naming the sender.
    pub fn drain_frames(&mut self, sink: &mut RecordSink<'_>) {
        self.drain_frames_with_nulls(sink, &mut |src, _| {
            panic!("null record from node {src} outside async sync mode")
        })
        .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Receive-side accounting without a channel hop (setup-phase traffic
    /// is planned single-threaded before the mesh is distributed; loopback
    /// deliveries).
    pub fn record_recv(&mut self, bytes: usize, kind: MsgKind) {
        self.stats.record_recv(bytes, kind);
    }
}

/// [`Transport`] over a not-yet-distributed mesh: bootstrap traffic (class
/// shipping) is planned while all endpoints are still in one place, so both
/// ends' statistics are recorded directly — no payload crosses a channel.
pub struct MeshSetup<'a>(pub &'a mut [ChannelEndpoint]);

impl Transport for MeshSetup<'_> {
    fn send(&mut self, now_ps: u64, src: NodeId, dst: NodeId, bytes: usize, kind: MsgKind) -> u64 {
        let at = self.0[src as usize].plan_send(now_ps, dst, bytes, kind);
        if src != dst {
            self.0[dst as usize].record_recv(bytes, kind);
        } else {
            self.0[src as usize].record_recv(bytes, kind);
        }
        at
    }

    fn nodes(&self) -> usize {
        self.0.len()
    }
}

/// [`Transport`] over a single endpoint whose peers live in other
/// processes: bootstrap traffic is *replayed* identically on every worker —
/// the sender plans the send (mutating its FIFO state exactly like
/// [`MeshSetup`] would), a receiver records only its own receive. The
/// returned delivery time is meaningful on the sending node only.
pub struct SoloSetup<'a>(pub &'a mut ChannelEndpoint);

impl Transport for SoloSetup<'_> {
    fn send(&mut self, now_ps: u64, src: NodeId, dst: NodeId, bytes: usize, kind: MsgKind) -> u64 {
        if src == self.0.id {
            let at = self.0.plan_send(now_ps, dst, bytes, kind);
            if dst == src {
                self.0.record_recv(bytes, kind);
            }
            at
        } else if dst == self.0.id {
            self.0.record_recv(bytes, kind);
            0
        } else {
            0
        }
    }

    fn nodes(&self) -> usize {
        self.0.nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links() -> Vec<LinkParams> {
        vec![
            LinkParams { base_ns: 636_400, per_byte_ns: 88 },
            LinkParams { base_ns: 85_800, per_byte_ns: 91 },
        ]
    }

    fn put(ep: &mut ChannelEndpoint, now: u64, dst: NodeId, kind: MsgKind, bytes: &[u8]) -> (u64, Option<WireMsg>) {
        ep.transmit(now, now, dst, kind, &mut |w| {
            for b in bytes {
                w.u8(*b);
            }
        })
    }

    #[test]
    fn endpoint_matches_network_delivery_times() {
        for batch in [false, true] {
            let mut net = Network::new(links());
            let mut mesh = ChannelEndpoint::mesh(&links(), batch);
            for (now, src, dst, bytes) in [(0u64, 0u16, 1u16, 100usize), (5, 0, 1, 10), (7, 1, 0, 2000), (9, 1, 1, 4)] {
                let want = net.send(now, src, dst, bytes, MsgKind::Diff);
                let (got, _) = put(&mut mesh[src as usize], now, dst, MsgKind::Diff, &vec![0u8; bytes]);
                assert_eq!(got, want, "send {now} {src}->{dst} {bytes}B batch={batch}");
            }
        }
    }

    #[test]
    fn payload_bytes_cross_the_channel_framed() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        let (at1, l) = put(&mut mesh[0], 42, 1, MsgKind::Control, b"hello wire");
        assert!(l.is_none());
        let (at2, _) = put(&mut mesh[0], 43, 1, MsgKind::Diff, b"again");
        // The window's earliest framed delivery per peer, handed over once.
        let mut min_out = [0u64; 2];
        mesh[0].take_min_out(&mut min_out);
        assert_eq!(min_out, [u64::MAX, at1]);
        mesh[0].take_min_out(&mut min_out);
        assert_eq!(min_out, [u64::MAX; 2]);
        // Nothing arrives until the sender flushes: both records coalesce
        // into one frame.
        let mut got = Vec::new();
        mesh[1].drain_frames(&mut |src, kind, at, _, _, p| got.push((src, kind, at, p.to_vec())));
        assert!(got.is_empty());
        mesh[0].flush();
        mesh[1].drain_frames(&mut |src, kind, at, _, _, p| got.push((src, kind, at, p.to_vec())));
        assert_eq!(
            got,
            vec![
                (0, MsgKind::Control, at1, b"hello wire".to_vec()),
                (0, MsgKind::Diff, at2, b"again".to_vec()),
            ]
        );
        assert_eq!(mesh[0].frame_stats.frames_sent, 1);
        assert_eq!(mesh[0].frame_stats.msgs_framed, 2);
        assert_eq!(mesh[0].stats.msgs_sent, 2);
        assert_eq!(mesh[1].stats.msgs_recv, 2);
        assert_eq!(mesh[1].stats.bytes_recv, 15);
    }

    /// One frame carrying a data record and a null record behind it.
    fn sample_frame() -> Vec<u8> {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        put(&mut mesh[0], 42, 1, MsgKind::Diff, b"hello wire");
        mesh[0].push_null(1, 888);
        mesh[1].rx.try_recv().expect("the null ships the frame").buf
    }

    #[test]
    fn frame_bytes_are_pinned() {
        crate::wire_check::assert_pinned("data record + null", &sample_frame(), (0x44, 0xd3e3_bd52_b93d_f452));
    }

    /// A frame is peer bytes: the record walk takes exactly whole
    /// well-formed records or fails — truncated header, payload running
    /// past the end, unknown kind byte — and never indexes out of bounds.
    #[test]
    fn record_walk_is_total() {
        let whole_frame = |bytes: &[u8]| match records(bytes).collect::<Result<Vec<_>, _>>()?.len() {
            2 => Ok(()),
            _ => Err(CodecError("not the two records of the sample")),
        };
        crate::wire_check::assert_total(whole_frame, &sample_frame());
        let mut bad_kind = sample_frame();
        bad_kind[24] = MsgKind::ALL.len() as u8;
        assert_eq!(frame_data_records(&bad_kind), Err(CodecError("bad frame record kind")));
    }

    /// What the walk refuses, the drain reports naming the sender — after
    /// delivering the well-formed records before the fault — and the
    /// coordinator's count refuses too, so such a frame is stopped at its
    /// sender's stream rather than relayed.
    #[test]
    fn malformed_frames_are_an_error_naming_the_sender() {
        let mut truncated = sample_frame();
        truncated.pop();
        assert_eq!(frame_data_records(&truncated), Err(CodecError("truncated message")));
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        mesh[0].wire.ship(1, Frame { src: 0, buf: truncated });
        let mut got = Vec::new();
        let err = mesh[1]
            .drain_frames_with_nulls(&mut |_, kind, _, _, _, p| got.push((kind, p.to_vec())), &mut |_, _| {})
            .expect_err("a truncated null record");
        assert_eq!(err, FrameError { src: 0, err: CodecError("truncated message") });
        assert_eq!(err.to_string(), "malformed frame from node 0: codec error: truncated message");
        assert_eq!(got, vec![(MsgKind::Diff, b"hello wire".to_vec())]);
    }

    #[test]
    fn unbatched_mode_ships_one_record_per_frame() {
        let mut mesh = ChannelEndpoint::mesh(&links(), false);
        put(&mut mesh[0], 0, 1, MsgKind::Control, b"a");
        put(&mut mesh[0], 1, 1, MsgKind::Control, b"b");
        let mut got = Vec::new();
        mesh[1].drain_frames(&mut |_, _, _, _, seq, p| got.push((seq, p.to_vec())));
        assert_eq!(got, vec![(0, b"a".to_vec()), (1, b"b".to_vec())]);
        assert_eq!(mesh[0].frame_stats.frames_sent, 2);
    }

    #[test]
    fn oversized_frames_flush_early() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        let big = vec![7u8; FRAME_CHUNK];
        put(&mut mesh[0], 0, 1, MsgKind::ObjState, &big);
        // Exceeded the chunk threshold: shipped without an explicit flush.
        let mut seen = 0;
        mesh[1].drain_frames(&mut |_, _, _, _, _, p| {
            assert_eq!(p, &big[..]);
            seen += 1;
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn frame_buffers_are_recycled() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        put(&mut mesh[0], 0, 1, MsgKind::Control, b"x");
        mesh[0].flush();
        mesh[1].drain_frames(&mut |_, _, _, _, _, _| {});
        // The drained buffer went back over the recycle channel; the next
        // take on node 0 reuses it instead of allocating.
        let buf = mesh[0].take_buf();
        assert!(buf.capacity() > 0, "expected the recycled frame buffer");
    }

    #[test]
    fn self_sends_stay_local() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        let (at, local) = put(&mut mesh[0], 0, 0, MsgKind::Control, b"x");
        let msg = local.expect("loopback returned to caller");
        assert_eq!(msg.deliver_ps, at);
        assert_eq!(at, crate::sim::LOOPBACK_PS);
        let mut min_out = [0u64; 2];
        mesh[0].take_min_out(&mut min_out);
        assert_eq!(min_out, [u64::MAX; 2], "a loopback is not an outbound record");
        let mut any = false;
        mesh[0].drain_frames(&mut |_, _, _, _, _, _| any = true);
        assert!(!any);
        mesh[0].recycle(msg.payload);
    }

    #[test]
    fn fifo_per_destination() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        let (t1, _) = put(&mut mesh[0], 0, 1, MsgKind::ObjState, &vec![0u8; 65_000]);
        let (t2, _) = put(&mut mesh[0], 1, 1, MsgKind::LockReq, &[0u8; 10]);
        assert!(t2 > t1, "FIFO violated: {t2} <= {t1}");
    }

    #[test]
    fn endpoint_trace_matches_network_trace() {
        // Traced sends through the endpoint (remote, loopback, and setup
        // mesh) record the same NetSend events as the reference Network.
        let mut net = Network::new(links());
        net.trace = Some(Vec::new());
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        for ep in &mut mesh {
            ep.trace = Some(Vec::new());
        }
        let sends = [(0u64, 0u16, 1u16, 100usize), (5, 0, 0, 10), (7, 1, 0, 2000)];
        for (now, src, dst, bytes) in sends {
            net.send(now, src, dst, bytes, MsgKind::Diff);
            put(&mut mesh[src as usize], now, dst, MsgKind::Diff, &vec![0u8; bytes]);
        }
        MeshSetup(&mut mesh).send(9, 1, 0, 55, MsgKind::Control);
        net.send(9, 1, 0, 55, MsgKind::Control);
        let want = net.trace.take().unwrap();
        let mut got: Vec<_> = Vec::new();
        for ep in &mut mesh {
            got.extend(ep.trace.take().unwrap());
        }
        // Network's buffer is in global send order; per-endpoint buffers
        // concatenate by node — compare per-sender subsequences.
        for node in 0..2u16 {
            let w: Vec<_> = want.iter().filter(|e| e.ev.node() == node).collect();
            let g: Vec<_> = got.iter().filter(|e| e.ev.node() == node).collect();
            assert_eq!(w, g, "node {node}");
        }
        assert_eq!(want.len(), got.len());
    }

    #[test]
    fn frame_hist_records_shipped_frame_sizes() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        mesh[0].frame_hist = Some(jsplit_trace::LogHist::new());
        put(&mut mesh[0], 0, 1, MsgKind::Control, b"hello");
        put(&mut mesh[0], 1, 1, MsgKind::Control, b"world");
        mesh[0].flush();
        let h = mesh[0].frame_hist.take().unwrap();
        assert_eq!(h.count(), 1);
        // One frame: two records of (header + 5 payload bytes) each.
        assert_eq!(h.sum(), 2 * (REC_HDR as u64 + 5));
    }

    #[test]
    fn null_records_carry_promises_without_touching_net_stats() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        // Standalone null: empty pending frame for dst 1.
        mesh[0].push_null(1, 777);
        // Piggybacked null: a data record is already pending for dst 1.
        put(&mut mesh[0], 0, 1, MsgKind::Control, b"data");
        mesh[0].push_null(1, 888);
        let mut data = Vec::new();
        let mut promises = Vec::new();
        mesh[1].drain_frames_with_nulls(
            &mut |src, kind, _, _, _, p| data.push((src, kind, p.to_vec())),
            &mut |src, promise| promises.push((src, promise)),
        )
        .expect("well-formed frames");
        assert_eq!(promises, vec![(0, 777), (0, 888)]);
        assert_eq!(data, vec![(0, MsgKind::Control, b"data".to_vec())]);
        assert_eq!(mesh[0].frame_stats.nulls_sent, 1);
        assert_eq!(mesh[0].frame_stats.nulls_piggybacked, 1);
        assert_eq!(mesh[0].frame_stats.msgs_framed, 1);
        // NetStats sees only the data record on both ends.
        assert_eq!(mesh[0].stats.msgs_sent, 1);
        assert_eq!(mesh[1].stats.msgs_recv, 1);
        assert_eq!(mesh[1].stats.bytes_recv, 4);
    }

    #[test]
    fn frame_data_records_skips_nulls_and_spans_payloads() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        // Nulls ship their frame immediately: the first is a standalone
        // frame (0 data records), the second rides behind two data records.
        mesh[0].push_null(1, 777);
        put(&mut mesh[0], 0, 1, MsgKind::Control, b"data");
        put(&mut mesh[0], 1, 1, MsgKind::Diff, &vec![9u8; 300]);
        mesh[0].push_null(1, 888);
        mesh[0].flush();
        let standalone = mesh[1].rx.try_recv().expect("standalone null frame");
        assert_eq!(frame_data_records(&standalone.buf), Ok(0));
        let frame = mesh[1].rx.try_recv().expect("data frame");
        assert_eq!(frame_data_records(&frame.buf), Ok(2));
        assert_eq!(frame_data_records(&[]), Ok(0));
    }

    #[test]
    #[should_panic(expected = "null record from node 0 outside async sync mode")]
    fn epoch_drain_rejects_null_records() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        mesh[0].push_null(1, 5);
        mesh[1].drain_frames(&mut |_, _, _, _, _, _| {});
    }

    #[test]
    #[should_panic(expected = "malformed frame from node 0: codec error: truncated message")]
    fn epoch_drain_rejects_malformed_frames() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        mesh[0].wire.ship(1, Frame { src: 0, buf: vec![0; REC_HDR - 1] });
        mesh[1].drain_frames(&mut |_, _, _, _, _, _| {});
    }

    #[test]
    fn wait_inbound_stashes_frames_for_the_next_drain() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        put(&mut mesh[0], 0, 1, MsgKind::Control, b"a");
        mesh[0].flush();
        assert!(mesh[1].wait_inbound(std::time::Duration::from_secs(5)));
        // A second frame sits in rx behind the stashed one; drain order
        // must stay arrival order.
        put(&mut mesh[0], 1, 1, MsgKind::Control, b"b");
        mesh[0].flush();
        let mut got = Vec::new();
        mesh[1].drain_frames(&mut |_, _, _, _, _, p| got.push(p.to_vec()));
        assert_eq!(got, vec![b"a".to_vec(), b"b".to_vec()]);
        // Nothing left: the wait times out.
        assert!(!mesh[1].wait_inbound(std::time::Duration::from_millis(1)));
    }

    #[test]
    fn setup_mesh_matches_network_accounting() {
        let mut net = Network::new(links());
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        let want = net.send(0, 0, 1, 5_000, MsgKind::Control);
        let got = MeshSetup(&mut mesh).send(0, 0, 1, 5_000, MsgKind::Control);
        assert_eq!(got, want);
        assert_eq!(mesh[0].stats.msgs_sent, net.stats[0].msgs_sent);
        assert_eq!(mesh[1].stats.recv_by_kind, net.stats[1].recv_by_kind);
    }
}
