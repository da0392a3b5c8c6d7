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

use crate::codec::Writer;
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

/// Count the non-null records inside one encoded frame without decoding
/// payloads. The sockets coordinator uses this to keep an authoritative
/// per-destination delivery count for its termination decision: a worker is
/// quiescent only once it has drained exactly as many records as the
/// coordinator relayed toward it, so in-flight frames can never be mistaken
/// for global quiescence.
pub fn frame_data_records(buf: &[u8]) -> u64 {
    let mut n = 0u64;
    let mut at = 0usize;
    while at + REC_HDR <= buf.len() {
        let kind = buf[at + 24];
        let len = u32::from_le_bytes(buf[at + 25..at + 29].try_into().unwrap()) as usize;
        if kind != NULL_WIRE_ID {
            n += 1;
        }
        at += REC_HDR + len;
    }
    n
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
        let start = buf.len();
        buf.resize(start + REC_HDR, 0);
        let mut w = Writer::over(buf);
        encode(&mut w);
        let mut buf = w.into_inner();
        let payload_len = buf.len() - start - REC_HDR;
        let deliver_ps = self.plan_send(now_ps, dst, payload_len, kind);
        buf[start..start + 8].copy_from_slice(&deliver_ps.to_le_bytes());
        buf[start + 8..start + 16].copy_from_slice(&step_ps.to_le_bytes());
        buf[start + 16..start + 24].copy_from_slice(&seq.to_le_bytes());
        buf[start + 24] = kind.wire_id();
        buf[start + 25..start + 29].copy_from_slice(&(payload_len as u32).to_le_bytes());
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
        let start = buf.len();
        buf.resize(start + REC_HDR, 0);
        buf[start..start + 8].copy_from_slice(&promise_ps.to_le_bytes());
        buf[start + 24] = NULL_WIRE_ID;
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
    /// touch no statistics.
    pub fn drain_frames_with_nulls(&mut self, sink: &mut RecordSink<'_>, nulls: &mut dyn FnMut(NodeId, u64)) {
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
            let mut at = 0usize;
            while at < frame.buf.len() {
                let h = &frame.buf[at..at + REC_HDR];
                let deliver_ps = u64::from_le_bytes(h[0..8].try_into().unwrap());
                let step_ps = u64::from_le_bytes(h[8..16].try_into().unwrap());
                let seq = u64::from_le_bytes(h[16..24].try_into().unwrap());
                let len = u32::from_le_bytes(h[25..29].try_into().unwrap()) as usize;
                at += REC_HDR;
                let payload = &frame.buf[at..at + len];
                at += len;
                if h[24] == NULL_WIRE_ID {
                    nulls(frame.src, deliver_ps);
                    continue;
                }
                let kind = MsgKind::from_wire(h[24]).expect("bad frame record kind");
                self.stats.record_recv(len, kind);
                sink(frame.src, kind, deliver_ps, step_ps, seq, payload);
            }
            // Hand the buffer back to whoever allocated it.
            self.wire.recycle(frame.src, frame.buf);
        }
    }

    /// [`Self::drain_frames_with_nulls`] for drivers that never emit null
    /// records (epoch sync): encountering one is a protocol violation.
    pub fn drain_frames(&mut self, sink: &mut RecordSink<'_>) {
        self.drain_frames_with_nulls(sink, &mut |src, _| {
            panic!("null record from node {src} outside async sync mode")
        });
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
        );
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
        assert_eq!(frame_data_records(&standalone.buf), 0);
        let frame = mesh[1].rx.try_recv().expect("data frame");
        assert_eq!(frame_data_records(&frame.buf), 2);
        assert_eq!(frame_data_records(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "null record from node 0 outside async sync mode")]
    fn epoch_drain_rejects_null_records() {
        let mut mesh = ChannelEndpoint::mesh(&links(), true);
        mesh[0].push_null(1, 5);
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
