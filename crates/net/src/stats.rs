//! Per-node network statistics, broken down by protocol message kind.

use crate::codec::Counter;
use crate::sim::NodeId;

/// Protocol message categories (the DSM protocol enum maps onto these for
/// accounting; the network layer itself is payload-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Lock request / forward.
    LockReq,
    /// Lock grant with queues + write notices.
    LockGrant,
    /// Diff flush to a home.
    Diff,
    /// Diff acknowledgement (new scalar version).
    DiffAck,
    /// Object fetch request.
    Fetch,
    /// Object state reply.
    ObjState,
    /// Thread shipping.
    Spawn,
    /// I/O forwarding, joins, misc control.
    Control,
}

impl From<MsgKind> for jsplit_trace::NetKind {
    fn from(k: MsgKind) -> jsplit_trace::NetKind {
        use jsplit_trace::NetKind;
        match k {
            MsgKind::LockReq => NetKind::LockReq,
            MsgKind::LockGrant => NetKind::LockGrant,
            MsgKind::Diff => NetKind::Diff,
            MsgKind::DiffAck => NetKind::DiffAck,
            MsgKind::Fetch => NetKind::Fetch,
            MsgKind::ObjState => NetKind::ObjState,
            MsgKind::Spawn => NetKind::Spawn,
            MsgKind::Control => NetKind::Control,
        }
    }
}

impl MsgKind {
    pub const ALL: [MsgKind; 8] = [
        MsgKind::LockReq,
        MsgKind::LockGrant,
        MsgKind::Diff,
        MsgKind::DiffAck,
        MsgKind::Fetch,
        MsgKind::ObjState,
        MsgKind::Spawn,
        MsgKind::Control,
    ];

    fn idx(self) -> usize {
        match self {
            MsgKind::LockReq => 0,
            MsgKind::LockGrant => 1,
            MsgKind::Diff => 2,
            MsgKind::DiffAck => 3,
            MsgKind::Fetch => 4,
            MsgKind::ObjState => 5,
            MsgKind::Spawn => 6,
            MsgKind::Control => 7,
        }
    }

    /// Stable one-byte tag used by the framed transport's record headers.
    pub fn wire_id(self) -> u8 {
        self.idx() as u8
    }

    /// Inverse of [`MsgKind::wire_id`].
    pub fn from_wire(id: u8) -> Option<MsgKind> {
        MsgKind::ALL.get(id as usize).copied()
    }

    pub fn name(self) -> &'static str {
        match self {
            MsgKind::LockReq => "lock_req",
            MsgKind::LockGrant => "lock_grant",
            MsgKind::Diff => "diff",
            MsgKind::DiffAck => "diff_ack",
            MsgKind::Fetch => "fetch",
            MsgKind::ObjState => "obj_state",
            MsgKind::Spawn => "spawn",
            MsgKind::Control => "control",
        }
    }
}

/// Counters for one node.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    pub msgs_sent: u64,
    pub msgs_recv: u64,
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    /// Sent message counts per [`MsgKind`].
    pub sent_by_kind: [u64; 8],
    /// Sent byte counts per [`MsgKind`].
    pub bytes_by_kind: [u64; 8],
    /// Received message counts per [`MsgKind`].
    pub recv_by_kind: [u64; 8],
    /// Received byte counts per [`MsgKind`].
    pub recv_bytes_by_kind: [u64; 8],
}

impl NetStats {
    pub(crate) fn record_send(&mut self, _dst: NodeId, bytes: usize, kind: MsgKind) {
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
        self.sent_by_kind[kind.idx()] += 1;
        self.bytes_by_kind[kind.idx()] += bytes as u64;
    }

    pub(crate) fn record_recv(&mut self, bytes: usize, kind: MsgKind) {
        self.msgs_recv += 1;
        self.bytes_recv += bytes as u64;
        self.recv_by_kind[kind.idx()] += 1;
        self.recv_bytes_by_kind[kind.idx()] += bytes as u64;
    }

    pub fn sent_of(&self, kind: MsgKind) -> u64 {
        self.sent_by_kind[kind.idx()]
    }

    pub fn recv_of(&self, kind: MsgKind) -> u64 {
        self.recv_by_kind[kind.idx()]
    }

    pub fn recv_bytes_of(&self, kind: MsgKind) -> u64 {
        self.recv_bytes_by_kind[kind.idx()]
    }

    /// The field table, in wire order.
    pub const FIELDS: &'static [Counter<NetStats>] = jsplit_mjvm::counters!(NetStats:
        sum msgs_sent, sum msgs_recv, sum bytes_sent, sum bytes_recv,
        sum sent_by_kind[8], sum bytes_by_kind[8], sum recv_by_kind[8], sum recv_bytes_by_kind[8]);

    /// Merge another node's counters (for cluster-wide summaries).
    pub fn merge(&mut self, other: &NetStats) {
        Counter::merge(NetStats::FIELDS, self, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_distinct_slots() {
        let mut seen = std::collections::HashSet::new();
        for k in MsgKind::ALL {
            assert!(seen.insert(k.idx()), "{k:?} collides");
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn wire_ids_round_trip() {
        for k in MsgKind::ALL {
            assert_eq!(MsgKind::from_wire(k.wire_id()), Some(k));
        }
        assert_eq!(MsgKind::from_wire(MsgKind::ALL.len() as u8), None);
    }

    #[test]
    fn merge_sums() {
        let mut a = NetStats::default();
        a.record_send(1, 10, MsgKind::Diff);
        let mut b = NetStats::default();
        b.record_send(0, 20, MsgKind::Diff);
        b.record_recv(10, MsgKind::Diff);
        a.merge(&b);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.bytes_sent, 30);
        assert_eq!(a.sent_of(MsgKind::Diff), 2);
        assert_eq!(a.msgs_recv, 1);
        assert_eq!(a.recv_of(MsgKind::Diff), 1);
        assert_eq!(a.recv_bytes_of(MsgKind::Diff), 10);
    }

    #[test]
    fn recv_tracks_kind() {
        let mut s = NetStats::default();
        s.record_recv(100, MsgKind::ObjState);
        s.record_recv(8, MsgKind::DiffAck);
        s.record_recv(8, MsgKind::DiffAck);
        assert_eq!(s.recv_of(MsgKind::ObjState), 1);
        assert_eq!(s.recv_bytes_of(MsgKind::ObjState), 100);
        assert_eq!(s.recv_of(MsgKind::DiffAck), 2);
        assert_eq!(s.recv_of(MsgKind::Fetch), 0);
        assert_eq!(s.msgs_recv, 3);
        // The kind arrays participate in equality.
        let t = NetStats { msgs_recv: 3, bytes_recv: 116, ..NetStats::default() };
        assert_ne!(s, t);
    }
}
