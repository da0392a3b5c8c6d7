//! Per-object DSM sharing profiler (PR 10).
//!
//! `DsmStats` says *how much* coherence traffic a run generated; this module
//! says *which objects* generated it and *why*. Each node's DSM engine, when
//! profiling is enabled, attributes every protocol event it already counts —
//! cached/uncached reads and writes, fetches, diff flushes/applies,
//! invalidations, lock acquires/grants, delayed-at-home fetches — to the
//! event's **base** `Gid` (chunked-array region CUs fold onto their base
//! object) in an [`ObjProfile`] keyed by (object, accessing node).
//!
//! The same discipline as the trace layer applies:
//!
//! * **Zero cost when off.** The engine holds an `Option<Box<ObjProfile>>`;
//!   a run without profiling pays one untaken branch per potential event,
//!   and on-vs-off runs are bit-identical (events are counted, never acted
//!   on).
//! * **Deterministic.** Counts are a pure function of the virtual-time
//!   execution, which is identical across the sim, threads and sockets
//!   backends — so the merged report (and the HEAT json derived from it) is
//!   byte-identical run-to-run and backend-to-backend.
//! * **Reconciles with `DsmStats`.** Every profiled event with a `DsmStats`
//!   counterpart is bumped at the *same code site* as the aggregate counter,
//!   so per-object sums (plus the [`ObjProfile::unattributed`] bucket for
//!   gid-less events) equal the aggregate totals exactly — an invariant the
//!   heat report self-checks and CI re-validates.
//!
//! On top of the raw matrix, [`classify`] labels each object's sharing
//! pattern from reader/writer set sizes and lock-transfer chains, and
//! [`advise`] scores home-vs-dominant-accessor mismatch into ranked
//! home-migration candidates ([`build_report`]).

use crate::event::NodeId;
use std::collections::HashMap;

/// Number of profiled event kinds (array-indexed cells).
pub const OBJ_KINDS: usize = 15;

/// One profiled per-object event kind.
///
/// The first four (`ReadHit`..`WriteMiss`) have no `DsmStats` counterpart —
/// they exist for the classifier's reader/writer sets. The remaining eleven
/// mirror aggregate counters one-to-one (see [`STATS_MAPPED`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjEvent {
    /// Read of a valid (or self-homed) shared copy.
    ReadHit,
    /// Write to a valid shared copy (twin + dirty).
    WriteHit,
    /// Read that faulted on an invalid copy or stale region.
    ReadMiss,
    /// Write that faulted on an invalid copy or stale region.
    WriteMiss,
    /// Fetch sent to the home (first waiter only — joiners coalesce).
    Fetch,
    /// Fetch delayed at the home behind an in-flight diff (classic mode).
    FetchDelayed,
    /// Diff of this CU flushed to its home.
    DiffSent,
    /// Diff applied at this node (the CU's home).
    DiffApplied,
    /// Cached copy invalidated by a write notice.
    Invalidated,
    /// Shared-monitor acquire without communication.
    AcquireLocal,
    /// Shared-monitor acquire via remote LockReq.
    AcquireRemote,
    /// Lock ownership transferred away from this node.
    Grant,
    /// `Object.wait()` parked on this object.
    Wait,
    /// `Object.notify()`/`notifyAll()` on this object.
    Notify,
    /// Promoted into the DSM at this node (its home).
    Promote,
}

/// All kinds in cell order.
pub const ALL_OBJ_EVENTS: [ObjEvent; OBJ_KINDS] = [
    ObjEvent::ReadHit,
    ObjEvent::WriteHit,
    ObjEvent::ReadMiss,
    ObjEvent::WriteMiss,
    ObjEvent::Fetch,
    ObjEvent::FetchDelayed,
    ObjEvent::DiffSent,
    ObjEvent::DiffApplied,
    ObjEvent::Invalidated,
    ObjEvent::AcquireLocal,
    ObjEvent::AcquireRemote,
    ObjEvent::Grant,
    ObjEvent::Wait,
    ObjEvent::Notify,
    ObjEvent::Promote,
];

impl ObjEvent {
    pub fn index(self) -> usize {
        match self {
            ObjEvent::ReadHit => 0,
            ObjEvent::WriteHit => 1,
            ObjEvent::ReadMiss => 2,
            ObjEvent::WriteMiss => 3,
            ObjEvent::Fetch => 4,
            ObjEvent::FetchDelayed => 5,
            ObjEvent::DiffSent => 6,
            ObjEvent::DiffApplied => 7,
            ObjEvent::Invalidated => 8,
            ObjEvent::AcquireLocal => 9,
            ObjEvent::AcquireRemote => 10,
            ObjEvent::Grant => 11,
            ObjEvent::Wait => 12,
            ObjEvent::Notify => 13,
            ObjEvent::Promote => 14,
        }
    }

    /// Stable snake_case name (heat-JSON field names).
    pub fn name(self) -> &'static str {
        match self {
            ObjEvent::ReadHit => "read_hits",
            ObjEvent::WriteHit => "write_hits",
            ObjEvent::ReadMiss => "read_misses",
            ObjEvent::WriteMiss => "write_misses",
            ObjEvent::Fetch => "fetches",
            ObjEvent::FetchDelayed => "fetches_delayed_at_home",
            ObjEvent::DiffSent => "diffs_sent",
            ObjEvent::DiffApplied => "diffs_applied",
            ObjEvent::Invalidated => "invalidations",
            ObjEvent::AcquireLocal => "shared_acquires_local",
            ObjEvent::AcquireRemote => "shared_acquires_remote",
            ObjEvent::Grant => "grants_sent",
            ObjEvent::Wait => "waits",
            ObjEvent::Notify => "notifies",
            ObjEvent::Promote => "promotions",
        }
    }
}

/// Profiled events that mirror a `DsmStats` counter one-to-one. For each,
/// `Σ_objects Σ_nodes count + unattributed == DsmStats.<field>` — the
/// reconciliation invariant. The `&str` is the `DsmStats` field name.
pub const STATS_MAPPED: [(ObjEvent, &str); 11] = [
    (ObjEvent::Fetch, "fetches"),
    (ObjEvent::FetchDelayed, "fetches_delayed_at_home"),
    (ObjEvent::DiffSent, "diffs_sent"),
    (ObjEvent::DiffApplied, "diffs_applied"),
    (ObjEvent::Invalidated, "invalidations"),
    (ObjEvent::AcquireLocal, "shared_acquires_local"),
    (ObjEvent::AcquireRemote, "shared_acquires_remote"),
    (ObjEvent::Grant, "grants_sent"),
    (ObjEvent::Wait, "waits"),
    (ObjEvent::Notify, "notifies"),
    (ObjEvent::Promote, "promotions"),
];

/// The home node encoded in a raw gid (mirrors `jsplit_mjvm::heap::Gid`,
/// which packs the home id into the bits above the 40-bit counter; this
/// crate sits below mjvm in the workspace DAG, so it re-derives it).
pub fn home_of(gid: u64) -> NodeId {
    (gid >> 40) as NodeId
}

/// One node's per-object event matrix. The accessing node is implicit (each
/// engine owns its own profile); [`build_report`] merges per-node profiles
/// into the cluster-wide (object × node) matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjProfile {
    /// Base gid → event counts at this node.
    pub objects: HashMap<u64, [u64; OBJ_KINDS]>,
    /// Lock-transfer edges out of this node: base gid → (grantee, count).
    pub grants_to: HashMap<(u64, NodeId), u64>,
    /// Region gid → base gid, for every chunked region this node touched
    /// (lets trace consumers fold region events onto base-object lanes).
    pub region_base: HashMap<u64, u64>,
    /// Events with no gid to attribute to (e.g. `notify` on a never-shared
    /// object still counts in `DsmStats::notifies`).
    pub unattributed: [u64; OBJ_KINDS],
}

impl ObjProfile {
    pub fn new() -> ObjProfile {
        ObjProfile::default()
    }

    #[inline]
    pub fn bump(&mut self, base_gid: u64, ev: ObjEvent) {
        self.objects.entry(base_gid).or_insert([0; OBJ_KINDS])[ev.index()] += 1;
    }

    #[inline]
    pub fn bump_unattributed(&mut self, ev: ObjEvent) {
        self.unattributed[ev.index()] += 1;
    }

    /// Record a lock transfer to `to` (also counts as a [`ObjEvent::Grant`]).
    pub fn grant_edge(&mut self, base_gid: u64, to: NodeId) {
        self.bump(base_gid, ObjEvent::Grant);
        *self.grants_to.entry((base_gid, to)).or_insert(0) += 1;
    }

    /// Remember that `region_gid` is a chunked region of `base_gid`.
    pub fn note_region(&mut self, region_gid: u64, base_gid: u64) {
        self.region_base.entry(region_gid).or_insert(base_gid);
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty() && self.unattributed.iter().all(|&c| c == 0)
    }
}

/// An object's sharing pattern, derived from reader/writer set sizes and
/// lock-transfer chains (rules in DESIGN.md §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingClass {
    /// Shared, but only one node ever touched it.
    NodePrivate,
    /// Many readers, (almost) no writes — replicates cheaply.
    ReadMostly,
    /// Exactly one writer node; remote readers consume occasionally.
    SingleWriter,
    /// Accesses travel with the lock around ≥3 nodes.
    Migratory,
    /// One producer flushes diffs, disjoint consumers re-fetch per update.
    ProducerConsumer,
    /// Multiple concurrent writers — invalidation/diff ping-pong.
    WriteShared,
}

impl SharingClass {
    pub fn name(self) -> &'static str {
        match self {
            SharingClass::NodePrivate => "node-private",
            SharingClass::ReadMostly => "read-mostly",
            SharingClass::SingleWriter => "single-writer",
            SharingClass::Migratory => "migratory",
            SharingClass::ProducerConsumer => "producer-consumer",
            SharingClass::WriteShared => "write-shared",
        }
    }
}

/// All classes (classifier coverage tests).
pub const ALL_CLASSES: [SharingClass; 6] = [
    SharingClass::NodePrivate,
    SharingClass::ReadMostly,
    SharingClass::SingleWriter,
    SharingClass::Migratory,
    SharingClass::ProducerConsumer,
    SharingClass::WriteShared,
];

fn idx(ev: ObjEvent) -> usize {
    ev.index()
}

/// Classify one object's sharing pattern from its per-node rows and
/// lock-transfer edges. Pure; rules (checked top-down, documented in
/// DESIGN.md §18):
///
/// 1. ≤1 toucher → node-private.
/// 2. No writers: ≥2 readers → read-mostly; else a lock-only object whose
///    transfers chain through ≥3 nodes → migratory, 2-node transfer
///    ping-pong → write-shared.
/// 3. One writer: reads ≥ 20× writes with remote readers → read-mostly;
///    ≥2 diffs each consumed remotely (fetches+invalidations ≥ diffs) →
///    producer-consumer; else single-writer.
/// 4. ≥2 writers: transfer chain spans ≥3 nodes (or ≥3 nodes all
///    read+write) → migratory; else write-shared (ping-pong).
pub fn classify(rows: &[(NodeId, [u64; OBJ_KINDS])], edges: &[((NodeId, NodeId), u64)]) -> SharingClass {
    let reads = |r: &[u64; OBJ_KINDS]| r[idx(ObjEvent::ReadHit)] + r[idx(ObjEvent::ReadMiss)];
    let writes = |r: &[u64; OBJ_KINDS]| r[idx(ObjEvent::WriteHit)] + r[idx(ObjEvent::WriteMiss)];

    let mut readers: Vec<NodeId> = Vec::new();
    let mut writers: Vec<NodeId> = Vec::new();
    let mut touchers: Vec<NodeId> = Vec::new();
    let (mut total_reads, mut total_writes, mut total_diffs) = (0u64, 0u64, 0u64);
    let (mut total_fetches, mut total_invals) = (0u64, 0u64);
    for (n, r) in rows {
        if reads(r) + r[idx(ObjEvent::Fetch)] > 0 {
            readers.push(*n);
        }
        if writes(r) + r[idx(ObjEvent::DiffSent)] > 0 {
            writers.push(*n);
        }
        if r.iter().any(|&c| c > 0) {
            touchers.push(*n);
        }
        total_reads += reads(r);
        total_writes += writes(r);
        total_diffs += r[idx(ObjEvent::DiffSent)];
        total_fetches += r[idx(ObjEvent::Fetch)];
        total_invals += r[idx(ObjEvent::Invalidated)];
    }
    let transfers: u64 = edges.iter().map(|(_, c)| c).sum();
    let chain: usize = {
        let mut nodes: Vec<NodeId> = edges.iter().flat_map(|((a, b), _)| [*a, *b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    };

    if touchers.len() <= 1 {
        return SharingClass::NodePrivate;
    }
    if writers.is_empty() {
        if readers.len() >= 2 || transfers == 0 {
            return SharingClass::ReadMostly;
        }
        // Lock-only object: classify by how the lock travels.
        return if chain >= 3 { SharingClass::Migratory } else { SharingClass::WriteShared };
    }
    if writers.len() == 1 {
        let w = writers[0];
        let remote_readers = readers.iter().any(|&n| n != w);
        if remote_readers && total_writes.saturating_mul(20) < total_reads {
            return SharingClass::ReadMostly;
        }
        if remote_readers && total_diffs >= 2 && total_fetches + total_invals >= total_diffs {
            return SharingClass::ProducerConsumer;
        }
        return SharingClass::SingleWriter;
    }
    if (chain >= 3 && transfers as usize >= chain)
        || (writers.len() >= 3 && readers == writers)
    {
        return SharingClass::Migratory;
    }
    SharingClass::WriteShared
}

/// Home-placement advice for one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Advice {
    /// The node with the most accesses (reads+writes+acquires); ties break
    /// to the lowest id. Falls back to the home when no row has activity.
    pub dominant: NodeId,
    /// Coherence messages the dominant node paid *because* it is not the
    /// home: its fetches + diff flushes + remote acquires. Re-homing the
    /// object at the dominant accessor would eliminate them.
    pub score: u64,
    /// `dominant != home` and the score is non-zero.
    pub migrate: bool,
}

/// Score home-vs-dominant-accessor mismatch for one object (pure).
pub fn advise(home: NodeId, rows: &[(NodeId, [u64; OBJ_KINDS])]) -> Advice {
    let activity = |r: &[u64; OBJ_KINDS]| {
        r[idx(ObjEvent::ReadHit)]
            + r[idx(ObjEvent::ReadMiss)]
            + r[idx(ObjEvent::WriteHit)]
            + r[idx(ObjEvent::WriteMiss)]
            + r[idx(ObjEvent::AcquireLocal)]
            + r[idx(ObjEvent::AcquireRemote)]
    };
    let mut dominant = home;
    let mut best = 0u64;
    for (n, r) in rows {
        let a = activity(r);
        if a > best || (a == best && a > 0 && *n < dominant) {
            dominant = *n;
            best = a;
        }
    }
    let score = rows
        .iter()
        .find(|(n, _)| *n == dominant)
        .map(|(_, r)| {
            r[idx(ObjEvent::Fetch)] + r[idx(ObjEvent::DiffSent)] + r[idx(ObjEvent::AcquireRemote)]
        })
        .unwrap_or(0);
    Advice { dominant, score, migrate: dominant != home && score > 0 }
}

/// One object's merged report row.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjReport {
    /// Base gid.
    pub gid: u64,
    /// The object's home node (from the gid encoding).
    pub home: NodeId,
    pub class: SharingClass,
    /// Remote-coherence event total: fetches + delayed fetches + diffs
    /// sent + diffs applied + invalidations + remote acquires + grants.
    /// The sort key of the heat table.
    pub heat: u64,
    /// Cluster-wide totals per event kind.
    pub total: [u64; OBJ_KINDS],
    /// Per-node rows (ascending node id; nodes with all-zero rows omitted).
    pub rows: Vec<(NodeId, [u64; OBJ_KINDS])>,
    pub advice: Advice,
}

/// The cluster-wide profiler report: every profiled object, hottest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjProfReport {
    /// Objects sorted by heat descending, gid ascending.
    pub objects: Vec<ObjReport>,
    /// Gid-less event counts summed over nodes (reconciliation term).
    pub unattributed: [u64; OBJ_KINDS],
    /// Indices into `objects` of migration candidates, advisor score
    /// descending (gid ascending on ties).
    pub candidates: Vec<usize>,
    /// Merged region gid → base gid map (chunked arrays).
    pub region_base: HashMap<u64, u64>,
}

/// Heat metric: remote-coherence events attributable to the object.
pub fn heat_of(total: &[u64; OBJ_KINDS]) -> u64 {
    total[idx(ObjEvent::Fetch)]
        + total[idx(ObjEvent::FetchDelayed)]
        + total[idx(ObjEvent::DiffSent)]
        + total[idx(ObjEvent::DiffApplied)]
        + total[idx(ObjEvent::Invalidated)]
        + total[idx(ObjEvent::AcquireRemote)]
        + total[idx(ObjEvent::Grant)]
}

/// Merge per-node profiles (index = node id) into the cluster-wide report.
/// Deterministic: output depends only on the profile contents.
pub fn build_report(profiles: &[ObjProfile]) -> ObjProfReport {
    let mut gids: Vec<u64> = profiles.iter().flat_map(|p| p.objects.keys().copied()).collect();
    gids.sort_unstable();
    gids.dedup();

    let mut unattributed = [0u64; OBJ_KINDS];
    let mut region_base: HashMap<u64, u64> = HashMap::new();
    for p in profiles {
        for (k, c) in p.unattributed.iter().enumerate() {
            unattributed[k] += c;
        }
        for (&r, &b) in &p.region_base {
            region_base.entry(r).or_insert(b);
        }
    }

    let mut objects: Vec<ObjReport> = Vec::with_capacity(gids.len());
    for gid in gids {
        let mut total = [0u64; OBJ_KINDS];
        let mut rows: Vec<(NodeId, [u64; OBJ_KINDS])> = Vec::new();
        let mut edges: Vec<((NodeId, NodeId), u64)> = Vec::new();
        for (node, p) in profiles.iter().enumerate() {
            if let Some(cells) = p.objects.get(&gid) {
                for (k, c) in cells.iter().enumerate() {
                    total[k] += c;
                }
                rows.push((node as NodeId, *cells));
            }
            for (&(g, to), &c) in &p.grants_to {
                if g == gid {
                    edges.push(((node as NodeId, to), c));
                }
            }
        }
        edges.sort_unstable();
        let home = home_of(gid);
        let class = classify(&rows, &edges);
        let advice = advise(home, &rows);
        objects.push(ObjReport { gid, home, class, heat: heat_of(&total), total, rows, advice });
    }
    objects.sort_by(|a, b| b.heat.cmp(&a.heat).then(a.gid.cmp(&b.gid)));

    let mut candidates: Vec<usize> = (0..objects.len()).filter(|&i| objects[i].advice.migrate).collect();
    candidates.sort_by(|&a, &b| {
        objects[b]
            .advice
            .score
            .cmp(&objects[a].advice.score)
            .then(objects[a].gid.cmp(&objects[b].gid))
    });

    ObjProfReport { objects, unattributed, candidates, region_base }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fill: &[(ObjEvent, u64)]) -> [u64; OBJ_KINDS] {
        let mut r = [0u64; OBJ_KINDS];
        for (ev, c) in fill {
            r[ev.index()] = *c;
        }
        r
    }

    #[test]
    fn event_indices_are_dense_and_named() {
        let mut seen = [false; OBJ_KINDS];
        for (pos, ev) in ALL_OBJ_EVENTS.iter().enumerate() {
            assert_eq!(ev.index(), pos, "{ev:?} out of order");
            assert!(!seen[ev.index()]);
            seen[ev.index()] = true;
            assert!(!ev.name().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(STATS_MAPPED.len(), 11);
    }

    #[test]
    fn home_matches_gid_encoding() {
        // Gid::new(home, counter) packs home << 40 | counter.
        assert_eq!(home_of((3u64 << 40) | 17), 3);
        assert_eq!(home_of(5), 0);
    }

    #[test]
    fn classify_node_private() {
        let rows = [(0, row(&[(ObjEvent::ReadHit, 100), (ObjEvent::WriteHit, 40), (ObjEvent::Promote, 1)]))];
        assert_eq!(classify(&rows, &[]), SharingClass::NodePrivate);
        assert_eq!(classify(&[], &[]), SharingClass::NodePrivate);
    }

    #[test]
    fn classify_read_mostly() {
        // Three readers, one of which wrote twice out of hundreds of reads.
        let rows = [
            (0, row(&[(ObjEvent::ReadHit, 200), (ObjEvent::WriteHit, 2), (ObjEvent::DiffSent, 1)])),
            (1, row(&[(ObjEvent::ReadHit, 150), (ObjEvent::Fetch, 1)])),
            (2, row(&[(ObjEvent::ReadHit, 90), (ObjEvent::Fetch, 1)])),
        ];
        assert_eq!(classify(&rows, &[]), SharingClass::ReadMostly);
        // Pure replicated read-only data.
        let ro = [
            (0, row(&[(ObjEvent::ReadHit, 10)])),
            (1, row(&[(ObjEvent::ReadHit, 10), (ObjEvent::Fetch, 1)])),
        ];
        assert_eq!(classify(&ro, &[]), SharingClass::ReadMostly);
    }

    #[test]
    fn classify_single_writer() {
        // One writer, one remote reader, writes dominate.
        let rows = [
            (0, row(&[(ObjEvent::WriteHit, 50), (ObjEvent::ReadHit, 10), (ObjEvent::DiffSent, 1)])),
            (2, row(&[(ObjEvent::ReadHit, 5), (ObjEvent::Fetch, 1)])),
        ];
        assert_eq!(classify(&rows, &[]), SharingClass::SingleWriter);
    }

    #[test]
    fn classify_producer_consumer() {
        // Producer flushes a diff per round; consumers re-fetch each one.
        let rows = [
            (0, row(&[(ObjEvent::WriteHit, 40), (ObjEvent::DiffSent, 10)])),
            (1, row(&[(ObjEvent::ReadHit, 40), (ObjEvent::Fetch, 6), (ObjEvent::Invalidated, 6)])),
            (2, row(&[(ObjEvent::ReadHit, 40), (ObjEvent::Fetch, 5), (ObjEvent::Invalidated, 5)])),
        ];
        assert_eq!(classify(&rows, &[]), SharingClass::ProducerConsumer);
    }

    #[test]
    fn classify_migratory() {
        // Lock+data travel around three nodes.
        let r = row(&[(ObjEvent::ReadHit, 10), (ObjEvent::WriteHit, 10), (ObjEvent::AcquireRemote, 3)]);
        let rows = [(0, r), (1, r), (2, r)];
        let edges = [((0, 1), 3u64), ((1, 2), 3), ((2, 0), 3)];
        assert_eq!(classify(&rows, &edges), SharingClass::Migratory);
        // Data-only migratory: 3 nodes all read+write, no edges recorded.
        assert_eq!(classify(&rows, &[]), SharingClass::Migratory);
        // Lock-only object migrating around 3 nodes.
        let lk = row(&[(ObjEvent::AcquireRemote, 3)]);
        let lock_rows = [(0, lk), (1, lk), (2, lk)];
        assert_eq!(classify(&lock_rows, &edges), SharingClass::Migratory);
    }

    #[test]
    fn classify_write_shared() {
        // Two nodes ping-ponging writes.
        let rows = [
            (0, row(&[(ObjEvent::WriteHit, 30), (ObjEvent::DiffSent, 10), (ObjEvent::Invalidated, 9)])),
            (1, row(&[(ObjEvent::WriteHit, 30), (ObjEvent::DiffSent, 10), (ObjEvent::Invalidated, 10)])),
        ];
        let edges = [((0, 1), 10u64), ((1, 0), 9)];
        assert_eq!(classify(&rows, &edges), SharingClass::WriteShared);
        // Lock-only 2-node ping-pong.
        let lk = row(&[(ObjEvent::AcquireRemote, 10)]);
        assert_eq!(classify(&[(0, lk), (1, lk)], &edges), SharingClass::WriteShared);
    }

    #[test]
    fn advisor_flags_misplaced_home() {
        // Homed at 0, but node 2 does all the work and pays the fetches.
        let gid = 9u64; // homed at node 0

        let rows = [
            (0, row(&[(ObjEvent::ReadHit, 2)])),
            (2, row(&[(ObjEvent::ReadHit, 500), (ObjEvent::WriteHit, 100), (ObjEvent::Fetch, 40), (ObjEvent::DiffSent, 30), (ObjEvent::AcquireRemote, 7)])),
        ];
        let a = advise(home_of(gid), &rows);
        assert_eq!(a.dominant, 2);
        assert_eq!(a.score, 40 + 30 + 7);
        assert!(a.migrate);
        // Dominant == home: nothing to do.
        let a = advise(2, &rows);
        assert!(!a.migrate);
    }

    #[test]
    fn report_merges_ranks_and_reconciles() {
        let mut p0 = ObjProfile::new();
        let mut p1 = ObjProfile::new();
        let hot = 1u64; // homed at node 0

        let cold = (1u64 << 40) | 2;
        for _ in 0..10 {
            p1.bump(hot, ObjEvent::Fetch);
            p1.bump(hot, ObjEvent::ReadMiss);
        }
        p0.bump(hot, ObjEvent::WriteHit);
        p0.bump(hot, ObjEvent::DiffApplied);
        p0.grant_edge(hot, 1);
        p0.bump(cold, ObjEvent::ReadHit);
        p1.bump(cold, ObjEvent::ReadHit);
        p0.bump_unattributed(ObjEvent::Notify);

        let rep = build_report(&[p0.clone(), p1.clone()]);
        assert_eq!(rep.objects.len(), 2);
        assert_eq!(rep.objects[0].gid, hot, "hot object ranks first");
        assert!(rep.objects[0].heat > rep.objects[1].heat);
        assert_eq!(rep.objects[0].home, 0);
        assert_eq!(rep.unattributed[ObjEvent::Notify.index()], 1);
        // The hot object is dominated by node 1 (10 misses) but homed at 0.
        assert_eq!(rep.candidates, vec![0]);
        assert_eq!(rep.objects[0].advice.dominant, 1);
        // Totals reconcile: fetch count summed across nodes.
        assert_eq!(rep.objects[0].total[ObjEvent::Fetch.index()], 10);
        assert_eq!(rep.objects[0].total[ObjEvent::Grant.index()], 1);
        // Determinism: same inputs, same report.
        assert_eq!(rep, build_report(&[p0, p1]));
    }
}
