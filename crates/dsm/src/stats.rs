//! Per-node DSM statistics — the observable protocol behaviour the tests
//! and benchmarks assert on.

use jsplit_net::codec::Counter;

/// Counters for one node's DSM engine.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DsmStats {
    /// Objects promoted local → shared (dynamic classification, §2).
    pub promotions: u64,
    /// Lock-counter fast-path acquires on local objects (§4.4).
    pub local_acquires: u64,
    /// Acquires of shared objects that completed without communication
    /// (owner already local — Table 2's "Shared Object" row).
    pub shared_acquires_local: u64,
    /// Acquires that required a remote lock request.
    pub shared_acquires_remote: u64,
    /// Lock grants sent (ownership transfers).
    pub grants_sent: u64,
    /// Read/write misses that triggered a fetch.
    pub fetches: u64,
    /// Diff flushes sent to homes.
    pub diffs_sent: u64,
    /// Total diff entries (changed fields) flushed.
    pub diff_fields: u64,
    /// Diffs applied at this node as a home.
    pub diffs_applied: u64,
    /// Release operations that had to await acks (scalar-timestamp cost,
    /// §3.1).
    pub releases_awaiting_acks: u64,
    /// Cached copies invalidated by write notices.
    pub invalidations: u64,
    /// wait() / notify() / notifyAll() operations (all local, §3.2).
    pub waits: u64,
    pub notifies: u64,
    /// High-water mark of stored write notices (§3.1 boundedness).
    pub notices_stored_max: usize,
    /// High-water mark of notice-board memory in bytes.
    pub notice_mem_max: usize,
    /// Objects homed at this node.
    pub homed_objects: u64,
    /// Fetch requests that had to wait at this home for an unapplied
    /// interval (classic-mode cost).
    pub fetches_delayed_at_home: u64,
}

impl DsmStats {
    /// The field table, in wire order: every counter sums across nodes
    /// except the two notice-board high-water marks.
    pub const FIELDS: &'static [Counter<DsmStats>] = jsplit_mjvm::counters!(DsmStats:
        sum promotions,
        sum local_acquires,
        sum shared_acquires_local,
        sum shared_acquires_remote,
        sum grants_sent,
        sum fetches,
        sum diffs_sent,
        sum diff_fields,
        sum diffs_applied,
        sum releases_awaiting_acks,
        sum invalidations,
        sum waits,
        sum notifies,
        max notices_stored_max,
        max notice_mem_max,
        sum homed_objects,
        sum fetches_delayed_at_home,
    );

    /// Merge another node's counters into a cluster-wide summary.
    pub fn merge(&mut self, o: &DsmStats) {
        Counter::merge(DsmStats::FIELDS, self, o);
    }

    /// The counter called `name` (its field name), `None` if there is no
    /// such field — how reports and checks that carry counter names as
    /// data (`jsplit_trace::STATS_MAPPED`) read them back.
    pub fn get(&self, name: &str) -> Option<u64> {
        Counter::by_name(DsmStats::FIELDS, self, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = DsmStats { fetches: 2, notices_stored_max: 5, ..Default::default() };
        let b = DsmStats { fetches: 3, notices_stored_max: 9, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.fetches, 5);
        assert_eq!(a.notices_stored_max, 9);
    }

    #[test]
    fn every_mapped_profiler_event_names_a_counter() {
        let s = DsmStats { fetches: 7, promotions: 3, ..Default::default() };
        for (ev, field) in jsplit_trace::STATS_MAPPED {
            assert!(s.get(field).is_some(), "{} maps to unknown DsmStats field {field:?}", ev.name());
        }
        assert_eq!(s.get("fetches"), Some(7));
        assert_eq!(s.get("promotions"), Some(3));
        assert_eq!(s.get("no_such_counter"), None);
    }
}
