//! Per-node DSM statistics — the observable protocol behaviour the tests
//! and benchmarks assert on.

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
    /// Merge another node's counters into a cluster-wide summary.
    pub fn merge(&mut self, o: &DsmStats) {
        self.promotions += o.promotions;
        self.local_acquires += o.local_acquires;
        self.shared_acquires_local += o.shared_acquires_local;
        self.shared_acquires_remote += o.shared_acquires_remote;
        self.grants_sent += o.grants_sent;
        self.fetches += o.fetches;
        self.diffs_sent += o.diffs_sent;
        self.diff_fields += o.diff_fields;
        self.diffs_applied += o.diffs_applied;
        self.releases_awaiting_acks += o.releases_awaiting_acks;
        self.invalidations += o.invalidations;
        self.waits += o.waits;
        self.notifies += o.notifies;
        self.notices_stored_max = self.notices_stored_max.max(o.notices_stored_max);
        self.notice_mem_max = self.notice_mem_max.max(o.notice_mem_max);
        self.homed_objects += o.homed_objects;
        self.fetches_delayed_at_home += o.fetches_delayed_at_home;
    }

    /// The counter called `name` (its field name), `None` if there is no
    /// such field — how reports and checks that carry counter names as
    /// data (`jsplit_trace::STATS_MAPPED`) read them back.
    pub fn get(&self, name: &str) -> Option<u64> {
        Some(match name {
            "promotions" => self.promotions,
            "local_acquires" => self.local_acquires,
            "shared_acquires_local" => self.shared_acquires_local,
            "shared_acquires_remote" => self.shared_acquires_remote,
            "grants_sent" => self.grants_sent,
            "fetches" => self.fetches,
            "diffs_sent" => self.diffs_sent,
            "diff_fields" => self.diff_fields,
            "diffs_applied" => self.diffs_applied,
            "releases_awaiting_acks" => self.releases_awaiting_acks,
            "invalidations" => self.invalidations,
            "waits" => self.waits,
            "notifies" => self.notifies,
            "notices_stored_max" => self.notices_stored_max as u64,
            "notice_mem_max" => self.notice_mem_max as u64,
            "homed_objects" => self.homed_objects,
            "fetches_delayed_at_home" => self.fetches_delayed_at_home,
            _ => return None,
        })
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
