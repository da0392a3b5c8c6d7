//! Plug-in load balancing (paper §2).
//!
//! "Each newly created application thread is placed for execution on one of
//! the worker nodes, according to a plug-in load balancing function.
//! Currently, we use the simplest load-balancing function, placing a new
//! thread on the least loaded worker."
//!
//! The function is [`pick`]; its input is the spawning node's *own* view of
//! the pool, kept by that node's [`Placement`]: its live threads plus the
//! spawns it shipped to itself that have not been installed yet, and, for
//! every peer, the number of threads it has shipped there. No node reads
//! another node's state, so every driver — one process or many — computes
//! the same placement from the same program.

use jsplit_net::NodeId;

/// Built-in strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balancer {
    /// The paper's default.
    LeastLoaded,
    /// Cycle through nodes regardless of load.
    RoundRobin,
    /// Keep every thread on the spawning node (useful for ablations: all
    /// parallelism stays local).
    Pinned,
}

/// The load-balancing function: the executing node for the `cursor`-th
/// thread `origin` places, given its per-node load estimate.
pub fn pick(kind: Balancer, cursor: usize, loads: &[usize], origin: NodeId) -> NodeId {
    match kind {
        Balancer::LeastLoaded => {
            loads.iter().enumerate().min_by_key(|&(i, &l)| (l, i)).map_or(origin, |(i, _)| i as NodeId)
        }
        Balancer::RoundRobin => (cursor % loads.len().max(1)) as NodeId,
        Balancer::Pinned => origin,
    }
}

/// One node's thread-placement state: the strategy, how many threads it
/// has placed (the round-robin cursor), and its load estimate of the pool.
#[derive(Debug)]
pub struct Placement {
    kind: Balancer,
    origin: NodeId,
    cursor: usize,
    /// Per node, the threads this origin shipped there; its own slot is
    /// overwritten with `own_live + self_inflight` at every placement.
    loads: Vec<usize>,
    /// Self-shipped spawns not yet installed (not yet in `own_live`).
    self_inflight: usize,
    /// Spawns installed on this node, from any origin.
    installed: u64,
}

impl Placement {
    /// The placement state of node `origin` in a pool of `n_nodes` (a
    /// mid-run joiner's id may lie beyond the initial pool).
    pub fn new(kind: Balancer, origin: NodeId, n_nodes: usize) -> Placement {
        let loads = vec![0; n_nodes.max(origin as usize + 1)];
        Placement { kind, origin, cursor: 0, loads, self_inflight: 0, installed: 0 }
    }

    /// Choose the node for a thread this origin just started, given the
    /// origin's live-thread count, and book the shipment.
    pub fn place(&mut self, own_live: usize) -> NodeId {
        self.loads[self.origin as usize] = own_live + self.self_inflight;
        let dst = pick(self.kind, self.cursor, &self.loads, self.origin);
        self.cursor += 1;
        if dst == self.origin {
            self.self_inflight += 1;
        } else {
            self.loads[dst as usize] += 1;
        }
        dst
    }

    /// A spawn shipped by `src` is being installed on this node: from here
    /// on it counts in the node's live threads, so a self-shipped one
    /// leaves the in-flight estimate.
    pub fn credit(&mut self, src: NodeId) {
        self.installed += 1;
        if src == self.origin {
            self.self_inflight -= 1;
        }
    }

    /// A worker joined the pool: it starts with nothing shipped to it.
    pub fn grow(&mut self) {
        self.loads.push(0);
    }

    /// Spawns this node has shipped / installed so far. Summed over the
    /// pool, their difference is the number of threads in flight.
    pub fn shipped(&self) -> u64 {
        self.cursor as u64
    }

    pub fn installed(&self) -> u64 {
        self.installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_picks_minimum_then_lowest_id() {
        assert_eq!(pick(Balancer::LeastLoaded, 0, &[3, 1, 2], 0), 1);
        assert_eq!(pick(Balancer::LeastLoaded, 0, &[2, 2, 2], 1), 0, "tie broken by lowest id");
    }

    #[test]
    fn round_robin_cycles_per_origin() {
        let mut a = Placement::new(Balancer::RoundRobin, 0, 3);
        let picks: Vec<NodeId> = (0..5).map(|_| a.place(0)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
        // A second origin starts its own cycle, unmoved by the first's.
        let mut b = Placement::new(Balancer::RoundRobin, 1, 3);
        assert_eq!(b.place(0), 0);
        assert_eq!(a.place(0), 2);
        assert_eq!(b.place(0), 1);
    }

    #[test]
    fn pinned_stays_home() {
        let mut p = Placement::new(Balancer::Pinned, 1, 2);
        assert_eq!(p.place(9), 1);
    }

    #[test]
    fn estimate_counts_own_live_inflight_and_shipments() {
        // Origin 0 runs main (1 live): peers look idle until shipped to.
        let mut p = Placement::new(Balancer::LeastLoaded, 0, 3);
        assert_eq!((p.place(1), p.place(1)), (1, 2));
        // All at 1: the tie goes to node 0 — a self-shipment in flight,
        // which already weighs on the next placement.
        assert_eq!(p.place(1), 0);
        assert_eq!(p.place(1), 1);
        assert_eq!((p.shipped(), p.installed()), (4, 0));
    }

    #[test]
    fn self_shipped_spawn_is_credited_exactly_once() {
        let mut p = Placement::new(Balancer::LeastLoaded, 0, 2);
        assert_eq!(p.place(0), 0);
        // In flight: own load 1, so the next one goes to the peer.
        assert_eq!(p.place(0), 1);
        // Installed: it moves from the in-flight estimate into `own_live`
        // (1 = 1 + 0 in flight); a peer's spawn landing here moves nothing.
        p.credit(0);
        p.credit(1);
        assert_eq!(p.installed(), 2);
        assert_eq!(p.place(1), 0, "own load is 1 live + 0 in flight, tied with the peer's 1");
    }

    #[test]
    fn grow_makes_a_joiner_the_least_loaded_pick() {
        let mut p = Placement::new(Balancer::LeastLoaded, 0, 2);
        assert_eq!(p.place(1), 1);
        p.grow();
        assert_eq!(p.place(1), 2);
        // The joiner's own state spans the grown pool.
        assert_eq!(Placement::new(Balancer::RoundRobin, 2, 2).place(0), 0);
    }
}
