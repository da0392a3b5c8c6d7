//! # jsplit-dsm — MTS-HLRC: Multithreaded Scalable Home-based Lazy Release
//! Consistency
//!
//! The paper's core protocol contribution (paper §3), implemented as a pure
//! protocol engine: one [`node::DsmNode`] per worker holds the node's cache
//! directory, home directory, twins, dirty sets, write-notice board and lock
//! states, and reacts to interpreter events (access checks, monitor
//! operations) and protocol messages by returning [`node::Action`]s — sends
//! and thread wake-ups — that the runtime's discrete-event scheduler carries
//! out. Keeping the engine free of scheduling makes every protocol rule
//! directly unit-testable.
//!
//! Protocol summary:
//!
//! * **Home-based**: every shared object has a home node holding the master
//!   copy; cached copies derive from it.
//! * **Multiple writers**: a writer twins an object before its first write
//!   after an invalidation; at a release the twin/current diff is flushed to
//!   the home.
//! * **Invalidation-based**: releases generate *write notices*; a lock grant
//!   carries them, and the acquirer invalidates stale cached copies.
//! * **MTS refinements** (§3.1): *scalar* timestamps — one integer per CU
//!   version instead of a vector — at the price of delaying lock-transfer
//!   completion until all diffs of the released interval are acknowledged by
//!   their homes; and *bounded notice storage* — only the most recent notice
//!   per CU is kept, so no global notice GC is ever needed.
//! * **Classic HLRC mode** ([`ProtocolMode::ClassicHlrc`]) implements the
//!   comparison point: vector timestamps (no ack wait; fetches may instead
//!   wait at the home until the required interval has been applied) and
//!   full notice history filtered by the requester's vector clock.
//! * **Queue-passing locks** (§3.2): the lock manager is the home node, but
//!   the request queue and wait queue travel with ownership, so `wait`,
//!   `notify` and `notifyAll` are entirely local to the current owner, and
//!   grants honour thread priorities.
//! * **Local/shared classification** (§2, §4.4): objects start local; they
//!   are registered with the DSM only when they can escape to another
//!   thread (serialization boundaries, lock contention). Local objects use
//!   a lock counter cheaper than an original `monitorenter`.
//!
//! Simplifications recorded in DESIGN.md: cached copies, intervals and
//! vector clocks are per *node* rather than per thread (threads of one node
//! share a heap, as they share a JVM heap in the paper — the HLRC-SMP
//! arrangement), and a grant in MTS mode carries the releaser's whole
//! most-recent-per-CU notice map (conservative, still bounded by the number
//! of shared CUs).

pub mod diff;
pub mod node;
pub mod notice;
pub mod protocol;
pub mod stats;
#[cfg(test)]
#[path = "../../mjvm/src/wire_check.rs"]
mod wire_check;

pub use node::{Action, DsmConfig, DsmNode, ProtocolMode};
pub use protocol::{LockRequest, Msg, Timestamp, WaitEntry, WireState};
pub use stats::DsmStats;
