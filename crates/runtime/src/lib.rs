//! # jsplit-runtime — the JavaSplit distributed runtime
//!
//! Ties every substrate together into the system of the paper's Figure 1,
//! layered as *per-node runtime* / *driver* / *transport* (DESIGN.md §11):
//!
//! * [`node::NodeRuntime`] — everything that is per node in the paper's
//!   sense (paper §2): its heap, its MTS-HLRC engine, its interpreter
//!   threads and two virtual CPUs. It communicates only through an ordered
//!   stream of effects (local events, protocol sends, thread ships).
//! * A driver (module [`driver`] holds what they share) owns time and
//!   message delivery, and ends every node's life the same way: one
//!   plain-data [`report::NodeResult`] per node, folded by
//!   `RunReport::assemble`.
//!   [`exec::Cluster`] is the reference **sim** driver: one deterministic
//!   discrete-event scheduler whose virtual time advances by the
//!   per-instruction costs of each node's JVM-brand cost model and by the
//!   simulated network's message latencies. [`threads::ThreadsDriver`]
//!   runs each node on its own OS thread under a conservative windowed
//!   lookahead loop, shipping every protocol message as
//!   encoded bytes over channels — same stdout, same virtual time, same
//!   protocol counters, plus real parallel wall-clock speedup.
//! * The `Transport` trait (`jsplit-net`) abstracts the wire: the
//!   virtual-time `Network` for sim, a mesh of channel endpoints for
//!   threads.
//!
//! Two execution modes:
//!
//! * [`config::Mode::Baseline`] — the *original* (unrewritten) program on a
//!   single node with classic monitors: the paper's "Original" bars and the
//!   denominator of every speedup.
//! * [`config::Mode::JavaSplit`] — the program is passed through the
//!   `jsplit-rewriter`, the `C_static` singletons are created and shared,
//!   the main method starts on worker 0, and newly started threads are
//!   shipped to nodes chosen by a plug-in load-balancing function (least
//!   loaded by default, as in the paper).
//!
//! Worker nodes may join mid-execution ([`config::ClusterConfig::joins`],
//! sim backend only), and nodes of different JVM brands mix freely in one
//! run (paper §6). Pick the backend with
//! [`config::ClusterConfig::with_backend`] or `jsplit run --backend`.

pub mod balance;
pub mod config;
pub mod driver;
pub(crate) mod engine;
pub mod env;
pub mod exec;
pub mod node;
pub mod report;
pub mod sockets;
pub mod telemetry;
pub mod threads;
#[cfg(test)]
#[path = "../../mjvm/src/wire_check.rs"]
mod wire_check;

pub use balance::Balancer;
pub use config::{Backend, ClusterConfig, MetricsConfig, Mode, NodeSpec, SyncMode};
pub use driver::ClusterError;
pub use exec::Cluster;
pub use node::NodeRuntime;
pub use report::{RunReport, SyncStats};
pub use sockets::SocketsDriver;
pub use telemetry::{Telemetry, Watchdog, WatchdogSpec};
pub use threads::ThreadsDriver;
