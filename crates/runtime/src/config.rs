//! Cluster configuration.

use crate::balance::Balancer;
use jsplit_dsm::ProtocolMode;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_trace::TraceMode;

/// Original program on one node vs rewritten program on the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unrewritten program, classic monitors, single node ("Original").
    Baseline,
    /// Rewritten program on the distributed runtime ("JavaSplit").
    JavaSplit,
}

/// Which driver executes the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Deterministic discrete-event virtual-time simulation (the reference
    /// semantics; bit-for-bit reproducible).
    #[default]
    Sim,
    /// Each node on its own OS thread, protocol messages crossing channels
    /// as encoded bytes. Virtual-time semantics are preserved (windowed
    /// conservative synchronization), wall-clock time is real.
    Threads,
    /// Each node in its own OS *process*, frames crossing real TCP sockets
    /// through a coordinator (the paper's deployment shape: independent
    /// runtimes talking over standard IP sockets). Same conservative sync
    /// engine as `Threads`; results are identical to the sim.
    Sockets,
}

/// Sockets-backend deployment knobs ([`ClusterConfig::sockets`]).
#[derive(Debug, Clone)]
pub struct SocketsConfig {
    /// Coordinator listen address (`None` = `127.0.0.1:0`, an ephemeral
    /// localhost port — the spawn-workers default).
    pub listen: Option<std::net::SocketAddr>,
    /// Fork/exec one local worker process per node (`false` = print the
    /// dial-in address and wait for externally launched workers).
    pub spawn_workers: bool,
    /// Worker executable (`None` = this binary, re-invoked with the
    /// `worker` subcommand).
    pub worker_bin: Option<std::path::PathBuf>,
    /// How long a worker keeps retrying its dial-in (exponential backoff).
    pub connect_timeout: std::time::Duration,
    /// How long the coordinator waits for all workers to complete the
    /// handshake before giving up and naming the missing node ids.
    pub accept_timeout: std::time::Duration,
}

impl Default for SocketsConfig {
    fn default() -> SocketsConfig {
        SocketsConfig {
            listen: None,
            spawn_workers: true,
            worker_bin: None,
            connect_timeout: std::time::Duration::from_secs(10),
            accept_timeout: std::time::Duration::from_secs(30),
        }
    }
}

/// How the threads backend's nodes agree on safe horizons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Windowed rounds: flush → one slot exchange → drain → identical
    /// local decision (DESIGN.md §12). Every node pays for the slowest
    /// node every round.
    #[default]
    Epoch,
    /// Fully asynchronous conservative sync (DESIGN.md §14): per-peer
    /// channel clocks advanced by data deliveries and Chandy–Misra–Bryant
    /// null-message promises; each node executes up to its own input
    /// horizon with no global round structure. Virtual-time
    /// results are identical to `Epoch` and to the sim.
    Async,
}

/// Live telemetry configuration (`None` on [`ClusterConfig::metrics`] =
/// disabled, the zero-cost default): the registry and its sampler, plus, on
/// the parallel backends, a per-node flight recorder dumped on panic or
/// stall. All of it is side-band: a run with metrics on is bit-identical
/// to one with them off.
#[derive(Debug, Clone)]
pub struct MetricsConfig {
    /// Stream newline-delimited JSON samples here (`None` = sample for the
    /// end-of-run summary only).
    pub out: Option<std::path::PathBuf>,
    /// Wall-clock sampling interval (clamped to ≥ 1 ms).
    pub interval: std::time::Duration,
    /// Arm the horizon-stall watchdog with this budget (threads backend; a
    /// node whose horizon stays frozen past it gets a blame diagnosis).
    pub watchdog_budget: Option<std::time::Duration>,
    /// Fault injection for watchdog tests: the named node sleeps this many
    /// wall-clock ms before entering its async loop, pinning every peer's
    /// horizon on its unpublished promise. Virtual-time results are
    /// unaffected (the sleep is wall-clock only).
    pub stall_inject: Option<(u16, u64)>,
}

impl Default for MetricsConfig {
    fn default() -> MetricsConfig {
        MetricsConfig {
            out: None,
            interval: std::time::Duration::from_millis(50),
            watchdog_budget: None,
            stall_inject: None,
        }
    }
}

/// One worker node (heterogeneous clusters mix profiles, paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    pub profile: JvmProfile,
}

impl NodeSpec {
    pub fn sun() -> NodeSpec {
        NodeSpec { profile: JvmProfile::SunSim }
    }

    pub fn ibm() -> NodeSpec {
        NodeSpec { profile: JvmProfile::IbmSim }
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub mode: Mode,
    pub nodes: Vec<NodeSpec>,
    /// Virtual CPUs per node (the paper's testbed: dual-processor Xeons).
    pub cpus_per_node: usize,
    /// MTS-HLRC (paper) or classic HLRC (ablation baseline).
    pub protocol: ProtocolMode,
    /// Load-balancing plug-in (paper §2: "a plug-in load balancing
    /// function"; default = least loaded).
    pub balancer: Balancer,
    /// Instructions per scheduling quantum.
    pub fuel: u32,
    /// Abort guard: maximum retired instructions across the cluster.
    pub max_ops: u64,
    /// Workers that join mid-execution: (virtual time ps, spec) (paper §2).
    pub joins: Vec<(u64, NodeSpec)>,
    /// Ablation: disable the §4.4 local-object lock-counter fast path.
    pub disable_local_locks: bool,
    /// §4.3 extension: chunk arrays longer than this many elements into
    /// per-region coherency units (`None` = paper-prototype behaviour).
    pub array_chunk: Option<u32>,
    /// Structured event tracing (`None` = disabled, the zero-cost default;
    /// the run behaves bit-identically either way). Works on both backends;
    /// the threads driver merges per-node streams into the same canonical
    /// order the sim produces.
    pub trace: Option<TraceMode>,
    /// Wall-clock span profiling (threads backend): per-node stall
    /// breakdown + latency histograms into `RunReport::wall`. No effect on
    /// virtual-time results; ignored by the sim backend (its wall time is
    /// meaningless). Implied by `trace` on the threads backend.
    pub profile: bool,
    /// Which driver executes the run (sim by default; mid-run joins still
    /// require the sim backend).
    pub backend: Backend,
    /// Synchronization protocol for the live backends (epoch rounds vs
    /// asynchronous per-pair horizons; results are identical).
    pub sync: SyncMode,
    /// Live telemetry: lock-free registry + wall-clock sampler (+ watchdog
    /// and flight recorder on the threads backend). `None` = off, the
    /// zero-cost default; on or off, runs are bit-identical.
    pub metrics: Option<MetricsConfig>,
    /// Sockets-backend deployment knobs (ignored by the other backends).
    pub sockets: SocketsConfig,
    /// Run the classic enum-dispatch interpreter instead of the predecoded
    /// direct-threaded executor. Results are bit-identical either way (the
    /// differential suites assert it); the classic path exists as the
    /// semantic reference and for A/B measurement.
    pub classic_interp: bool,
    /// Count retired opcodes and consecutive pairs per node (the `repro
    /// opstats` profiler). Forces the classic interpreter (the counter
    /// hooks live there) and costs a hash-map update per instruction, so
    /// off by default.
    pub opstats: bool,
    /// Per-object DSM sharing profiler: attribute every coherence event to
    /// its base `Gid`, classify sharing patterns, and rank home-migration
    /// candidates into `RunReport::objprof`. Off by default; on or off,
    /// virtual-time results are bit-identical (counts are side-band).
    pub objprof: bool,
}

impl ClusterConfig {
    /// Every field at its default; the one literal all constructors (and
    /// the sockets wire-config decoder) start from.
    pub(crate) fn base(mode: Mode, nodes: Vec<NodeSpec>, cpus_per_node: usize) -> ClusterConfig {
        ClusterConfig {
            mode,
            nodes,
            cpus_per_node,
            protocol: ProtocolMode::MtsHlrc,
            balancer: Balancer::LeastLoaded,
            fuel: 4096,
            max_ops: u64::MAX,
            joins: Vec::new(),
            disable_local_locks: false,
            array_chunk: None,
            trace: None,
            profile: false,
            backend: Backend::default(),
            sync: SyncMode::default(),
            metrics: None,
            sockets: SocketsConfig::default(),
            classic_interp: false,
            opstats: false,
            objprof: false,
        }
    }

    /// The paper's "Original" configuration: one node, `cpus` CPUs.
    pub fn baseline(profile: JvmProfile, cpus: usize) -> ClusterConfig {
        ClusterConfig::base(Mode::Baseline, vec![NodeSpec { profile }], cpus)
    }

    /// A homogeneous JavaSplit cluster of `n` dual-CPU nodes.
    pub fn javasplit(profile: JvmProfile, n: usize) -> ClusterConfig {
        ClusterConfig::base(Mode::JavaSplit, vec![NodeSpec { profile }; n], 2)
    }

    /// A heterogeneous cluster from explicit specs.
    pub fn heterogeneous(nodes: Vec<NodeSpec>) -> ClusterConfig {
        ClusterConfig::base(Mode::JavaSplit, nodes, 2)
    }

    pub fn with_array_chunk(mut self, elems: u32) -> Self {
        self.array_chunk = Some(elems);
        self
    }

    pub fn with_protocol(mut self, protocol: ProtocolMode) -> Self {
        self.protocol = protocol;
        self
    }

    pub fn with_balancer(mut self, balancer: Balancer) -> Self {
        self.balancer = balancer;
        self
    }

    pub fn with_joins(mut self, joins: Vec<(u64, NodeSpec)>) -> Self {
        self.joins = joins;
        self
    }

    pub fn with_max_ops(mut self, max_ops: u64) -> Self {
        self.max_ops = max_ops;
        self
    }

    /// Enable structured event tracing ([`TraceMode::Full`] for the whole
    /// stream, `Ring(n)` for the last n events).
    pub fn with_trace(mut self, mode: TraceMode) -> Self {
        self.trace = Some(mode);
        self
    }

    /// Enable wall-clock span profiling on the threads backend.
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Select the execution backend (virtual-time sim vs real OS threads).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Select the threads backend's synchronization protocol.
    pub fn with_sync(mut self, sync: SyncMode) -> Self {
        self.sync = sync;
        self
    }

    /// Enable live telemetry (registry + sampler + flight recorder;
    /// watchdog per the [`MetricsConfig`]).
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Configure the sockets backend's deployment knobs.
    pub fn with_sockets(mut self, sockets: SocketsConfig) -> Self {
        self.sockets = sockets;
        self
    }

    /// Run on the classic enum-dispatch interpreter (A/B reference path).
    pub fn with_classic_interp(mut self, on: bool) -> Self {
        self.classic_interp = on;
        self
    }

    /// Enable the per-node opcode/pair frequency profiler.
    pub fn with_opstats(mut self, on: bool) -> Self {
        self.opstats = on;
        self
    }

    /// Enable the per-object DSM sharing profiler.
    pub fn with_objprof(mut self, on: bool) -> Self {
        self.objprof = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = ClusterConfig::javasplit(JvmProfile::SunSim, 4)
            .with_protocol(ProtocolMode::ClassicHlrc)
            .with_balancer(Balancer::RoundRobin)
            .with_max_ops(1000);
        assert_eq!(c.nodes.len(), 4);
        assert_eq!(c.protocol, ProtocolMode::ClassicHlrc);
        assert_eq!(c.max_ops, 1000);
        let b = ClusterConfig::baseline(JvmProfile::IbmSim, 2);
        assert_eq!(b.mode, Mode::Baseline);
        assert_eq!(b.cpus_per_node, 2);
        assert_eq!(b.trace, None);
        let t = ClusterConfig::javasplit(JvmProfile::SunSim, 2).with_trace(TraceMode::Ring(64));
        assert_eq!(t.trace, Some(TraceMode::Ring(64)));
        assert_eq!(t.backend, Backend::Sim);
        let th = ClusterConfig::javasplit(JvmProfile::SunSim, 2).with_backend(Backend::Threads);
        assert_eq!(th.backend, Backend::Threads);
        assert!(!th.profile);
        assert!(ClusterConfig::javasplit(JvmProfile::SunSim, 2).with_profile(true).profile);
        assert_eq!(th.sync, SyncMode::Epoch);
        let asy = ClusterConfig::javasplit(JvmProfile::SunSim, 2).with_sync(SyncMode::Async);
        assert_eq!(asy.sync, SyncMode::Async);
        assert!(asy.metrics.is_none());
        let m = ClusterConfig::javasplit(JvmProfile::SunSim, 2).with_metrics(MetricsConfig {
            watchdog_budget: Some(std::time::Duration::from_millis(200)),
            ..MetricsConfig::default()
        });
        let mc = m.metrics.expect("metrics set");
        assert_eq!(mc.interval, std::time::Duration::from_millis(50));
        assert_eq!(mc.watchdog_budget, Some(std::time::Duration::from_millis(200)));
        assert!(mc.stall_inject.is_none());
    }
}
