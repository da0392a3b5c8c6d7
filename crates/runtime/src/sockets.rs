//! The real-socket multi-process backend: one coordinator, one OS process
//! per node, TCP between them — the paper's deployment shape taken off the
//! single machine (§2: independent runtimes on commodity workstations).
//!
//! The conservative-sync engine is [`crate::engine`], unchanged from the
//! threads backend; this module is the *instantiation* over processes that
//! share no memory:
//!
//! * frames cross the wire as length-prefixed [`Envelope::Data`] messages
//!   relayed by a star coordinator (workers never dial each other — the
//!   coordinator is the switch, which keeps deployment to "every worker
//!   knows one address"),
//! * the epoch protocol's one primitive ([`EpochPeers`]) is one `Slot` →
//!   `Slots` round trip, the coordinator folding every `min_out` into the
//!   slots it broadcasts ([`EpochRound`]). The ordering argument that
//!   replaces the threads backend's Release/Acquire pair is two FIFOs
//!   composed: each worker's window data precedes its `Slot` on its own
//!   stream, the coordinator's relay loop is one thread draining one mpsc
//!   queue whose per-producer FIFO keeps that order, so when the n-th
//!   `Slot` is dequeued every window frame has already been written toward
//!   its destination — and per-stream FIFO again delivers those frames to
//!   each worker *before* its `Slots`. The whole window is inbound when
//!   `Slots` arrives (DESIGN.md §16.3).
//! * the async loop ([`SyncEngine::run_async`]) runs without shared slots,
//!   on pure per-channel Chandy–Misra–Bryant promises, and [`AsyncPeers`]
//!   puts its one termination rule ([`decide_async`]) in *the
//!   coordinator*: it counts the non-null records it relays toward each
//!   worker ([`jsplit_net::transport::frame_data_records`]) and evaluates
//!   the rule on every `State` report — which rides each worker's stream
//!   *behind* every record it accounts for (DESIGN.md §14.2).
//!
//! Handshake: a worker dials in (bounded retry with exponential backoff)
//! and sends `Hello { magic, version, node_id, config_hash }`; the
//! coordinator validates ([`jsplit_net::tcp::validate_hello`]) and answers
//! `Welcome` carrying the full serialized cluster config and program, or
//! `Reject { reason }` — a mismatched peer gets a clear error, never a
//! hang. Every worker then runs [`driver::prepare`] deterministically from
//! the same bytes, so rewrite output, image layout and gid assignment are
//! identical across processes without shipping any derived state.
//!
//! Live telemetry crosses processes: the coordinator owns the registry,
//! sampler and watchdog, and each worker ships its own registry row as a
//! `Metrics` envelope from its engine thread (rate-limited to the
//! coordinator's sampling interval) — the merged NDJSON stream and
//! [`RunReport::telemetry`] come out schema-identical to the threads
//! backend's. The per-object sharing profiler and the flight recorder are
//! armed the same way, via `Welcome { flags }`; a worker that panics sends
//! a `Fault` envelope carrying the panic message and its flight-recorder
//! tail, so the coordinator reports the real cause instead of a bare
//! connection drop.
//!
//! Restrictions vs the threads backend: no mid-run joins, no tracing, no
//! wall profiling (those merge per-node in-memory buffers; over sockets
//! they would need their own wire format). Virtual-time results — stdout,
//! `exec_time_ps`, `NetStats`, `DsmStats` — are bit-identical to the sim
//! and threads backends (asserted by the differential tests in
//! `tests/sockets.rs`).

use crate::balance::Balancer;
use crate::config::{Backend, ClusterConfig, Mode, NodeSpec, SyncMode};
use crate::driver::{self, ClusterError, Prepared};
use crate::engine::{decide_async, fold_slot, AsyncPeers, AsyncState, EpochPeers, EpochSlot, Horizons, SyncEngine};
use crate::env::CONSOLE_NODE;
use crate::node::NodeRuntime;
use crate::report::{NodeResult, RunReport};
use crate::telemetry::Telemetry;
use jsplit_dsm::{DsmStats, ProtocolMode};
use jsplit_mjvm::classfile_io::{decode_program, encode_program};
use jsplit_mjvm::cost::JvmProfile;
use jsplit_mjvm::heap::ThreadUid;
use jsplit_mjvm::interp::VmError;
use jsplit_net::codec::{CodecError, Reader, Writer};
use jsplit_net::tcp::{
    self, Envelope, HandshakeExpect, SlotWire, TcpFrameLink, ANY_NODE, MAGIC, VERSION, WF_FLIGHT,
    WF_OBJPROF,
};
use jsplit_net::transport::{frame_data_records, FrameStats};
use jsplit_net::{ChannelEndpoint, Frame, NetStats, NodeId, SoloSetup};
use jsplit_trace::{FlightRecorder, MetricsRegistry, ObjProfile, ALL_METRICS, METRICS, OBJ_KINDS};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long an accepted socket may dawdle over its `Hello` before the
/// coordinator gives up on it (a non-worker that dialed in and sent
/// nothing must not stall the whole accept phase).
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// Cluster-config wire form
// ---------------------------------------------------------------------------

/// Serialize the run-relevant subset of a [`ClusterConfig`] — everything
/// that affects virtual-time results. Deployment knobs (`sockets`,
/// `metrics`, `trace`, `profile`) are per-process concerns and stay out,
/// which also keeps them out of the handshake's config hash.
fn encode_wire_config(cfg: &ClusterConfig) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(match cfg.mode {
        Mode::Baseline => 0,
        Mode::JavaSplit => 1,
    });
    w.varu(cfg.nodes.len() as u64);
    for spec in &cfg.nodes {
        w.u8(match spec.profile {
            JvmProfile::SunSim => 0,
            JvmProfile::IbmSim => 1,
        });
    }
    w.varu(cfg.cpus_per_node as u64);
    w.u8(match cfg.protocol {
        ProtocolMode::MtsHlrc => 0,
        ProtocolMode::ClassicHlrc => 1,
    });
    w.u8(match cfg.balancer {
        Balancer::LeastLoaded => 0,
        Balancer::RoundRobin => 1,
        Balancer::Pinned => 2,
    });
    w.u32(cfg.fuel);
    w.u64(cfg.max_ops);
    w.u8(cfg.disable_local_locks as u8);
    match cfg.array_chunk {
        None => {
            w.u8(0);
        }
        Some(c) => {
            w.u8(1).u32(c);
        }
    }
    w.u8(match cfg.sync {
        SyncMode::Epoch => 0,
        SyncMode::Async => 1,
    });
    w.u8(cfg.classic_interp as u8);
    w.into_inner()
}

fn decode_wire_config(bytes: &[u8]) -> Result<ClusterConfig, CodecError> {
    let mut r = Reader::new(bytes);
    let mode = match r.u8()? {
        0 => Mode::Baseline,
        1 => Mode::JavaSplit,
        _ => return Err(CodecError("bad mode byte")),
    };
    let nodes = r.seq(1, |r| {
        Ok(NodeSpec {
            profile: match r.u8()? {
                0 => JvmProfile::SunSim,
                1 => JvmProfile::IbmSim,
                _ => return Err(CodecError("bad profile byte")),
            },
        })
    })?;
    let cpus_per_node = r.varu()? as usize;
    // Everything the wire does not carry keeps its default: tracing,
    // metrics and objprof are armed via `Welcome`, outside the hashed
    // config (they never change virtual-time results); opstats counters
    // have no berth in the worker report (opstats runs use the sim).
    let mut cfg = ClusterConfig::base(mode, nodes, cpus_per_node);
    cfg.backend = Backend::Sockets;
    cfg.protocol = match r.u8()? {
        0 => ProtocolMode::MtsHlrc,
        1 => ProtocolMode::ClassicHlrc,
        _ => return Err(CodecError("bad protocol byte")),
    };
    cfg.balancer = match r.u8()? {
        0 => Balancer::LeastLoaded,
        1 => Balancer::RoundRobin,
        2 => Balancer::Pinned,
        _ => return Err(CodecError("bad balancer byte")),
    };
    cfg.fuel = r.u32()?;
    cfg.max_ops = r.u64()?;
    cfg.disable_local_locks = r.u8()? != 0;
    cfg.array_chunk = match r.u8()? {
        0 => None,
        _ => Some(r.u32()?),
    };
    cfg.sync = match r.u8()? {
        0 => SyncMode::Epoch,
        1 => SyncMode::Async,
        _ => return Err(CodecError("bad sync byte")),
    };
    cfg.classic_interp = r.u8()? != 0;
    r.finish()?;
    Ok(cfg)
}

// ---------------------------------------------------------------------------
// NodeResult wire form: the body of the `Report` envelope
// ---------------------------------------------------------------------------

fn encode_vm_error(w: &mut Writer, e: &VmError) {
    match e {
        VmError::NullDeref { method, pc } => {
            w.u8(0).str(method).varu(*pc as u64);
        }
        VmError::DivByZero { method, pc } => {
            w.u8(1).str(method).varu(*pc as u64);
        }
        VmError::IndexOutOfBounds { len, idx } => {
            w.u8(2).varu(*len as u64).i64(*idx);
        }
        VmError::NegativeArraySize(s) => {
            w.u8(3).i64(*s);
        }
        VmError::StackUnderflow { method, pc } => {
            w.u8(4).str(method).varu(*pc as u64);
        }
        VmError::IllegalMonitorState { op } => {
            w.u8(5).str(op);
        }
        VmError::NoSuchMethod(m) => {
            w.u8(6).str(m);
        }
        VmError::Unquickened(m) => {
            w.u8(7).str(m);
        }
        VmError::TypeMismatch(m) => {
            w.u8(8).str(m);
        }
        VmError::VolatileStackEmpty => {
            w.u8(9);
        }
        VmError::ArrayTooLarge(s) => {
            w.u8(10).i64(*s);
        }
    }
}

fn decode_vm_error(r: &mut Reader) -> Result<VmError, CodecError> {
    Ok(match r.u8()? {
        0 => VmError::NullDeref { method: r.str()?, pc: r.varu()? as usize },
        1 => VmError::DivByZero { method: r.str()?, pc: r.varu()? as usize },
        2 => VmError::IndexOutOfBounds { len: r.varu()? as usize, idx: r.i64()? },
        3 => VmError::NegativeArraySize(r.i64()?),
        4 => VmError::StackUnderflow { method: r.str()?, pc: r.varu()? as usize },
        // `op` names a monitor operation — a tiny static set; the leak is
        // bounded by the handful of distinct error strings per run.
        5 => VmError::IllegalMonitorState { op: Box::leak(r.str()?.into_boxed_str()) },
        6 => VmError::NoSuchMethod(r.str()?),
        7 => VmError::Unquickened(r.str()?),
        8 => VmError::TypeMismatch(r.str()?),
        9 => VmError::VolatileStackEmpty,
        10 => VmError::ArrayTooLarge(r.i64()?),
        _ => return Err(CodecError("bad VmError tag")),
    })
}

/// The per-object sharing profile, map entries in key order so equal
/// profiles encode to equal bytes.
fn encode_objprof(w: &mut Writer, p: &ObjProfile) {
    let mut objects: Vec<_> = p.objects.iter().collect();
    objects.sort_unstable();
    w.u64(objects.len() as u64);
    for (gid, cells) in objects {
        w.u64(*gid).u64s(cells);
    }
    let mut edges: Vec<_> = p.grants_to.iter().collect();
    edges.sort_unstable();
    w.u64(edges.len() as u64);
    for (&(gid, to), &count) in edges {
        w.u64(gid).u64(to as u64).u64(count);
    }
    let mut regions: Vec<_> = p.region_base.iter().collect();
    regions.sort_unstable();
    w.u64(regions.len() as u64);
    for (&region, &base) in regions {
        w.u64(region).u64(base);
    }
    w.u64s(&p.unattributed);
}

fn decode_objprof(r: &mut Reader) -> Result<ObjProfile, CodecError> {
    let n = r.u64()?;
    let objects = r.seq_of(n, 8 + 8 * OBJ_KINDS, |r| Ok((r.u64()?, r.u64s()?)))?;
    let n = r.u64()?;
    let edges = r.seq_of(n, 24, |r| Ok(((r.u64()?, r.u64()? as NodeId), r.u64()?)))?;
    let n = r.u64()?;
    let regions = r.seq_of(n, 16, |r| Ok((r.u64()?, r.u64()?)))?;
    Ok(ObjProfile {
        objects: objects.into_iter().collect(),
        grants_to: edges.into_iter().collect(),
        region_base: regions.into_iter().collect(),
        unattributed: r.u64s()?,
    })
}

/// Everything but `opstats`, whose counters have no berth on the wire
/// (opstats runs use an in-process backend).
fn encode_node_result(rep: &NodeResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.varu(rep.console.len() as u64);
    for line in &rep.console {
        w.str(line);
    }
    w.varu(rep.errors.len() as u64);
    for (uid, e) in &rep.errors {
        w.varu(*uid as u64);
        encode_vm_error(&mut w, e);
    }
    w.u8(rep.deadlocked as u8).u8(rep.aborted as u8);
    w.u64(rep.ops)
        .u32(rep.spawned_here)
        .u64(rep.finish_time)
        .u64(rep.slab_high_water)
        .u64(rep.windows)
        .u64(rep.horizon_advances)
        .u64(rep.setup_ps);
    w.counters(NetStats::FIELDS, &rep.net);
    match &rep.dsm {
        None => w.u8(0),
        Some(d) => w.u8(1).counters(DsmStats::FIELDS, d),
    };
    w.counters(FrameStats::FIELDS, &rep.frames).str(&rep.flight);
    match &rep.objprof {
        None => {
            w.u8(0);
        }
        Some(p) => encode_objprof(w.u8(1), p),
    }
    w.into_inner()
}

fn decode_node_result(bytes: &[u8]) -> Result<NodeResult, CodecError> {
    let r = &mut Reader::new(bytes);
    // Fields are decoded in the order written here, which is wire order.
    let rep = NodeResult {
        console: r.seq(1, Reader::str)?,
        errors: r.seq(2, |r| Ok((r.varu()? as ThreadUid, decode_vm_error(r)?)))?,
        deadlocked: r.u8()? != 0,
        aborted: r.u8()? != 0,
        ops: r.u64()?,
        spawned_here: r.u32()?,
        finish_time: r.u64()?,
        slab_high_water: r.u64()?,
        windows: r.u64()?,
        horizon_advances: r.u64()?,
        setup_ps: r.u64()?,
        net: r.counters(NetStats::FIELDS)?,
        dsm: match r.u8()? {
            0 => None,
            _ => Some(r.counters(DsmStats::FIELDS)?),
        },
        frames: r.counters(FrameStats::FIELDS)?,
        flight: r.str()?,
        objprof: match r.u8()? {
            0 => None,
            _ => Some(decode_objprof(r)?),
        },
        opstats: None,
    };
    r.finish()?;
    Ok(rep)
}

// ---------------------------------------------------------------------------
// Worker-side peers: the engine's seams mapped onto the coordinator link
// ---------------------------------------------------------------------------

/// The worker's view of its peers: one socket to the coordinator (writes
/// go out directly; the ingress pump routes inbound `Data` into the
/// endpoint's frame channel and everything else into `ctrl`). Implements
/// both engine seams — [`EpochPeers`] as one envelope round trip, and
/// [`AsyncPeers`] with the coordinator deciding termination. Connection
/// loss panics, matching [`TcpFrameLink`]: a worker without its
/// coordinator has no recovery path, and the process exit *is* the error
/// signal the coordinator acts on.
struct WirePeerLink {
    sock: TcpStream,
    ctrl: Receiver<io::Result<Envelope>>,
    me: NodeId,
}

/// Unpack the coordinator's answer to our round-`round` `Slot` into `out`:
/// anything but a `Slots` for that round carrying exactly one slot per
/// node is a protocol error.
fn unpack_slots(env: Envelope, round: u64, out: &mut [EpochSlot]) -> Result<(), String> {
    match env {
        Envelope::Slots { round: r, slots } if r == round && slots.len() == out.len() => {
            for (o, w) in out.iter_mut().zip(slots) {
                *o = EpochSlot::from_array(w);
            }
            Ok(())
        }
        other => Err(format!("expected Slots({round}) for {} nodes, got {other:?}", out.len())),
    }
}

impl WirePeerLink {
    fn send(&mut self, env: &Envelope) {
        tcp::write_envelope(&mut self.sock, env)
            .unwrap_or_else(|e| panic!("worker {}: coordinator connection lost: {e}", self.me));
    }

    fn recv_ctrl(&mut self) -> Envelope {
        match self.ctrl.recv() {
            Ok(Ok(env)) => env,
            Ok(Err(e)) => panic!("worker {}: coordinator connection lost: {e}", self.me),
            Err(_) => panic!("worker {}: ingress pump exited", self.me),
        }
    }

    /// The next control envelope if one has already arrived.
    fn poll_ctrl(&mut self) -> Option<Envelope> {
        match self.ctrl.try_recv() {
            Ok(Ok(env)) => Some(env),
            Ok(Err(e)) => panic!("worker {}: coordinator connection lost: {e}", self.me),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => panic!("worker {}: ingress pump exited", self.me),
        }
    }
}

impl EpochPeers for WirePeerLink {
    fn exchange(
        &mut self,
        round: u64,
        slot: &EpochSlot,
        min_out: &[u64],
        out: &mut [EpochSlot],
        before_park: &mut dyn FnMut(),
    ) -> bool {
        self.send(&Envelope::Slot { round, slot: slot.to_array(), min_out: min_out.to_vec() });
        // `Slots` arrives strictly after every window frame the
        // coordinator relayed to us (per-stream FIFO), so on return the
        // whole closing window is inbound.
        let polled = self.poll_ctrl();
        let parked = polled.is_none();
        let env = polled.unwrap_or_else(|| {
            before_park();
            self.recv_ctrl()
        });
        unpack_slots(env, round, out).unwrap_or_else(|e| panic!("worker {}: protocol error: {e}", self.me));
        parked
    }
}

impl AsyncPeers for WirePeerLink {
    fn poll_done(&mut self) -> Option<u64> {
        match self.poll_ctrl()? {
            Envelope::Done { outcome } => Some(outcome as u64),
            other => panic!("worker {}: unexpected {other:?} before Done", self.me),
        }
    }

    /// The coordinator decides, and its `Done` doorbell wakes every worker.
    fn send_state(&mut self, st: AsyncState) -> bool {
        self.send(&Envelope::State { qhead: st.qhead, drained: st.drained, live: st.live, ops: st.ops });
        false
    }

    fn flush_rendezvous(&mut self) {
        self.send(&Envelope::Flushed);
        // `Shutdown` is broadcast only after all n `Flushed` reports were
        // dequeued, and each worker's leftover frames precede its
        // `Flushed` — so per-stream FIFO puts every peer's leftovers in
        // our channel before this returns.
        match self.recv_ctrl() {
            Envelope::Shutdown => {}
            other => panic!("worker {}: expected Shutdown, got {other:?}", self.me),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// Entry point for `jsplit worker ...`: parse the worker flags and run to
/// completion against the coordinator.
pub fn worker_main(args: &[String]) -> Result<(), ClusterError> {
    let mut connect: Option<String> = None;
    let mut node_id: Option<u16> = None;
    let mut config_hash = 0u64;
    let mut connect_timeout = Duration::from_secs(10);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().cloned().ok_or_else(|| ClusterError::Config(format!("worker: {flag} needs a value")))
        };
        match a.as_str() {
            "--connect" => connect = Some(val("--connect")?),
            "--node-id" => {
                node_id = Some(val("--node-id")?.parse().map_err(|e| {
                    ClusterError::Config(format!("worker: bad --node-id: {e}"))
                })?)
            }
            "--config-hash" => {
                config_hash = val("--config-hash")?.parse().map_err(|e| {
                    ClusterError::Config(format!("worker: bad --config-hash: {e}"))
                })?
            }
            "--connect-timeout" => {
                let secs: f64 = val("--connect-timeout")?.parse().map_err(|e| {
                    ClusterError::Config(format!("worker: bad --connect-timeout: {e}"))
                })?;
                connect_timeout = Duration::from_secs_f64(secs.max(0.0));
            }
            other => return Err(ClusterError::Config(format!("worker: unknown flag {other}"))),
        }
    }
    let connect = connect
        .ok_or_else(|| ClusterError::Config("worker: --connect HOST:PORT is required".into()))?;
    run_worker(&connect, node_id, config_hash, connect_timeout)
}

/// Dial the coordinator with bounded exponential backoff (25 ms doubling
/// to a 500 ms cap) until `timeout` is spent.
fn dial(connect: &str, timeout: Duration) -> Result<TcpStream, ClusterError> {
    let deadline = Instant::now() + timeout;
    let mut delay = Duration::from_millis(25);
    loop {
        match TcpStream::connect(connect) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() + delay >= deadline {
                    return Err(ClusterError::Config(format!(
                        "worker: cannot reach coordinator at {connect} within {timeout:?}: {e}"
                    )));
                }
                thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
        }
    }
}

/// Run one worker process: handshake, deterministic bootstrap, engine run,
/// final report.
pub fn run_worker(
    connect: &str,
    node_id: Option<u16>,
    config_hash: u64,
    connect_timeout: Duration,
) -> Result<(), ClusterError> {
    let mut stream = dial(connect, connect_timeout)?;
    let _ = stream.set_nodelay(true);
    let sock_err = |e: io::Error| ClusterError::Config(format!("worker: coordinator connection failed: {e}"));
    tcp::write_envelope(
        &mut stream,
        &Envelope::Hello {
            magic: MAGIC,
            version: VERSION,
            node_id: node_id.unwrap_or(ANY_NODE),
            config_hash,
        },
    )
    .map_err(sock_err)?;
    let (me, n, metrics_interval_us, flags, cfg_blob, program_bytes) =
        match tcp::read_envelope(&mut stream).map_err(sock_err)? {
            Envelope::Welcome {
                node_id,
                nodes,
                config_hash: _,
                metrics_interval_us,
                flags,
                config,
                program,
            } => (node_id, nodes as usize, metrics_interval_us, flags, config, program),
            Envelope::Reject { reason } => {
                return Err(ClusterError::Config(format!("worker: coordinator rejected handshake: {reason}")))
            }
            other => {
                return Err(ClusterError::Config(format!("worker: expected Welcome, got {other:?}")))
            }
        };
    // Everything past the handshake runs under catch_unwind: a panic turns
    // into a `Fault` envelope carrying the real cause (plus the flight-
    // recorder tail, if armed) instead of a bare connection drop at the
    // coordinator.
    let flight = ((flags & WF_FLIGHT) != 0).then(|| FlightRecorder::new(n));
    if let Some(f) = &flight {
        jsplit_trace::arm_panic_dump(f);
    }
    let fault_sock = stream.try_clone().map_err(sock_err)?;
    let flight2 = flight.clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_worker_body(stream, me, n, metrics_interval_us, flags, &cfg_blob, &program_bytes, flight)
    }));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            let mut s = fault_sock;
            let _ = tcp::write_envelope(
                &mut s,
                &Envelope::Fault {
                    node: me,
                    message: message.clone(),
                    flight: flight2.map(|f| f.render()).unwrap_or_default(),
                },
            );
            Err(ClusterError::Config(format!("worker {me} panicked: {message}")))
        }
    }
}

/// Extract the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".into()
    }
}

/// The post-handshake worker: deterministic bootstrap, engine run, final
/// report. Runs under `run_worker`'s catch_unwind.
#[allow(clippy::too_many_arguments)]
fn run_worker_body(
    mut stream: TcpStream,
    me: u16,
    n: usize,
    metrics_interval_us: u64,
    flags: u8,
    cfg_blob: &[u8],
    program_bytes: &[u8],
    flight: Option<Arc<FlightRecorder>>,
) -> Result<(), ClusterError> {
    let sock_err = |e: io::Error| ClusterError::Config(format!("worker: coordinator connection failed: {e}"));
    // Test hook for the fault path: the named worker dies right here, after
    // the handshake, exercising the Fault envelope end to end.
    if std::env::var("JSPLIT_TEST_WORKER_PANIC").is_ok_and(|v| v == me.to_string()) {
        panic!("injected test panic in worker {me}");
    }
    let mut config = decode_wire_config(cfg_blob)
        .map_err(|e| ClusterError::Config(format!("worker {me}: bad wire config: {e}")))?;
    config.objprof = (flags & WF_OBJPROF) != 0;
    if config.nodes.len() != n {
        return Err(ClusterError::Config(format!(
            "worker {me}: Welcome says {n} nodes but the config carries {}",
            config.nodes.len()
        )));
    }
    let program = decode_program(program_bytes)
        .map_err(|e| ClusterError::Config(format!("worker {me}: bad wire program: {e}")))?;
    // The same deterministic preparation every process runs from the same
    // bytes: rewrite, image, class-distribution size — no derived state
    // crosses the wire.
    let prepared = driver::prepare(&config, &program)?;

    // Endpoint plumbing: the engine writes the socket directly (TcpFrameLink),
    // the ingress pump feeds decoded Data frames into `frame_rx` and
    // control envelopes into `ctrl` — with an empty-frame doorbell so an
    // engine parked in `wait_inbound` wakes for control traffic too.
    let (frame_tx, frame_rx) = mpsc::channel::<Frame>();
    let (pool_tx, pool_rx) = mpsc::channel::<Vec<u8>>();
    let (ctrl_tx, ctrl_rx) = mpsc::channel::<io::Result<Envelope>>();
    let wire = Box::new(TcpFrameLink::new(stream.try_clone().map_err(sock_err)?, pool_tx));
    let mut endpoint =
        ChannelEndpoint::single(me, n, driver::link_params(config.nodes[me as usize]), wire, frame_rx, pool_rx, true);
    let mut pump_stream = stream.try_clone().map_err(sock_err)?;
    thread::spawn(move || loop {
        match tcp::read_envelope(&mut pump_stream) {
            Ok(Envelope::Data { src, frame, .. }) => {
                if frame_tx.send(Frame { src, buf: frame }).is_err() {
                    return;
                }
            }
            Ok(env) => {
                let stop = matches!(env, Envelope::Shutdown);
                let _ = ctrl_tx.send(Ok(env));
                let _ = frame_tx.send(Frame { src: me, buf: Vec::new() });
                if stop {
                    return;
                }
            }
            Err(e) => {
                let _ = ctrl_tx.send(Err(e));
                let _ = frame_tx.send(Frame { src: me, buf: Vec::new() });
                return;
            }
        }
    });

    let mut node = NodeRuntime::new(me, config.nodes[me as usize], &config, &prepared);
    // Setup accounting, replicated per process: worker 0 plans the class
    // sends (it is the console node that ships them), every other worker
    // records its own receive — together they reproduce exactly the mesh
    // accounting the threads driver does centrally, without any setup
    // bytes actually crossing the wire.
    let mut setup_ps = 0u64;
    if me == CONSOLE_NODE {
        setup_ps = driver::set_up_pool(&config, &prepared, std::slice::from_mut(&mut node), &mut SoloSetup(&mut endpoint));
    } else if config.mode == Mode::JavaSplit {
        driver::ship_classes(&mut SoloSetup(&mut endpoint), 0, me, prepared.class_bytes);
        // Replay node 0's singleton creation on a scratch runtime: gid
        // assignment is deterministic, so the specs come out identical
        // to the ones the real node 0 produced in its own process.
        let mut scratch = NodeRuntime::new(0, config.nodes[0], &config, &prepared);
        driver::bootstrap_statics(std::slice::from_mut(&mut scratch), &prepared.image);
        let singles = driver::singleton_specs(&mut scratch, &prepared.image);
        driver::install_singletons(&mut node, &prepared.image, &singles);
    }

    let mut eng = SyncEngine::new(node, endpoint, &config);
    eng.flight = flight.clone();
    if metrics_interval_us > 0 {
        // Local one-writer registry; the pump ships our row toward the
        // coordinator's merged registry from the engine thread, so the
        // envelope never interleaves with frames or control traffic.
        let reg = MetricsRegistry::new(n);
        eng.metrics = Some(reg.clone());
        let mut pump_sock = stream.try_clone().map_err(sock_err)?;
        let interval = Duration::from_micros(metrics_interval_us.max(1));
        let mut last: Option<Instant> = None;
        eng.metrics_pump = Some(Box::new(move |force: bool| {
            if !force && last.is_some_and(|t| t.elapsed() < interval) {
                return;
            }
            last = Some(Instant::now());
            let cells: Vec<u64> = ALL_METRICS.iter().map(|&m| reg.get(me, m)).collect();
            tcp::write_envelope(&mut pump_sock, &Envelope::Metrics { node: me, cells })
                .unwrap_or_else(|e| panic!("worker {me}: coordinator connection lost: {e}"));
        }));
    }
    eng.start(None);
    let mut link = WirePeerLink { sock: stream.try_clone().map_err(sock_err)?, ctrl: ctrl_rx, me };
    let outcome = match config.sync {
        SyncMode::Epoch => eng.run_epoch(&mut link),
        SyncMode::Async => eng.run_async(&mut link),
    };
    let rep = NodeResult {
        setup_ps,
        flight: flight.as_ref().map(|f| f.render()).unwrap_or_default(),
        ..outcome.result
    };
    tcp::write_envelope(&mut stream, &Envelope::Report { body: encode_node_result(&rep) }).map_err(sock_err)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// The multi-process backend's coordinator: binds a listener, (optionally)
/// fork/execs one worker per node, handshakes them in, then acts as the
/// cluster's star switch — relaying data frames, sequencing epoch rounds,
/// and (async mode) deciding termination — until every worker has filed
/// its [`NodeResult`].
pub struct SocketsDriver {
    config: ClusterConfig,
    prepared: Prepared,
    cfg_blob: Vec<u8>,
    program_bytes: Vec<u8>,
    config_hash: u64,
}

impl SocketsDriver {
    pub fn new(config: ClusterConfig, program: &jsplit_mjvm::class::Program) -> Result<SocketsDriver, ClusterError> {
        if !config.joins.is_empty() {
            return Err(ClusterError::Config(
                "the sockets backend does not support mid-run joins; use the sim backend".into(),
            ));
        }
        if config.trace.is_some() || config.profile {
            return Err(ClusterError::Config(
                "the sockets backend does not support tracing/profiling; use the threads backend".into(),
            ));
        }
        if config.nodes.len() >= ANY_NODE as usize {
            return Err(ClusterError::Config(format!(
                "the sockets backend supports at most {} nodes",
                ANY_NODE - 1
            )));
        }
        // Validate the config and compute what the report needs (rewrite
        // stats, class-distribution size); the workers re-derive the same
        // image from the wire bytes.
        let prepared = driver::prepare(&config, program)?;
        let cfg_blob = encode_wire_config(&config);
        let program_bytes = encode_program(program);
        let config_hash = tcp::fnv1a(&[&cfg_blob, &program_bytes]);
        Ok(SocketsDriver { config, prepared, cfg_blob, program_bytes, config_hash })
    }

    pub fn run(self) -> Result<RunReport, ClusterError> {
        let mut children: Vec<(u16, Child)> = Vec::new();
        let result = self.run_inner(&mut children);
        if result.is_err() {
            for (_, c) in children.iter_mut() {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
        result
    }

    fn run_inner(self, children: &mut Vec<(u16, Child)>) -> Result<RunReport, ClusterError> {
        let started = Instant::now();
        let n = self.config.nodes.len();
        let sockets = self.config.sockets.clone();
        let listen = sockets.listen.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
        let listener = TcpListener::bind(listen)
            .map_err(|e| ClusterError::Config(format!("sockets coordinator: cannot bind {listen}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ClusterError::Config(format!("sockets coordinator: local_addr: {e}")))?;

        if sockets.spawn_workers {
            let bin = match &sockets.worker_bin {
                Some(p) => p.clone(),
                None => std::env::current_exe()
                    .map_err(|e| ClusterError::Config(format!("sockets coordinator: current_exe: {e}")))?,
            };
            for i in 0..n as u16 {
                let child = Command::new(&bin)
                    .arg("worker")
                    .arg("--connect")
                    .arg(addr.to_string())
                    .arg("--node-id")
                    .arg(i.to_string())
                    .arg("--config-hash")
                    .arg(self.config_hash.to_string())
                    .arg("--connect-timeout")
                    .arg(format!("{}", sockets.connect_timeout.as_secs_f64()))
                    .stdin(Stdio::null())
                    .spawn()
                    .map_err(|e| {
                        ClusterError::Config(format!(
                            "sockets coordinator: cannot spawn worker {i} ({}): {e}",
                            bin.display()
                        ))
                    })?;
                children.push((i, child));
            }
        } else {
            eprintln!(
                "jsplit sockets: waiting for {n} worker(s) on {addr} — start each with \
                 `jsplit worker --connect {addr}`"
            );
        }

        // Accept phase: non-blocking listener under a deadline, so a
        // worker that never dials in (or a spawned process that died)
        // turns into a clear error naming the missing node ids instead of
        // a hang.
        listener
            .set_nonblocking(true)
            .map_err(|e| ClusterError::Config(format!("sockets coordinator: set_nonblocking: {e}")))?;
        let deadline = Instant::now() + sockets.accept_timeout;
        let expect = HandshakeExpect { nodes: n as u16, config_hash: self.config_hash };
        // Telemetry/observer arming rides the Welcome, outside the hashed
        // wire config (deployment knobs never change virtual-time results).
        let metrics_interval_us = self
            .config
            .metrics
            .as_ref()
            .map(|m| {
                u64::try_from(m.interval.max(Duration::from_millis(1)).as_micros())
                    .unwrap_or(u64::MAX)
            })
            .unwrap_or(0);
        let mut wflags = 0u8;
        if self.config.objprof {
            wflags |= WF_OBJPROF;
        }
        if self.config.metrics.is_some() {
            wflags |= WF_FLIGHT;
        }
        let mut claimed = vec![false; n];
        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut rejections: Vec<String> = Vec::new();
        while claimed.iter().any(|c| !c) {
            match listener.accept() {
                Ok((stream, peer)) => {
                    let mut s = stream;
                    let _ = s.set_nonblocking(false);
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(HELLO_TIMEOUT));
                    match tcp::read_envelope(&mut s) {
                        Ok(hello) => match tcp::validate_hello(&hello, expect, &claimed) {
                            Ok(id) => {
                                tcp::write_envelope(
                                    &mut s,
                                    &Envelope::Welcome {
                                        node_id: id,
                                        nodes: n as u16,
                                        config_hash: self.config_hash,
                                        metrics_interval_us,
                                        flags: wflags,
                                        config: self.cfg_blob.clone(),
                                        program: self.program_bytes.clone(),
                                    },
                                )
                                .map_err(|e| {
                                    ClusterError::Config(format!(
                                        "sockets coordinator: Welcome to node {id} failed: {e}"
                                    ))
                                })?;
                                let _ = s.set_read_timeout(None);
                                claimed[id as usize] = true;
                                streams[id as usize] = Some(s);
                            }
                            Err(reason) => {
                                let _ = tcp::write_envelope(&mut s, &Envelope::Reject { reason: reason.clone() });
                                eprintln!("jsplit sockets: rejected dial-in from {peer}: {reason}");
                                rejections.push(format!("{peer}: {reason}"));
                            }
                        },
                        Err(e) => rejections.push(format!("{peer}: bad hello: {e}")),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    for (id, c) in children.iter_mut() {
                        if !claimed[*id as usize] {
                            if let Ok(Some(status)) = c.try_wait() {
                                return Err(ClusterError::Config(format!(
                                    "sockets coordinator: worker process for node {id} exited during the handshake ({status})"
                                )));
                            }
                        }
                    }
                    if Instant::now() >= deadline {
                        let missing: Vec<String> = claimed
                            .iter()
                            .enumerate()
                            .filter(|&(_, c)| !c)
                            .map(|(i, _)| i.to_string())
                            .collect();
                        let mut msg = format!(
                            "sockets coordinator: worker(s) for node id(s) {} never completed the handshake within {:?}",
                            missing.join(", "),
                            sockets.accept_timeout
                        );
                        if !rejections.is_empty() {
                            msg.push_str(&format!("; rejected dial-ins: {}", rejections.join("; ")));
                        }
                        return Err(ClusterError::Config(msg));
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(ClusterError::Config(format!("sockets coordinator: accept failed: {e}"))),
            }
        }
        drop(listener);
        let mut streams: Vec<TcpStream> = streams.into_iter().map(|s| s.expect("claimed")).collect();

        // Coordinator-owned telemetry: the registry the workers' `Metrics`
        // envelopes merge into, sampled and watchdogged exactly like the
        // threads backend samples its shared-memory registry — so the
        // NDJSON stream and the end-of-run summary are schema-identical.
        let metrics_cfg = self.config.metrics.clone();
        let registry = metrics_cfg.as_ref().map(|_| MetricsRegistry::new(n));
        let base_ps = Horizons::of(&self.config).base_ps;
        let mut telemetry = driver::start_telemetry(metrics_cfg.as_ref(), registry.as_ref(), None, Some(base_ps));

        // One reader thread per worker feeds a single sequencing queue;
        // this main thread does every write. Per-producer mpsc FIFO is the
        // ordering backbone: a worker's Data is dequeued before its
        // Slot/State/Flushed, so every broadcast below happens after the
        // frames it logically follows have been relayed.
        let (tx, rx) = mpsc::channel::<(u16, io::Result<Envelope>)>();
        for (id, s) in streams.iter().enumerate() {
            let mut rs = s
                .try_clone()
                .map_err(|e| ClusterError::Config(format!("sockets coordinator: clone stream {id}: {e}")))?;
            let tx: Sender<(u16, io::Result<Envelope>)> = tx.clone();
            let id = id as u16;
            thread::spawn(move || loop {
                match tcp::read_envelope(&mut rs) {
                    Ok(env) => {
                        let last = matches!(env, Envelope::Report { .. });
                        if tx.send((id, Ok(env))).is_err() || last {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send((id, Err(e)));
                        return;
                    }
                }
            });
        }
        drop(tx);

        let mut fwd_to = vec![0u64; n];
        let mut epoch = EpochRound::new(n);
        let mut states: Vec<Option<AsyncState>> = vec![None; n];
        let mut done_sent = false;
        let mut flushed = 0usize;
        let mut report_blobs: Vec<Option<Vec<u8>>> = vec![None; n];
        let mut reports_in = 0usize;
        let werr = |id: u16, e: io::Error| {
            ClusterError::Config(format!("sockets coordinator: write to worker {id} failed: {e}"))
        };
        let broadcast = |streams: &mut [TcpStream], env: &Envelope| -> Result<(), ClusterError> {
            for (id, s) in streams.iter_mut().enumerate() {
                tcp::write_envelope(s, env).map_err(|e| werr(id as u16, e))?;
            }
            Ok(())
        };
        while reports_in < n {
            let (from, env) = rx
                .recv()
                .map_err(|_| ClusterError::Config("sockets coordinator: all worker connections lost".into()))?;
            let env = match env {
                Ok(env) => env,
                Err(e) => {
                    if let Some(t) = telemetry.take() {
                        t.finish();
                    }
                    return Err(ClusterError::Config(format!(
                        "sockets coordinator: worker {from} disconnected before reporting: {e}"
                    )));
                }
            };
            match env {
                Envelope::Data { src, dst, frame } => {
                    // `src` is peer-claimed, and the receiving engine
                    // indexes its channel clocks and event lanes by it.
                    if src != from {
                        return Err(ClusterError::Config(format!(
                            "sockets coordinator: worker {from} sent a frame claiming to come from node {src}"
                        )));
                    }
                    let d = dst as usize;
                    if d >= n {
                        return Err(ClusterError::Config(format!(
                            "sockets coordinator: worker {from} addressed nonexistent node {dst}"
                        )));
                    }
                    // The frame is the worker's bytes, and the receiving
                    // engine walks its records: refuse here what is not a
                    // whole number of well-formed ones.
                    fwd_to[d] += frame_data_records(&frame).map_err(|e| {
                        ClusterError::Config(format!(
                            "sockets coordinator: worker {from} sent a malformed frame for node {dst}: {e}"
                        ))
                    })?;
                    tcp::write_data(&mut streams[d], src, dst, &frame).map_err(|e| werr(dst, e))?;
                }
                Envelope::Slot { round, slot, min_out } => {
                    let folded = epoch.post(from as usize, round, slot, &min_out).map_err(|e| {
                        ClusterError::Config(format!("sockets coordinator: worker {from} {e}"))
                    })?;
                    if let Some(slots) = folded {
                        broadcast(&mut streams, &Envelope::Slots { round, slots })?;
                    }
                }
                Envelope::State { qhead, drained, live, ops } => {
                    states[from as usize] = Some(AsyncState { qhead, drained, live, ops });
                    if !done_sent {
                        if let Some(outcome) = decide_async(&states, |w| fwd_to[w], self.config.max_ops) {
                            done_sent = true;
                            broadcast(&mut streams, &Envelope::Done { outcome: outcome as u8 })?;
                        }
                    }
                }
                Envelope::Flushed => {
                    flushed += 1;
                    if flushed == n {
                        // All leftovers are relayed (each worker's frames
                        // precede its Flushed); Shutdown lands behind them
                        // on every stream.
                        broadcast(&mut streams, &Envelope::Shutdown)?;
                    }
                }
                Envelope::Report { body } => {
                    report_blobs[from as usize] = Some(body);
                    reports_in += 1;
                }
                Envelope::Metrics { node: _, cells } => {
                    // Merge the worker's registry row (trust `from`, the
                    // authenticated stream, over the claimed node id). A
                    // mismatched cell count is a version skew the handshake
                    // should have caught — drop the sample, not the run.
                    if let Some(reg) = &registry {
                        if cells.len() == METRICS {
                            for (m, v) in ALL_METRICS.iter().zip(cells) {
                                reg.set(from, *m, v);
                            }
                        }
                    }
                }
                Envelope::Fault { node, message, flight } => {
                    if !flight.is_empty() {
                        eprintln!("jsplit sockets: worker {node} flight recorder:\n{flight}");
                    }
                    if let Some(t) = telemetry.take() {
                        t.finish();
                    }
                    return Err(ClusterError::Config(format!("worker {node} panicked: {message}")));
                }
                other => {
                    return Err(ClusterError::Config(format!(
                        "sockets coordinator: unexpected {other:?} from worker {from}"
                    )))
                }
            }
        }

        // Reap spawned workers (they exit right after their Report).
        let reap_deadline = Instant::now() + Duration::from_secs(10);
        for (id, c) in children.iter_mut() {
            loop {
                match c.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < reap_deadline => thread::sleep(Duration::from_millis(5)),
                    _ => {
                        let _ = c.kill();
                        let _ = c.wait();
                        eprintln!("jsplit sockets: worker {id} did not exit after reporting; killed");
                        break;
                    }
                }
            }
        }
        children.clear();

        // Stop the sampler (it takes one closing sample of the merged
        // registry) and fold the time series into the report.
        let telemetry_summary = telemetry.take().map(Telemetry::finish);

        let reports: Vec<NodeResult> = report_blobs
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                decode_node_result(&b.expect("report counted"))
                    .map_err(|e| ClusterError::Config(format!("sockets coordinator: bad report from worker {i}: {e}")))
            })
            .collect::<Result<_, _>>()?;
        // The watchdog fired during the run: relay each worker's flight-
        // recorder tail (the coordinator has no local one to dump).
        if telemetry_summary.as_ref().is_some_and(|t| !t.stalls.is_empty()) {
            for (i, r) in reports.iter().enumerate() {
                if !r.flight.is_empty() {
                    eprintln!("jsplit sockets: worker {i} flight recorder:\n{}", r.flight);
                }
            }
        }
        Ok(RunReport::assemble(&self.config, self.prepared, started, reports, None, None, telemetry_summary))
    }
}

/// The coordinator's side of the epoch exchange. Rounds are lockstep — no
/// worker can post round `r+1` before it has been sent the round-`r`
/// `Slots` — so one accumulator serves the whole run.
struct EpochRound {
    /// The round in flight.
    round: u64,
    posted: Vec<bool>,
    acc: Vec<EpochSlot>,
}

impl EpochRound {
    fn new(n: usize) -> EpochRound {
        EpochRound { round: 1, posted: vec![false; n], acc: vec![EpochSlot::IDLE; n] }
    }

    /// Fold worker `from`'s `Slot` into the round in flight; the n-th one
    /// yields the folded slots to broadcast and opens the next round. A
    /// record the lockstep rules out — wrong round, a second post, a
    /// `min_out` not sized to the cluster — is refused (the caller names
    /// the worker).
    fn post(&mut self, from: usize, round: u64, slot: SlotWire, min_out: &[u64]) -> Result<Option<Vec<SlotWire>>, String> {
        let n = self.acc.len();
        if round != self.round || self.posted[from] {
            return Err(format!("posted a slot for round {round} while round {} awaits others", self.round));
        }
        if min_out.len() != n {
            return Err(format!("posted a slot with {} min_out entries in a {n}-node cluster", min_out.len()));
        }
        fold_slot(&mut self.acc, from, EpochSlot::from_array(slot), min_out.iter().copied());
        self.posted[from] = true;
        if !self.posted.iter().all(|&p| p) {
            return Ok(None);
        }
        let folded = self.acc.iter().map(|s| s.to_array()).collect();
        self.acc.fill(EpochSlot::IDLE);
        self.posted.fill(false);
        self.round += 1;
        Ok(Some(folded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire_check;

    /// A config with every wire-carried field off its default.
    fn sample_config() -> ClusterConfig {
        let mut cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 4);
        cfg.nodes[2] = NodeSpec { profile: JvmProfile::IbmSim };
        cfg.protocol = ProtocolMode::ClassicHlrc;
        cfg.balancer = Balancer::RoundRobin;
        cfg.fuel = 123;
        cfg.max_ops = 9_999;
        cfg.disable_local_locks = true;
        cfg.array_chunk = Some(64);
        cfg.sync = SyncMode::Async;
        cfg
    }

    /// A node result with every field populated.
    fn sample_result() -> NodeResult {
        let mut net = NetStats { msgs_sent: 7, bytes_recv: 1234, ..NetStats::default() };
        net.sent_by_kind[3] = 42;
        net.recv_bytes_by_kind[7] = 99;
        let dsm = DsmStats {
            promotions: 1,
            fetches: 2,
            notices_stored_max: 37,
            notice_mem_max: 512,
            ..DsmStats::default()
        };
        NodeResult {
            console: vec!["hello".into(), "world".into()],
            errors: vec![
                (3, VmError::NullDeref { method: "Foo.bar".into(), pc: 17 }),
                (9, VmError::IndexOutOfBounds { len: 4, idx: -1 }),
                (1, VmError::IllegalMonitorState { op: "notify" }),
                (2, VmError::VolatileStackEmpty),
            ],
            deadlocked: true,
            aborted: false,
            ops: 1_000_000,
            spawned_here: 12,
            finish_time: 987_654_321,
            slab_high_water: 64,
            windows: 17,
            horizon_advances: 31,
            setup_ps: 555,
            net,
            dsm: Some(dsm),
            frames: FrameStats {
                frames_sent: 10,
                frame_bytes: 2000,
                msgs_framed: 30,
                nulls_sent: 4,
                nulls_piggybacked: 2,
            },
            flight: "t+0.1ms decide outcome=1".into(),
            objprof: Some({
                let mut p = ObjProfile::new();
                p.bump(0x0100_0000_0042, jsplit_trace::ObjEvent::Fetch);
                p.bump(0x0700_0000_0003, jsplit_trace::ObjEvent::WriteHit);
                p.grant_edge(0x0100_0000_0042, 3);
                p.note_region(0x0100_0000_0043, 0x0100_0000_0042);
                p.bump_unattributed(jsplit_trace::ObjEvent::Notify);
                p
            }),
            opstats: None,
        }
    }

    /// What a worker and a coordinator of the same `tcp::VERSION` exchange
    /// beyond the envelopes themselves.
    #[test]
    fn wire_config_and_report_bytes_are_pinned() {
        wire_check::assert_pinned("encode_wire_config", &encode_wire_config(&sample_config()), (0x1d, 0x2ca9_724d_3c53_467d));
        wire_check::assert_pinned("encode_node_result", &encode_node_result(&sample_result()), (1019, 0x5fdb_9fa6_5501_5bf6));
    }

    #[test]
    fn wire_config_round_trips() {
        let cfg = sample_config();
        let got = decode_wire_config(&encode_wire_config(&cfg)).unwrap();
        assert_eq!(got.mode, cfg.mode);
        assert_eq!(got.nodes, cfg.nodes);
        assert_eq!(got.cpus_per_node, cfg.cpus_per_node);
        assert_eq!(got.protocol, cfg.protocol);
        assert_eq!(got.balancer, cfg.balancer);
        assert_eq!(got.fuel, cfg.fuel);
        assert_eq!(got.max_ops, cfg.max_ops);
        assert_eq!(got.disable_local_locks, cfg.disable_local_locks);
        assert_eq!(got.array_chunk, cfg.array_chunk);
        assert_eq!(got.sync, cfg.sync);
        assert_eq!(got.backend, Backend::Sockets);
        assert!(got.trace.is_none() && !got.profile && got.metrics.is_none());
        // Deployment-side observers stay out of the hashed wire config.
        assert!(!got.objprof);
    }

    /// Everything in a `Welcome` or a `Report` beyond the envelope is a
    /// peer's bytes too.
    #[test]
    fn wire_config_and_report_decoding_is_total() {
        let config = encode_wire_config(&sample_config());
        wire_check::assert_total(decode_wire_config, &config);
        // A node count of u64::MAX (10-byte varint) must not be allocated for.
        let mut huge = vec![1u8];
        huge.extend_from_slice(&[0xFF; 9]);
        huge.push(0x01);
        huge.extend_from_slice(&config[2..]);
        assert_eq!(decode_wire_config(&huge).err(), Some(CodecError("count exceeds message")));
        // Nor a console line count, the first thing in a report.
        assert_eq!(decode_node_result(&huge[1..]).err(), Some(CodecError("count exceeds message")));

        wire_check::assert_total(decode_node_result, &encode_node_result(&sample_result()));
        let mut w = Writer::new();
        encode_objprof(&mut w, sample_result().objprof.as_ref().expect("sample carries a profile"));
        let whole_profile = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let p = decode_objprof(&mut r)?;
            r.finish().map(|()| p)
        };
        wire_check::assert_total(whole_profile, &w.into_inner());
    }

    #[test]
    fn node_result_round_trips() {
        let rep = sample_result();
        let good = encode_node_result(&rep);
        assert_eq!(decode_node_result(&good).unwrap(), rep);
        // Opstats counters stay off the wire.
        let mut counted = jsplit_mjvm::opstats::OpStats::default();
        counted.retire("iadd");
        let with_ops = NodeResult { opstats: Some(counted), ..decode_node_result(&good).unwrap() };
        assert_eq!(encode_node_result(&with_ops), good);
        // The dsm-less, observer-less (baseline) shape too.
        let rep2 = NodeResult {
            dsm: None,
            console: Vec::new(),
            errors: Vec::new(),
            flight: String::new(),
            objprof: None,
            ..rep
        };
        assert_eq!(decode_node_result(&encode_node_result(&rep2)).unwrap(), rep2);
    }

    #[test]
    fn every_vm_error_tag_round_trips() {
        // The sample report pins tags 0–9's bytes; the heap-limit trap
        // (tag 10) rides here so the pinned digest stays put.
        for e in [VmError::VolatileStackEmpty, VmError::ArrayTooLarge((1 << 24) + 1), VmError::NegativeArraySize(-3)] {
            let mut w = Writer::new();
            encode_vm_error(&mut w, &e);
            let bytes = w.into_inner();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_vm_error(&mut r).unwrap(), e);
            r.finish().unwrap();
        }
    }

    /// The coordinator's fold: the n-th `Slot` of the round in flight
    /// yields every node's post-drain head; anything the lockstep rules
    /// out is refused, not folded.
    #[test]
    fn epoch_round_folds_min_out_and_refuses_what_lockstep_rules_out() {
        let m = u64::MAX;
        let mut epoch = EpochRound::new(3);
        assert_eq!(epoch.post(1, 1, [400, 2, 0, 0, 7], &[m, m, 250]), Ok(None));
        // Not the round in flight, a second post, a mis-sized `min_out`.
        let err = epoch.post(0, 2, [0; 5], &[m; 3]).unwrap_err();
        assert!(err.contains("round 2") && err.contains("round 1"), "{err}");
        assert!(epoch.post(1, 1, [0; 5], &[m; 3]).is_err());
        for bad in [&[m; 2][..], &[m; 4][..], &[][..]] {
            let err = epoch.post(0, 1, [0; 5], bad).unwrap_err();
            assert!(err.contains("min_out") && err.contains("3-node"), "{err}");
        }
        assert_eq!(epoch.post(2, 1, [300, 3, 1, 1, 8], &[700, m, m]), Ok(None));
        let folded = epoch.post(0, 1, [m, 1, 0, 0, 6], &[m, 900, m]).unwrap().expect("third post completes the round");
        assert_eq!(folded, vec![[700, 1, 0, 0, 6], [400, 2, 0, 0, 7], [250, 3, 1, 1, 8]]);
        // The accumulator starts over: round 1 is history, round 2 is clean.
        assert!(epoch.post(0, 1, [0; 5], &[m; 3]).is_err());
        assert_eq!(epoch.post(0, 2, [5, 0, 0, 0, 0], &[m; 3]), Ok(None));
        assert_eq!(epoch.post(1, 2, [m, 0, 0, 0, 0], &[m; 3]), Ok(None));
        let folded = epoch.post(2, 2, [m, 0, 0, 0, 0], &[m; 3]).unwrap().unwrap();
        assert_eq!(folded, vec![[5, 0, 0, 0, 0], [m, 0, 0, 0, 0], [m, 0, 0, 0, 0]]);
    }

    /// A worker takes exactly `n` slots for the round it posted, or fails
    /// loudly — never a silent zip-truncation.
    #[test]
    fn worker_refuses_slots_of_the_wrong_shape() {
        let mut out = [EpochSlot::IDLE; 2];
        let slots = |round, k: usize| Envelope::Slots { round, slots: vec![[9, 1, 2, 3, 4]; k] };
        assert_eq!(unpack_slots(slots(4, 2), 4, &mut out), Ok(()));
        assert_eq!(out, [EpochSlot { next_event: 9, live: 1, spawns_sent: 2, spawns_recv: 3, ops: 4 }; 2]);
        for bad in [slots(4, 1), slots(4, 3), slots(5, 2), Envelope::Shutdown] {
            let mut out = [EpochSlot::IDLE; 2];
            assert!(unpack_slots(bad, 4, &mut out).is_err());
            assert_eq!(out, [EpochSlot::IDLE; 2], "a refused envelope must not be half-applied");
        }
    }
}
