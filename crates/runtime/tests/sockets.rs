//! Sockets-backend differential tests: a real multi-process run over
//! localhost TCP must be observationally equivalent to the reference
//! virtual-time simulator.
//!
//! The sockets backend forks one OS process per node (the `jsplit worker`
//! subcommand), relays every frame through a star coordinator, and drives
//! the same conservative `SyncEngine` as the threads backend — so program
//! stdout, virtual execution time, instruction counts, per-node DSM
//! protocol counters, and per-node network message/byte totals must all
//! match the sim exactly, on all three paper applications, in both
//! protocol modes, under both sync protocols (epoch rounds and the
//! roundless async promises). Only wall-clock, frame and sync counters
//! — *how* the run was orchestrated — may differ.
//!
//! The handshake tests exercise the failure paths end to end: a
//! mismatched dial-in gets an `Envelope::Reject` with a human-readable
//! reason (not a hang, not a panic), and a worker that never appears
//! turns into a `ClusterError::Config` naming the missing node ids.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use jsplit_dsm::ProtocolMode;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_net::tcp::{self, Envelope};
use jsplit_runtime::config::SocketsConfig;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, ClusterConfig, ClusterError, RunReport, SyncMode};

mod common;
use common::{apps, assert_reports_match, sockets_config, spawn_shape_programs, BALANCERS};

fn run_sim(proto: ProtocolMode, nodes: usize, p: &Program) -> RunReport {
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, nodes).with_protocol(proto);
    let r = run_cluster(cfg, p).expect("cluster setup");
    r.expect_clean();
    r
}

fn run_sockets(proto: ProtocolMode, nodes: usize, sync: SyncMode, p: &Program) -> RunReport {
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, nodes)
        .with_protocol(proto)
        .with_backend(Backend::Sockets)
        .with_sync(sync)
        .with_sockets(sockets_config());
    let r = run_cluster(cfg, p).expect("cluster setup");
    r.expect_clean();
    r
}

/// The acceptance matrix: every paper app, both DSM protocols, both sync
/// protocols, 4 worker processes over localhost TCP — bit-identical to
/// the sim.
#[test]
fn sockets_backend_matches_sim_on_all_apps_both_protocols_both_sync_modes() {
    for (app, p) in &apps() {
        for proto in [ProtocolMode::MtsHlrc, ProtocolMode::ClassicHlrc] {
            let sim = run_sim(proto, 4, p);
            for sync in [SyncMode::Epoch, SyncMode::Async] {
                let skt = run_sockets(proto, 4, sync, p);
                assert_reports_match(&format!("{app} ({proto:?}, {sync:?})"), &sim, &skt);
            }
        }
    }
}

/// Multi-wave and nested-spawn programs over real processes: every worker
/// places the threads it starts from its own load estimate, exactly as
/// the sim's nodes do — both stateful balancers, both sync protocols.
#[test]
fn sockets_multi_wave_and_nested_spawns_match_sim_under_both_balancers() {
    for (shape, p) in &spawn_shape_programs() {
        for balancer in BALANCERS {
            let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 3).with_balancer(balancer);
            let sim = run_cluster(cfg.clone(), p).expect("cluster setup");
            sim.expect_clean();
            for sync in [SyncMode::Epoch, SyncMode::Async] {
                let cfg = cfg.clone().with_backend(Backend::Sockets).with_sync(sync).with_sockets(sockets_config());
                let skt = run_cluster(cfg, p).expect("cluster setup");
                skt.expect_clean();
                assert_reports_match(&format!("{shape} ({balancer:?}, {sync:?})"), &sim, &skt);
            }
        }
    }
}

/// Cluster sizes below and above the app's thread count.
#[test]
fn sockets_backend_matches_sim_across_node_counts() {
    let (_, p) = &apps()[0];
    for nodes in [2usize, 8] {
        let sim = run_sim(ProtocolMode::MtsHlrc, nodes, p);
        let skt = run_sockets(ProtocolMode::MtsHlrc, nodes, SyncMode::Epoch, p);
        assert_reports_match(&format!("tsp @ {nodes} nodes"), &sim, &skt);
    }
}

/// Grab a port the OS considers free, then release it for the
/// coordinator to re-bind. (A tiny re-bind race is possible but the test
/// container has no competing listeners.)
fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = l.local_addr().expect("local_addr");
    drop(l);
    addr
}

/// A mismatched dial-in (wrong magic, stale config hash) is answered with
/// `Envelope::Reject` and a clear reason; the coordinator then times out
/// naming every node id that never completed the handshake, with the
/// rejections attached — a `ClusterError::Config`, not a hang or panic.
#[test]
fn coordinator_rejects_mismatched_peers_and_names_missing_workers() {
    let addr = free_addr();
    let (_, p) = &apps()[1];
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 2)
        .with_backend(Backend::Sockets)
        .with_sockets(SocketsConfig {
            listen: Some(addr),
            spawn_workers: false,
            accept_timeout: Duration::from_secs(2),
            ..SocketsConfig::default()
        });
    let prog = p.clone();
    let coord = std::thread::spawn(move || run_cluster(cfg, &prog));

    // Dial in with a wrong magic — must get a Reject, not silence.
    let mut bad_magic = connect_retry(addr);
    tcp::write_envelope(
        &mut bad_magic,
        &Envelope::Hello { magic: 0xDEAD_BEEF, version: tcp::VERSION, node_id: 0, config_hash: 0 },
    )
    .expect("send bad hello");
    bad_magic.flush().expect("flush");
    match tcp::read_envelope(&mut bad_magic).expect("reject envelope") {
        Envelope::Reject { reason } => {
            assert!(reason.contains("magic"), "reason should name the magic mismatch: {reason}")
        }
        other => panic!("expected Reject, got {other:?}"),
    }

    // Dial in with a config hash from some other run — also rejected.
    let mut bad_hash = connect_retry(addr);
    tcp::write_envelope(
        &mut bad_hash,
        &Envelope::Hello { magic: tcp::MAGIC, version: tcp::VERSION, node_id: 0, config_hash: 12345 },
    )
    .expect("send stale hello");
    bad_hash.flush().expect("flush");
    match tcp::read_envelope(&mut bad_hash).expect("reject envelope") {
        Envelope::Reject { reason } => {
            assert!(reason.contains("config"), "reason should name the config mismatch: {reason}")
        }
        other => panic!("expected Reject, got {other:?}"),
    }

    // No real worker ever dials in: the coordinator must give up at its
    // accept deadline with an error naming node ids 0 and 1.
    let err = coord.join().expect("coordinator thread").expect_err("run must fail");
    let ClusterError::Config(msg) = err else { panic!("expected Config error") };
    assert!(msg.contains("never completed the handshake"), "unexpected error: {msg}");
    assert!(msg.contains("0, 1"), "error should name the missing node ids: {msg}");
    assert!(msg.contains("rejected dial-ins"), "error should carry the rejections: {msg}");
}

/// A two-node coordinator with both workers handshaken in by hand (hash
/// 0 = "any config"): the streams to misbehave on, and where the run's
/// result will appear.
fn coordinator_with_hand_driven_workers() -> (Vec<TcpStream>, std::sync::mpsc::Receiver<Result<RunReport, ClusterError>>) {
    let addr = free_addr();
    let (_, p) = &apps()[1];
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 2)
        .with_backend(Backend::Sockets)
        .with_sockets(SocketsConfig {
            listen: Some(addr),
            spawn_workers: false,
            ..SocketsConfig::default()
        });
    let prog = p.clone();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(run_cluster(cfg, &prog));
    });
    let workers = (0..2u16)
        .map(|node_id| {
            let mut s = connect_retry(addr);
            tcp::write_envelope(
                &mut s,
                &Envelope::Hello { magic: tcp::MAGIC, version: tcp::VERSION, node_id, config_hash: 0 },
            )
            .expect("send hello");
            match tcp::read_envelope(&mut s).expect("welcome envelope") {
                Envelope::Welcome { node_id: got, nodes: 2, .. } => assert_eq!(got, node_id),
                other => panic!("expected Welcome, got {other:?}"),
            }
            s
        })
        .collect();
    (workers, done_rx)
}

/// The coordinator's prompt failure after `workers` misbehaved.
fn coordinator_error(done: std::sync::mpsc::Receiver<Result<RunReport, ClusterError>>) -> String {
    let err = done
        .recv_timeout(Duration::from_secs(10))
        .expect("coordinator must fail promptly, not relay and wait")
        .expect_err("outside input the protocol rules out must fail the run");
    let ClusterError::Config(msg) = err else { panic!("expected Config error") };
    msg
}

/// A frame's `src` is peer-claimed, and the receiving engine indexes its
/// channel clocks and event lanes by it: the coordinator must refuse a
/// frame whose `src` is not the stream it arrived on — promptly, with an
/// error naming the worker — instead of relaying it.
#[test]
fn coordinator_rejects_frames_with_a_forged_source() {
    let (mut workers, done) = coordinator_with_hand_driven_workers();
    tcp::write_data(&mut workers[0], 7, 1, &[]).expect("send forged frame");
    let msg = coordinator_error(done);
    assert!(msg.contains("worker 0") && msg.contains("node 7"), "error should name the worker and the claim: {msg}");
}

/// So are a frame's bytes: the receiving engine walks them record by
/// record, so the coordinator refuses — naming the sender — a frame that is
/// not a whole number of well-formed records (here a header cut short, then
/// a payload length that overruns the frame) instead of relaying it for
/// the receiver to trip over.
#[test]
fn coordinator_rejects_malformed_frames() {
    let overrun = {
        let mut header = vec![0u8; 29];
        header[25..29].copy_from_slice(&1000u32.to_le_bytes());
        header
    };
    for frame in [&[0xAB; 10][..], &overrun] {
        let (mut workers, done) = coordinator_with_hand_driven_workers();
        tcp::write_data(&mut workers[0], 0, 1, frame).expect("send malformed frame");
        let msg = coordinator_error(done);
        assert!(
            msg.contains("worker 0") && msg.contains("malformed frame for node 1"),
            "error should name the worker and the fault: {msg}"
        );
    }
}

/// A `Slot` is outside input too: its `min_out` is folded by index and its
/// round selects nothing (one accumulator serves the lockstep run), so a
/// record that is mis-sized or not for the round in flight is refused,
/// naming the worker, instead of being folded into everyone's horizon.
#[test]
fn coordinator_rejects_malformed_slots() {
    let (mut workers, done) = coordinator_with_hand_driven_workers();
    tcp::write_envelope(&mut workers[1], &Envelope::Slot { round: 1, slot: [0; 5], min_out: vec![0; 3] })
        .expect("send mis-sized slot");
    let msg = coordinator_error(done);
    assert!(msg.contains("worker 1") && msg.contains("min_out"), "error should name the worker and the fault: {msg}");

    let (mut workers, done) = coordinator_with_hand_driven_workers();
    tcp::write_envelope(&mut workers[0], &Envelope::Slot { round: 2, slot: [0; 5], min_out: vec![0; 2] })
        .expect("send out-of-round slot");
    let msg = coordinator_error(done);
    assert!(msg.contains("worker 0") && msg.contains("round 2"), "error should name the worker and the round: {msg}");
}

/// A worker that completes the handshake and then closes its socket is a
/// lost peer, not bad configuration: the run fails promptly with
/// `PeerLost` naming it.
#[test]
fn coordinator_reports_a_vanished_worker_as_lost() {
    let (mut workers, done) = coordinator_with_hand_driven_workers();
    drop(workers.remove(0));
    let err = done
        .recv_timeout(Duration::from_secs(10))
        .expect("coordinator must fail promptly")
        .expect_err("a lost worker must fail the run");
    match err {
        ClusterError::PeerLost { node, cause } => assert_eq!(node, 0, "{cause}"),
        other => panic!("expected PeerLost for node 0, got {other:?}"),
    }
    // Worker 1's stream stays open until the verdict is in.
    drop(workers);
}

fn connect_retry(addr: SocketAddr) -> TcpStream {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) if std::time::Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("coordinator never listened on {addr}: {e}"),
        }
    }
}

/// A worker keeps re-dialing with backoff until the coordinator appears
/// (here: a listener bound only after the worker starts), and surfaces a
/// coordinator-side `Reject` as a clear `ClusterError::Config`.
#[test]
fn worker_retries_dial_until_coordinator_appears() {
    let addr = free_addr();
    let worker = std::thread::spawn(move || {
        jsplit_runtime::sockets::run_worker(&addr.to_string(), Some(0), 0, Duration::from_secs(10))
    });
    // Let the first dial attempts fail before anything listens.
    std::thread::sleep(Duration::from_millis(200));
    let listener = TcpListener::bind(addr).expect("bind late");
    let (mut s, _) = listener.accept().expect("worker should still be retrying");
    match tcp::read_envelope(&mut s).expect("hello") {
        Envelope::Hello { magic, version, node_id, .. } => {
            assert_eq!(magic, tcp::MAGIC);
            assert_eq!(version, tcp::VERSION);
            assert_eq!(node_id, 0);
        }
        other => panic!("expected Hello, got {other:?}"),
    }
    tcp::write_envelope(&mut s, &Envelope::Reject { reason: "cluster is full".into() })
        .expect("send reject");
    s.flush().expect("flush");
    let err = worker.join().expect("worker thread").expect_err("worker must fail");
    let ClusterError::Config(msg) = err else { panic!("expected Config error") };
    assert!(msg.contains("cluster is full"), "worker should surface the Reject reason: {msg}");
}

/// A worker whose coordinator never exists gives up within its bounded
/// connect timeout instead of retrying forever.
#[test]
fn worker_dial_gives_up_after_connect_timeout() {
    let addr = free_addr();
    let t0 = std::time::Instant::now();
    let err = jsplit_runtime::sockets::run_worker(
        &addr.to_string(),
        Some(0),
        0,
        Duration::from_millis(300),
    )
    .expect_err("nothing listens there");
    assert!(t0.elapsed() < Duration::from_secs(5), "retry loop must be bounded");
    let ClusterError::Config(msg) = err else { panic!("expected Config error") };
    assert!(msg.contains("cannot reach coordinator"), "unexpected error: {msg}");
}

/// Config surface the sockets driver does not support must be rejected
/// up front with a clear error, not silently ignored.
#[test]
fn sockets_backend_rejects_unsupported_config() {
    let (_, p) = &apps()[1];
    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 2)
        .with_backend(Backend::Sockets)
        .with_joins(vec![(1_000_000, jsplit_runtime::NodeSpec::sun())])
        .with_sockets(sockets_config());
    match run_cluster(cfg, p) {
        Err(ClusterError::Config(msg)) => {
            assert!(msg.contains("join"), "error should mention joins: {msg}")
        }
        other => panic!("expected Config error for joins, got {other:?}"),
    }
}
