//! Per-layer probes: each times one layer's public functions from outside,
//! with the other layers absent (interpreter on a no-DSM VM, two `DsmNode`s
//! wired back to back, a bare channel mesh, a bare localhost socket pair).
//! The unit costs they return are what the ledger multiplies counts by.

use crate::kernels;
use crate::run::{timed, Rep};
use crate::stats::median;
use crate::workloads::{ray_params, series_params, tsp_params, App, Scale};
use jsplit_apps::micro::{self, AccessSpec};
use jsplit_apps::{raytracer, series, tsp};
use jsplit_dsm::node::{AccessOutcome, LockOutcome};
use jsplit_dsm::protocol::Requirement;
use jsplit_dsm::{diff, Action, DsmConfig, DsmNode, LockRequest, Msg, WaitEntry, WireState};
use jsplit_mjvm::builder::ProgramBuilder;
use jsplit_mjvm::class::Program;
use jsplit_mjvm::classfile_io::{decode_program, encode_program};
use jsplit_mjvm::cost::JvmProfile;
use jsplit_mjvm::heap::{Gid, ThreadUid};
use jsplit_mjvm::verifier::{verify_program, VerifyOptions};
use jsplit_mjvm::{
    pcode, AccessKind, ClassId, Heap, Image, LocalVm, ObjPayload, ObjRef, Ty, Value,
};
use jsplit_net::tcp::{
    encode_envelope, read_envelope, write_data, Envelope, EnvelopeDecoder, TcpFrameLink,
};
use jsplit_net::{ChannelEndpoint, Frame, FrameLink, MsgKind, Network};
use jsplit_runtime::driver::link_params;
use jsplit_runtime::{Backend, ClusterConfig, MetricsConfig, NodeSpec, SyncMode};
use jsplit_trace::TraceMode;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Named numbers, in the order they were measured.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// How much time the probes may take.
#[derive(Debug, Clone, Copy)]
pub struct ProbeBudget {
    /// Wall-clock budget of each microbenchmark loop.
    pub micro: Duration,
    /// Input scale of the probes that run whole programs.
    pub scale: Scale,
}

impl ProbeBudget {
    pub fn of(scale: Scale) -> ProbeBudget {
        ProbeBudget {
            micro: Duration::from_millis(if scale == Scale::Full { 60 } else { 8 }),
            scale,
        }
    }

    fn reps(&self, full: usize) -> usize {
        if self.scale == Scale::Full {
            full
        } else {
            1
        }
    }
}

/// Median nanoseconds per call of `f`, over batches that fill `budget`.
/// Batches are sized to ~200 µs from one calibration call, so the clock is
/// read rarely and a preemption spoils one batch, not the result.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1) as f64;
    let batch = ((200_000.0 / one) as usize).clamp(1, 1 << 20);
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        if Instant::now() >= deadline {
            return median(&samples);
        }
    }
}

// ---------------------------------------------------------------------
// mjvm
// ---------------------------------------------------------------------

/// The program each interpreter probe runs on `LocalVm`: a paper app at a
/// size that takes ~0.1–0.2 s, large enough that ns/op has settled.
fn interp_program(app: App, scale: Scale) -> Program {
    match (app, scale) {
        (App::Tsp, Scale::Full) => tsp::program(tsp::TspParams {
            n: 11,
            ..tsp_params(42, Scale::Full)
        }),
        (App::Series, Scale::Full) => series::program(series::SeriesParams {
            n: 64,
            intervals: 2000,
            threads: 16,
        }),
        (App::Raytracer, Scale::Full) => raytracer::program(raytracer::RayParams {
            size: 120,
            ..ray_params(Scale::Full)
        }),
        (App::Tsp, Scale::Smoke) => tsp::program(tsp_params(42, Scale::Smoke)),
        (App::Series, Scale::Smoke) => series::program(series::SeriesParams {
            n: 16,
            intervals: 200,
            threads: 16,
        }),
        (App::Raytracer, Scale::Smoke) => raytracer::program(ray_params(Scale::Smoke)),
    }
}

/// Host ns per retired instruction of the original (unrewritten) program on
/// the single-node VM: the interpreter with no DSM, no net, no scheduler.
fn interp_ns_per_op(program: &Program, classic: bool, reps: usize) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..reps {
        let mut vm = LocalVm::new(program, JvmProfile::SunSim.cost_model())
            .map_err(|e| format!("LocalVm load: {e:?}"))?;
        vm.classic_interp = classic;
        let t = Instant::now();
        let r = vm.run();
        let ns = t.elapsed().as_nanos() as f64;
        if !r.errors.is_empty() || r.deadlocked || r.ops == 0 {
            return Err(format!("LocalVm run failed: {:?}", r.errors));
        }
        samples.push(ns / r.ops as f64);
    }
    Ok(median(&samples))
}

fn mjvm_probes(b: &ProbeBudget, m: &mut Metrics) -> Result<(), String> {
    for app in App::ALL {
        let p = interp_program(app, b.scale);
        m.put(
            format!("mjvm.interp.ns_per_op.{}", app.name()),
            interp_ns_per_op(&p, false, b.reps(3))?,
        );
    }
    let ray = interp_program(App::Raytracer, b.scale);
    m.put(
        "mjvm.interp_classic.ns_per_op.raytracer",
        interp_ns_per_op(&ray, true, b.reps(2))?,
    );

    // The set-up pipeline, stage by stage, on the rewritten tsp program.
    let original = tsp::program(tsp_params(42, Scale::Full));
    let rw = jsplit_rewriter::rewrite_program(&original).map_err(|e| format!("rewrite: {e}"))?;
    m.put(
        "rewriter.rewrite_us",
        ns_per_call(b.micro, || {
            drop(black_box(jsplit_rewriter::rewrite_program(&original)))
        }) / 1e3,
    );
    m.put(
        "rewriter.growth",
        rw.stats.code_size_after as f64 / rw.stats.code_size_before as f64,
    );
    m.put(
        "rewriter.checks_inserted",
        (rw.stats.checks_read + rw.stats.checks_write) as f64,
    );
    m.put(
        "mjvm.verify_us",
        ns_per_call(b.micro, || {
            drop(black_box(verify_program(
                &rw.program,
                VerifyOptions::REWRITTEN,
            )))
        }) / 1e3,
    );
    m.put(
        "mjvm.load_us",
        ns_per_call(b.micro, || drop(black_box(Image::load(&rw.program)))) / 1e3,
    );
    let image = Image::load(&rw.program).map_err(|e| format!("load: {e:?}"))?;
    let model = JvmProfile::SunSim.cost_model();
    m.put(
        "mjvm.predecode_us",
        ns_per_call(b.micro, || drop(black_box(pcode::predecode(&image, model)))) / 1e3,
    );
    let bytes = encode_program(&rw.program);
    m.put(
        "mjvm.classfile.encode_ns_per_byte",
        ns_per_call(b.micro, || drop(black_box(encode_program(&rw.program)))) / bytes.len() as f64,
    );
    m.put(
        "mjvm.classfile.decode_ns_per_byte",
        ns_per_call(b.micro, || drop(black_box(decode_program(&bytes)))) / bytes.len() as f64,
    );
    Ok(())
}

// ---------------------------------------------------------------------
// dsm
// ---------------------------------------------------------------------

/// Two `DsmNode`s wired back to back: independent heaps, one image, and a
/// synchronous pump in place of the runtime — no interpreter, no network,
/// no codec (messages cross as values).
struct DsmPair {
    image: Image,
    heaps: [Heap; 2],
    nodes: [DsmNode; 2],
    delivered: u64,
}

const BOX_CLASS: &str = "Box";

impl DsmPair {
    fn new() -> Result<DsmPair, String> {
        let mut pb = ProgramBuilder::new("M");
        pb.class(BOX_CLASS, "java.lang.Object", |cb| {
            cb.field("a", Ty::I32).field("b", Ty::I32);
        });
        pb.class("M", "java.lang.Object", |cb| {
            cb.static_method("main", &[], None, |m| {
                m.ret();
            });
        });
        let image = Image::load(&pb.build_with_stdlib()).map_err(|e| format!("load: {e:?}"))?;
        let heap = || {
            let mut h = Heap::new();
            h.init_statics(&image);
            h
        };
        let heaps = [heap(), heap()];
        let nodes = [
            DsmNode::new(0, DsmConfig::default()),
            DsmNode::new(1, DsmConfig::default()),
        ];
        Ok(DsmPair {
            image,
            heaps,
            nodes,
            delivered: 0,
        })
    }

    fn box_class(&self) -> ClassId {
        self.image.class_id(BOX_CLASS).expect("Box was just built")
    }

    /// A shared `Box` homed at node 0 and its cached placeholder at node 1.
    fn shared_box(&mut self) -> [ObjRef; 2] {
        let class = self.box_class();
        let zeros = self.image.class(class).zeroed_fields();
        let master = self.heaps[0].alloc_object(class, zeros.len(), zeros);
        let gid = self.nodes[0].share_object(&mut self.heaps[0], master);
        let cached = self.nodes[1].ensure_cached(&mut self.heaps[1], &self.image, gid, class);
        [master, cached]
    }

    /// Deliver until quiet; returns how many messages moved.
    fn pump(&mut self) -> u64 {
        let before = self.delivered;
        loop {
            let mut any = false;
            for i in 0..2 {
                for action in self.nodes[i].drain_actions() {
                    any = true;
                    if let Action::Send { dst, msg } = action {
                        self.delivered += 1;
                        let d = dst as usize;
                        self.nodes[d].handle(&mut self.heaps[d], &self.image, msg);
                    }
                }
            }
            if !any {
                return self.delivered - before;
            }
        }
    }

    /// Lock, increment field `a`, unlock — on node `x`. Everything the
    /// interpreter would ask of the DSM for one `synchronized` increment.
    fn critical_section(&mut self, x: usize, obj: ObjRef) -> Result<i32, String> {
        let thread = x as ThreadUid + 1;
        while self.nodes[x].monitor_enter(&mut self.heaps[x], thread, 5, obj)
            == LockOutcome::Blocked
        {
            if self.pump() == 0 {
                return Err("dsm pair: lock request made no progress".into());
            }
        }
        while self.nodes[x].check_write(&mut self.heaps[x], thread, obj, None)
            == AccessOutcome::Miss
        {
            if self.pump() == 0 {
                return Err("dsm pair: fetch made no progress".into());
            }
        }
        let ObjPayload::Fields(fields) = &mut self.heaps[x].get_mut(obj).payload else {
            return Err("dsm pair: Box has no fields".into());
        };
        let v = fields[0].as_i32() + 1;
        fields[0] = Value::I32(v);
        self.nodes[x]
            .monitor_exit(&mut self.heaps[x], thread, obj)
            .map_err(|e| e.0.to_string())?;
        self.pump();
        Ok(v)
    }
}

/// A lock hand-off tape: the two nodes alternate critical sections on one
/// shared object, so every section is a remote acquire, a fetch, a diff
/// flush and its ack. Host ns per protocol message, everything the DSM does
/// for it included.
fn dsm_handle_ns_per_msg(budget: Duration) -> Result<f64, String> {
    let mut pair = DsmPair::new()?;
    let objs = pair.shared_box();
    let deadline = Instant::now() + budget;
    let mut sections = 0i32;
    let mut last = 0;
    let t = Instant::now();
    while Instant::now() < deadline {
        for _ in 0..64 {
            let x = (sections % 2) as usize;
            last = pair.critical_section(x, objs[x])?;
            sections += 1;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    if last != sections {
        return Err(format!(
            "dsm pair: {sections} increments left the counter at {last}"
        ));
    }
    Ok(ns / pair.delivered as f64)
}

/// `check_read` / `check_write` on a valid shared object: the hit path.
fn dsm_check_hit_ns(budget: Duration) -> Result<f64, String> {
    let mut pair = DsmPair::new()?;
    let [obj, _] = pair.shared_box();
    let (node, heap) = (&mut pair.nodes[0], &mut pair.heaps[0]);
    let mut misses = 0u32;
    let ns = ns_per_call(budget, || {
        misses += (node.check_read(heap, 1, obj, None) != AccessOutcome::Hit) as u32;
        misses += (node.check_write(heap, 1, obj, None) != AccessOutcome::Hit) as u32;
    });
    if misses > 0 {
        return Err(format!(
            "check-hit probe missed {misses} times on a home copy"
        ));
    }
    Ok(ns / 2.0)
}

/// The Table-1 difference method as a cross-check of [`dsm_check_hit_ns`]:
/// the field-read kernel rewritten on a 1-node cluster minus the original
/// on `LocalVm`, per access. This is the interpreter's inlined check, not
/// the `DsmNode` call, so the two need not agree; a large gap says the
/// inlining matters.
fn dsm_check_hit_kernel_ns(b: &ProbeBudget) -> Result<f64, String> {
    let iters = if b.scale == Scale::Full {
        100_000
    } else {
        5_000
    };
    let spec = AccessSpec {
        kind: AccessKind::Field,
        write: false,
    };
    let program = micro::access_kernel(spec, iters);
    let accesses = (iters as usize * micro::UNROLL) as f64;
    let mut diffs = Vec::new();
    for _ in 0..b.reps(3) {
        let vm = LocalVm::new(&program, JvmProfile::SunSim.cost_model())
            .map_err(|e| format!("{e:?}"))?;
        let t = Instant::now();
        let r = vm.run();
        let original_ns = t.elapsed().as_nanos() as f64;
        let expect: i64 = r
            .output
            .first()
            .and_then(|s| s.parse().ok())
            .ok_or("access kernel printed nothing")?;
        let prepared =
            crate::run::Prepared::new(ClusterConfig::javasplit(JvmProfile::SunSim, 1), &program)
                .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let report = prepared.run().map_err(|e| e.to_string())?;
        let rewritten_ns = t.elapsed().as_nanos() as f64;
        if report.output != [expect.to_string()] {
            return Err(format!(
                "access kernel: cluster printed {:?}, LocalVm {expect}",
                report.output
            ));
        }
        diffs.push((rewritten_ns - original_ns) / accesses);
    }
    Ok(median(&diffs))
}

/// One message of each shape that dominates some workload's traffic.
fn sample_msgs() -> [(&'static str, Msg); 4] {
    let lock = Gid::new(0, 7);
    [
        (
            "lock_req",
            Msg::LockReq {
                lock,
                node: 1,
                thread: 3,
                priority: 5,
                vc: Vec::new(),
            },
        ),
        (
            "grant",
            Msg::LockGrant {
                lock,
                to_thread: 3,
                resume_wait: false,
                saved_count: 0,
                request_q: (0..2)
                    .map(|i| LockRequest {
                        node: i,
                        thread: 10 + i as u32,
                        priority: 5,
                        resume_wait: false,
                        saved_count: 0,
                        vc: Vec::new(),
                    })
                    .collect(),
                wait_q: vec![WaitEntry {
                    node: 1,
                    thread: 4,
                    priority: 5,
                    saved_count: 1,
                }],
                notices: (0..8)
                    .map(|i| {
                        (
                            Gid::new(0, 100 + i),
                            Requirement {
                                scalar: i as u32 + 1,
                                vector: Default::default(),
                            },
                        )
                    })
                    .collect(),
                vc: Vec::new(),
            },
        ),
        (
            "diff",
            Msg::DiffFlush {
                gid: lock,
                entries: (0..16)
                    .map(|i| (i * 3, jsplit_dsm::protocol::WVal::I32(i as i32)))
                    .collect(),
                node: 1,
                interval: 9,
                want_ack: true,
            },
        ),
        (
            "fetch_reply",
            Msg::ObjState {
                gid: lock,
                class: 12,
                state: WireState::ArrI32((0..1024).collect()),
                version: 4,
                applied: Vec::new(),
                to_thread: 3,
                offset: 0,
                chunk_info: None,
            },
        ),
    ]
}

fn dsm_codec_probes(budget: Duration, m: &mut Metrics) -> Result<(), String> {
    for (name, msg) in sample_msgs() {
        let bytes = msg.encode();
        if Msg::decode(bytes.clone()).as_ref() != Ok(&msg) {
            return Err(format!("{name}: wire round trip changed the message"));
        }
        m.put(
            format!("dsm.msg.encode_ns.{name}"),
            ns_per_call(budget, || drop(black_box(msg.encode()))),
        );
        m.put(
            format!("dsm.msg.decode_ns.{name}"),
            ns_per_call(budget, || drop(black_box(Msg::decode(bytes.clone())))),
        );
        m.put(format!("dsm.msg.bytes.{name}"), bytes.len() as f64);
    }
    Ok(())
}

/// Twin/diff on a 64 K-element `int[]` with 1 %, 50 % and 100 % of the
/// elements changed. `compute` is priced per element scanned, `apply` per
/// entry written.
fn dsm_diff_probes(budget: Duration, m: &mut Metrics) -> Result<(), String> {
    const LEN: usize = 64 * 1024;
    let twin = ObjPayload::ArrI32(vec![0; LEN]);
    for (label, every) in [("d1", 100), ("d50", 2), ("d100", 1)] {
        let current = ObjPayload::ArrI32(
            (0..LEN)
                .map(|i| if i % every == 0 { i as i32 + 1 } else { 0 })
                .collect(),
        );
        let d = diff::compute(&twin, &current);
        let mut rebuilt = twin.clone();
        diff::apply(&mut rebuilt, &d.entries);
        if rebuilt != current || d.len() != LEN.div_ceil(every) {
            return Err(format!(
                "diff probe {label}: apply(compute) did not rebuild the payload"
            ));
        }
        m.put(
            format!("dsm.diff.compute_ns_per_elem.{label}"),
            ns_per_call(budget, || drop(black_box(diff::compute(&twin, &current)))) / LEN as f64,
        );
        m.put(
            format!("dsm.diff.apply_ns_per_elem.{label}"),
            ns_per_call(budget, || diff::apply(black_box(&mut rebuilt), &d.entries))
                / d.len() as f64,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// net
// ---------------------------------------------------------------------

/// The simulated network's whole job per message: latency model, FIFO
/// slot, statistics.
fn net_sim_send_ns(budget: Duration) -> f64 {
    let mut net = Network::new(vec![link_params(NodeSpec::sun()); 8]);
    let mut i = 0u64;
    ns_per_call(budget, || {
        i += 1;
        let (src, dst) = ((i % 8) as u16, ((i / 8 + 1 + i) % 8) as u16);
        black_box(net.send(i * 1000, src, dst, 48, MsgKind::LockReq));
    })
}

const PING_BYTES: usize = 32;

/// One-way latency of the in-process channel fabric: a record is
/// transmitted and flushed on one thread, drained on another and sent
/// back. Half the round trip.
fn net_channel_hop_us(budget: Duration) -> Result<f64, String> {
    let mut mesh = ChannelEndpoint::mesh(&[link_params(NodeSpec::sun()); 2], true);
    let mut far = mesh.pop().expect("two endpoints");
    let mut near = mesh.pop().expect("two endpoints");
    let ping = |ep: &mut ChannelEndpoint, dst: u16, kind: MsgKind, at: u64| {
        ep.transmit(at, at, dst, kind, &mut |w| {
            for _ in 0..PING_BYTES / 8 {
                w.u64(at);
            }
        });
        ep.flush();
    };
    // Block for the next frame, then count the records in it. `Control`
    // is the stop signal.
    let recv = |ep: &mut ChannelEndpoint| -> Result<(u32, bool), String> {
        if !ep.wait_inbound(Duration::from_secs(5)) {
            return Err("channel hop probe: peer went silent".into());
        }
        let (mut n, mut stop) = (0, false);
        ep.drain_frames(&mut |_, kind, _, _, _, _| {
            n += 1;
            stop |= kind == MsgKind::Control;
        });
        Ok((n, stop))
    };
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), String> {
            let mut at = 0;
            loop {
                let (n, stop) = recv(&mut far)?;
                if stop {
                    return Ok(());
                }
                for _ in 0..n {
                    at += 1;
                    ping(&mut far, 0, MsgKind::LockGrant, at);
                }
            }
        });
        let deadline = Instant::now() + budget;
        let mut rtts = Vec::new();
        let mut at = 0;
        let mut result = Ok(());
        while Instant::now() < deadline && result.is_ok() {
            at += 1;
            let t = Instant::now();
            ping(&mut near, 1, MsgKind::LockReq, at);
            result = recv(&mut near).map(|_| ());
            rtts.push(t.elapsed().as_nanos() as f64);
        }
        ping(&mut near, 1, MsgKind::Control, at + 1);
        let echoed = echo
            .join()
            .map_err(|_| "channel hop probe: echo thread panicked".to_string())?;
        result.and(echoed)?;
        Ok(median(&rtts) / 2.0 / 1e3)
    })
}

/// One-way latency of a `TcpFrameLink` over a localhost socket pair with
/// `TCP_NODELAY`, as the sockets backend sets it: ship a frame as a `Data`
/// envelope, the far side reads it and writes it back. Half the round trip.
fn net_tcp_hop_us(budget: Duration) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("tcp hop probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let near = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (mut far, _) = listener.accept().map_err(io)?;
    near.set_nodelay(true).map_err(io)?;
    far.set_nodelay(true).map_err(io)?;
    let (pool_tx, pool_rx) = std::sync::mpsc::channel();
    let mut link = TcpFrameLink::new(near.try_clone().map_err(io)?, pool_tx);
    let mut near = near;
    std::thread::scope(|s| {
        // An empty frame is the stop signal.
        let echo = s.spawn(move || -> std::io::Result<()> {
            loop {
                match read_envelope(&mut far)? {
                    Envelope::Data { frame, .. } if frame.is_empty() => return Ok(()),
                    Envelope::Data { src, dst, frame } => write_data(&mut far, dst, src, &frame)?,
                    other => {
                        return Err(std::io::Error::other(format!(
                            "unexpected envelope {other:?}"
                        )))
                    }
                }
            }
        });
        let deadline = Instant::now() + budget;
        let mut rtts = Vec::new();
        let mut result = Ok(());
        while Instant::now() < deadline && result.is_ok() {
            let mut buf: Vec<u8> = pool_rx.try_recv().unwrap_or_default();
            buf.resize(PING_BYTES, 0xAB);
            let t = Instant::now();
            link.ship(1, Frame { src: 0, buf });
            result = read_envelope(&mut near).map(|_| ());
            rtts.push(t.elapsed().as_nanos() as f64);
        }
        link.ship(
            1,
            Frame {
                src: 0,
                buf: Vec::new(),
            },
        );
        let echoed = echo
            .join()
            .map_err(|_| "tcp hop probe: echo thread panicked".to_string())?;
        result.and(echoed).map_err(io)?;
        Ok(median(&rtts) / 2.0 / 1e3)
    })
}

fn net_probes(budget: Duration, m: &mut Metrics) -> Result<(), String> {
    m.put("net.sim.send_ns", net_sim_send_ns(budget));
    m.put("net.channel.hop_us", net_channel_hop_us(budget)?);
    m.put("net.tcp.hop_us", net_tcp_hop_us(budget)?);
    let env = Envelope::Data {
        src: 0,
        dst: 1,
        frame: vec![0xAB; 256],
    };
    let bytes = encode_envelope(&env);
    m.put(
        "net.tcp.envelope_encode_ns",
        ns_per_call(budget, || drop(black_box(encode_envelope(&env)))),
    );
    let mut dec = EnvelopeDecoder::new();
    let mut bad = 0u32;
    m.put(
        "net.tcp.envelope_decode_ns",
        ns_per_call(budget, || {
            dec.push(&bytes);
            bad += !matches!(dec.next(), Ok(Some(_))) as u32;
        }),
    );
    if bad > 0 {
        return Err(format!(
            "envelope decode probe: {bad} envelopes did not decode"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// runtime
// ---------------------------------------------------------------------

const LIVE: [(&str, Backend); 2] = [("threads", Backend::Threads), ("sockets", Backend::Sockets)];
const SYNCS: [(&str, SyncMode); 2] = [("epoch", SyncMode::Epoch), ("async", SyncMode::Async)];

fn two_nodes(backend: Backend, sync: SyncMode) -> ClusterConfig {
    ClusterConfig::javasplit(JvmProfile::SunSim, 2)
        .with_backend(backend)
        .with_sync(sync)
}

fn ok(rep: Rep, what: &str) -> Result<Rep, String> {
    match &rep.failure {
        Some(f) => Err(format!("{what}: {f}")),
        None => Ok(rep),
    }
}

fn runtime_probes(b: &ProbeBudget, m: &mut Metrics) -> Result<(), String> {
    let full = b.scale == Scale::Full;

    // Sync-round cost on the cross product the seven workloads do not
    // span: the ping-pong kernel on both live backends under both modes.
    let rounds = if full { 300 } else { 60 };
    let expect = kernels::pingpong_reference(rounds, 0);
    for (bname, backend) in LIVE {
        for (sname, sync) in SYNCS {
            let rep = ok(
                timed(
                    two_nodes(backend, sync),
                    || kernels::pingpong_program(rounds, 0),
                    expect,
                ),
                "sync round probe",
            )?;
            m.put(
                format!("runtime.sync.round_us.{bname}.{sname}"),
                (rep.wall_s - rep.setup_s) * 1e6 / rounds as f64,
            );
        }
    }

    // Whole apps on both live backends under both modes, one run each, at a
    // quarter of the workloads' work.
    let sp = if full {
        series::SeriesParams {
            n: 128,
            intervals: 2000,
            threads: 16,
        }
    } else {
        series_params(Scale::Smoke)
    };
    let rp = if full {
        raytracer::RayParams {
            size: 180,
            ..ray_params(Scale::Full)
        }
    } else {
        ray_params(Scale::Smoke)
    };
    let series_expect = kernels::series_reference(sp.n, sp.intervals);
    let ray_expect = raytracer::reference_checksum(&rp);
    for (bname, backend) in LIVE {
        for (sname, sync) in SYNCS {
            let rep = ok(
                timed(
                    two_nodes(backend, sync),
                    || series::program(sp),
                    series_expect,
                ),
                "live series probe",
            )?;
            m.put(
                format!("runtime.live.wall_s.series.{bname}.{sname}"),
                rep.wall_s,
            );
            let rep = ok(
                timed(
                    two_nodes(backend, sync),
                    || raytracer::program(rp),
                    ray_expect,
                ),
                "live raytracer probe",
            )?;
            m.put(
                format!("runtime.live.wall_s.raytracer.{bname}.{sname}"),
                rep.wall_s,
            );
        }
    }

    // What spawning two worker processes and shaking hands costs: the
    // empty kernel on sockets minus the same on sim.
    let mut startup = Vec::new();
    for _ in 0..b.reps(3) {
        let sockets = ok(
            timed(
                two_nodes(Backend::Sockets, SyncMode::Epoch),
                || micro::empty_kernel(1),
                0,
            ),
            "sockets startup probe",
        )?;
        let sim = ok(
            timed(
                two_nodes(Backend::Sim, SyncMode::Epoch),
                || micro::empty_kernel(1),
                0,
            ),
            "sockets startup probe (sim)",
        )?;
        startup.push((sockets.wall_s - sim.wall_s) * 1e3);
    }
    m.put("runtime.sockets.startup_ms", median(&startup));

    // On-cost of each observability switch: tsp at test scale with one
    // switch on, over the same run with all off.
    let tp = tsp_params(42, Scale::Smoke);
    let tsp_expect = tsp::solve_reference(&tp) as i64;
    let reps = b.reps(5);
    let wall = |config: ClusterConfig| -> Result<f64, String> {
        let mut walls = Vec::new();
        for _ in 0..reps {
            walls.push(
                ok(
                    timed(config.clone(), || tsp::program(tp), tsp_expect),
                    "observability on-cost probe",
                )?
                .wall_s,
            );
        }
        Ok(median(&walls))
    };
    let sim8 = ClusterConfig::javasplit(JvmProfile::SunSim, 8);
    let base = wall(sim8.clone())?;
    m.put(
        "trace.full_overhead_ratio",
        wall(sim8.clone().with_trace(TraceMode::Full))? / base,
    );
    m.put(
        "trace.objprof_overhead_ratio",
        wall(sim8.clone().with_objprof(true))? / base,
    );
    m.put(
        "trace.metrics_overhead_ratio",
        wall(sim8.with_metrics(MetricsConfig::default()))? / base,
    );
    // The span profiler exists on the threads backend only.
    let threads2 = two_nodes(Backend::Threads, SyncMode::Epoch);
    m.put(
        "trace.wallprofile_overhead_ratio",
        wall(threads2.clone().with_profile(true))? / wall(threads2)?,
    );
    Ok(())
}

/// Every workload-independent per-layer number.
pub fn run_all(b: &ProbeBudget) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    mjvm_probes(b, &mut m)?;
    m.put("dsm.check_hit_ns", dsm_check_hit_ns(b.micro)?);
    m.put("dsm.check_hit_kernel_ns", dsm_check_hit_kernel_ns(b)?);
    m.put("dsm.handle_ns_per_msg", dsm_handle_ns_per_msg(b.micro)?);
    dsm_codec_probes(b.micro, &mut m)?;
    dsm_diff_probes(b.micro, &mut m)?;
    net_probes(b.micro, &mut m)?;
    runtime_probes(b, &mut m)?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsm_pair_tape_counts_every_increment() {
        let mut pair = DsmPair::new().unwrap();
        let objs = pair.shared_box();
        for i in 0..10 {
            let x = i % 2;
            assert_eq!(pair.critical_section(x, objs[x]).unwrap(), i as i32 + 1);
        }
        assert!(
            pair.delivered >= 10,
            "every hand-off is at least one message, saw {}",
            pair.delivered
        );
    }

    #[test]
    fn sample_messages_round_trip() {
        for (name, msg) in sample_msgs() {
            assert_eq!(Msg::decode(msg.encode()), Ok(msg), "{name}");
        }
    }

    #[test]
    fn ns_per_call_grows_with_the_work() {
        let spin = |n: u64| {
            let mut x = 0u64;
            for i in 0..n {
                x = black_box(x.wrapping_add(i));
            }
            x
        };
        let small = ns_per_call(Duration::from_millis(5), || {
            black_box(spin(100));
        });
        let large = ns_per_call(Duration::from_millis(5), || {
            black_box(spin(10_000));
        });
        assert!(large > small * 10.0, "{small} ns vs {large} ns");
    }
}
