//! `jsplit` — run a serialized MJVM program on a simulated JavaSplit cluster.
//!
//! ```text
//! jsplit run prog.mjvm [--nodes N] [--profile sun|ibm] [--baseline]
//!        [--protocol mts|classic] [--chunk ELEMS] [--balancer least|rr|pinned]
//!        [--backend sim|threads|sockets] [--sync epoch|async]
//!        [--trace out.json] [--stats] [--wall-profile] [--objprof]
//!        [--metrics out.jsonl] [--metrics-interval 50ms] [--watchdog 500ms]
//!        [--listen HOST:PORT] [--no-spawn]
//! jsplit worker --connect HOST:PORT [--node-id N] [--connect-timeout SECS]
//! jsplit info prog.mjvm          # class/method/instruction inventory
//! jsplit demo out.mjvm           # write a demo program file to run
//! ```
//!
//! `--backend sockets` runs the cluster as one OS process per node over
//! TCP: by default the coordinator spawns the workers itself on localhost;
//! with `--no-spawn` it prints its address and waits for externally
//! launched `jsplit worker` processes (other terminals, other machines).
//!
//! Program files are produced with
//! [`jsplit_mjvm::classfile_io::encode_program`] — the same bytes the
//! runtime ships to workers at start-up.

use jsplit_dsm::ProtocolMode;
use jsplit_mjvm::classfile_io;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{Backend, Balancer, ClusterConfig, MetricsConfig, SyncMode};
use std::time::Duration;

/// Parse a human duration: a bare number is milliseconds; `us`, `ms` and
/// `s` suffixes are accepted (`50ms`, `250us`, `2s`).
fn parse_duration(s: &str) -> Option<Duration> {
    let (num, scale_us) = if let Some(n) = s.strip_suffix("us") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        (s, 1_000)
    };
    let v: f64 = num.trim().parse().ok()?;
    if !v.is_finite() || v < 0.0 {
        return None;
    }
    Some(Duration::from_micros((v * scale_us as f64).round() as u64))
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  jsplit run <prog.mjvm> [--nodes N] [--profile sun|ibm] [--baseline]\n\
         \x20          [--protocol mts|classic] [--chunk ELEMS] [--balancer least|rr|pinned]\n\
         \x20          [--backend sim|threads|sockets] [--sync epoch|async]\n\
         \x20          [--trace out.json] [--stats] [--wall-profile] [--objprof]\n\
         \x20          [--metrics out.jsonl] [--metrics-interval 50ms] [--watchdog 500ms]\n\
         \x20          [--listen HOST:PORT] [--no-spawn]\n\
         \x20 jsplit worker --connect HOST:PORT [--node-id N] [--connect-timeout SECS]\n\
         \x20 jsplit info <prog.mjvm>\n  jsplit demo <out.mjvm>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => usage(),
    };
    match cmd {
        "run" => cmd_run(rest),
        "worker" => cmd_worker(rest),
        "info" => cmd_info(rest),
        "demo" => cmd_demo(rest),
        _ => usage(),
    }
}

fn cmd_worker(rest: &[String]) {
    if let Err(e) = jsplit_runtime::sockets::worker_main(rest) {
        eprintln!("jsplit worker: {e}");
        std::process::exit(1);
    }
}

fn load_program(path: &str) -> jsplit_mjvm::class::Program {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("jsplit: cannot read {path}: {e}");
        std::process::exit(1);
    });
    classfile_io::decode_program(&bytes).unwrap_or_else(|e| {
        eprintln!("jsplit: {path}: {e}");
        std::process::exit(1);
    })
}

fn cmd_run(rest: &[String]) {
    let Some(path) = rest.first() else { usage() };
    let mut nodes = 4usize;
    let mut profile = JvmProfile::SunSim;
    let mut baseline = false;
    let mut protocol = ProtocolMode::MtsHlrc;
    let mut chunk: Option<u32> = None;
    let mut balancer = Balancer::LeastLoaded;
    let mut trace_path: Option<String> = None;
    let mut stats = false;
    let mut wall_profile = false;
    let mut objprof = false;
    let mut backend = Backend::Sim;
    let mut sync = SyncMode::default();
    let mut metrics_out: Option<String> = None;
    let mut metrics_interval: Option<Duration> = None;
    let mut watchdog: Option<Duration> = None;
    let mut listen: Option<std::net::SocketAddr> = None;
    let mut spawn_workers = true;
    let mut it = rest[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => nodes = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
            "--profile" => {
                profile = match it.next().map(String::as_str) {
                    Some("sun") => JvmProfile::SunSim,
                    Some("ibm") => JvmProfile::IbmSim,
                    _ => usage(),
                }
            }
            "--baseline" => baseline = true,
            "--protocol" => {
                protocol = match it.next().map(String::as_str) {
                    Some("mts") => ProtocolMode::MtsHlrc,
                    Some("classic") => ProtocolMode::ClassicHlrc,
                    _ => usage(),
                }
            }
            "--chunk" => chunk = it.next().and_then(|s| s.parse().ok()),
            "--backend" => {
                backend = match it.next().map(String::as_str) {
                    Some("sim") => Backend::Sim,
                    Some("threads") => Backend::Threads,
                    Some("sockets") => Backend::Sockets,
                    _ => usage(),
                }
            }
            "--listen" => listen = Some(it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())),
            "--no-spawn" => spawn_workers = false,
            "--sync" => {
                sync = match it.next().map(String::as_str) {
                    Some("epoch") => SyncMode::Epoch,
                    Some("async") => SyncMode::Async,
                    _ => usage(),
                }
            }
            "--metrics" => metrics_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--metrics-interval" => {
                metrics_interval =
                    Some(it.next().and_then(|s| parse_duration(s)).unwrap_or_else(|| usage()))
            }
            "--watchdog" => {
                watchdog = Some(it.next().and_then(|s| parse_duration(s)).unwrap_or_else(|| usage()))
            }
            "--trace" => trace_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--stats" => stats = true,
            "--wall-profile" => wall_profile = true,
            "--objprof" => objprof = true,
            "--balancer" => {
                balancer = match it.next().map(String::as_str) {
                    Some("least") => Balancer::LeastLoaded,
                    Some("rr") => Balancer::RoundRobin,
                    Some("pinned") => Balancer::Pinned,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }

    let program = load_program(path);
    let mut cfg = if baseline {
        ClusterConfig::baseline(profile, 2)
    } else {
        ClusterConfig::javasplit(profile, nodes)
    };
    cfg.protocol = protocol;
    cfg.array_chunk = chunk;
    cfg.balancer = balancer;
    cfg.backend = backend;
    cfg.sync = sync;
    cfg.sockets.listen = listen;
    cfg.sockets.spawn_workers = spawn_workers;
    // The sockets backend rejects tracing (per-node buffers would need
    // their own wire format); `--stats` still works there from the
    // aggregate counters alone.
    if trace_path.is_some() || (stats && backend != Backend::Sockets) {
        cfg.trace = Some(jsplit_trace::TraceMode::Full);
    }
    // Any telemetry flag arms the registry + sampler; the watchdog rides on
    // the same sampler thread (threads backend, async sync).
    if metrics_out.is_some() || metrics_interval.is_some() || watchdog.is_some() {
        let mut m = MetricsConfig {
            out: metrics_out.as_ref().map(std::path::PathBuf::from),
            watchdog_budget: watchdog,
            ..MetricsConfig::default()
        };
        if let Some(iv) = metrics_interval {
            m.interval = iv;
        }
        cfg.metrics = Some(m);
    }
    // Wall-clock span profiling is a threads-backend feature; `--stats`
    // there includes the stall table too (cheap: aggregates only).
    cfg.profile = wall_profile || (stats && backend == Backend::Threads);
    // Per-object sharing profiler: works on every backend; the heat table
    // rides the `--stats` summary.
    cfg.objprof = objprof;

    let report = run_cluster(cfg, &program).unwrap_or_else(|e| {
        eprintln!("jsplit: {e}");
        std::process::exit(1);
    });
    for line in &report.output {
        println!("{line}");
    }
    let mode = if baseline { "baseline" } else { "javasplit" };
    let backend_name = match backend {
        Backend::Sim => "sim",
        Backend::Threads => "threads",
        Backend::Sockets => "sockets",
    };
    eprintln!(
        "[jsplit] mode={mode} backend={backend_name} nodes={} profile={} time={:.6}s setup={:.6}s wall={:.3}s threads={} msgs={} bytes={}",
        if baseline { 1 } else { nodes },
        profile.name(),
        report.exec_time_secs(),
        report.setup_ps as f64 / 1e12,
        report.host_wall_secs,
        report.threads,
        report.net_total().msgs_sent,
        report.net_total().bytes_sent,
    );
    if matches!(backend, Backend::Threads | Backend::Sockets) {
        let s = &report.sync;
        eprintln!(
            "[jsplit] sync mode={} windows={} frames={} msgs_batched={} bytes/frame={:.1}",
            if sync == SyncMode::Async { "async" } else { "epoch" },
            s.windows,
            s.frames_sent,
            s.msgs_batched(),
            s.bytes_per_frame_avg(),
        );
        if sync == SyncMode::Async {
            eprintln!(
                "[jsplit] async horizon_advances={} nulls_sent={} nulls_piggybacked={}",
                s.horizon_advances, s.nulls_sent, s.nulls_piggybacked,
            );
        }
    }
    if let Some(t) = &report.telemetry {
        let (p50, p90, p99) = jsplit_runtime::telemetry::lag_percentiles(t);
        eprintln!(
            "[jsplit] telemetry samples={} ops/s peak={:.0} mean={:.0} bytes/s peak={:.0} lag_p50/p90/p99={}/{}/{} ps stalls={}{}",
            t.samples,
            t.peak_ops_per_sec,
            t.mean_ops_per_sec,
            t.peak_bytes_per_sec,
            p50,
            p90,
            p99,
            t.stalls.len(),
            metrics_out.as_deref().map(|p| format!(" -> {p}")).unwrap_or_default(),
        );
    }
    if stats {
        eprint!("{}", report.summary());
    }
    if let Some(out) = trace_path {
        let events = report.trace.as_deref().unwrap_or(&[]);
        // One file, two clock domains: virtual-time lanes per node, plus —
        // on the threads backend — real-time span lanes from the profiler.
        let json = jsplit_trace::chrome_trace_unified(events, report.wall.as_ref());
        std::fs::write(&out, &json).unwrap_or_else(|e| {
            eprintln!("jsplit: cannot write {out}: {e}");
            std::process::exit(1);
        });
        let wall_spans: usize = report.wall.as_ref().map_or(0, |w| w.nodes.iter().map(|n| n.spans.len()).sum());
        eprintln!(
            "[jsplit] wrote {} trace events + {} wall spans ({} B) to {out}",
            events.len(),
            wall_spans,
            json.len()
        );
    }
    if report.deadlocked {
        eprintln!("[jsplit] DEADLOCK: live threads could not make progress");
        std::process::exit(3);
    }
    for (uid, err) in &report.errors {
        eprintln!("[jsplit] thread {uid} trapped: {err}");
    }
    if !report.errors.is_empty() {
        std::process::exit(4);
    }
}

fn cmd_info(rest: &[String]) {
    let Some(path) = rest.first() else { usage() };
    let program = load_program(path);
    println!("main class: {}", program.main_class);
    println!("classes:    {}", program.classes.len());
    println!("instrs:     {}", program.code_size());
    let mut classes: Vec<_> = program.classes.iter().collect();
    classes.sort_by(|a, b| a.name.cmp(&b.name));
    for c in classes {
        let code: usize = c.methods.iter().map(|m| m.code.len()).sum();
        println!(
            "  {:<40} {:>2} fields {:>2} methods {:>5} instrs{}",
            c.name,
            c.fields.len(),
            c.methods.len(),
            code,
            if c.is_bootstrap { "  [bootstrap]" } else { "" }
        );
    }
}

fn cmd_demo(rest: &[String]) {
    let Some(path) = rest.first() else { usage() };
    // The quickstart counter program, persisted as a class-file bundle.
    let program = jsplit_apps::tsp::program(jsplit_apps::tsp::TspParams {
        n: 8,
        seed: 42,
        depth: 2,
        threads: 4,
    });
    let bytes = classfile_io::encode_program(&program);
    std::fs::write(path, &bytes).unwrap_or_else(|e| {
        eprintln!("jsplit: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {} B ({} classes) to {path}", bytes.len(), program.classes.len());
    println!("try:  jsplit run {path} --nodes 4 --profile ibm");
}
