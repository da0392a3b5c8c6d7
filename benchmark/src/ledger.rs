//! The metric registry (what `BENCHMARK.json` declares), one workload's
//! per-layer metrics, and the reconciliation of layer unit costs × counts
//! with the end-to-end wall.

use crate::json::Json;
use crate::probes::Metrics;
use crate::run::{counter_delta, Counters, Rep};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::{App, Workload, WORKLOADS};
use jsplit_dsm::DsmStats;
use jsplit_runtime::Backend;
use jsplit_trace::ALL_SPAN_KINDS;

/// Seconds one contract run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. `virtual_s` and `failed_share` of the
/// issue are not here: both are exact (bound 0, and `failed_share` is 0),
/// which a spread-checked metric cannot be — the modelled time is the
/// per-layer metric `run.virtual_ps`, checked for exact repetition inside
/// every run, and failures are the result line's `failed`/`attempted`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "host_ns_per_op",
        unit: "ns",
        lower_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    // Six of the seven workloads peak below 6 MiB, where allocator-arena
    // luck is worth a few percent; 15 % keeps the measured spread (≤ 4.6 %)
    // under a third of the bound.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.15,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// A deterministic count: two runs of one commit at one seed must
    /// report the same value (`--selfcheck` compares these exactly).
    pub exact: bool,
}

fn layer(name: impl Into<String>, unit: &'static str) -> Layer {
    Layer {
        name: name.into(),
        unit,
        lower_is_better: true,
        exact: false,
    }
}

fn exact(name: impl Into<String>, unit: &'static str) -> Layer {
    Layer {
        exact: true,
        ..layer(name, unit)
    }
}

const SPAN_NAMES: [&str; 8] = [
    "apps.build",
    "mjvm.verify",
    "rewriter.rewrite",
    "mjvm.load",
    "mjvm.predecode",
    "runtime.new",
    "runtime.run",
    "check.reference",
];

fn span_metric(span: &str) -> String {
    format!("span.{}_us", span.replace('.', "_"))
}

/// A `DsmStats` counter by name.
type DsmCount = (&'static str, fn(&DsmStats) -> u64);

const DSM_COUNTS: [DsmCount; 10] = [
    ("promotions", |d| d.promotions),
    ("shared_acquires_remote", |d| d.shared_acquires_remote),
    ("grants_sent", |d| d.grants_sent),
    ("fetches", |d| d.fetches),
    ("diffs_sent", |d| d.diffs_sent),
    ("diff_fields", |d| d.diff_fields),
    ("diffs_applied", |d| d.diffs_applied),
    ("invalidations", |d| d.invalidations),
    ("waits", |d| d.waits),
    ("notifies", |d| d.notifies),
];

const MSG_SHAPES: [&str; 4] = ["lock_req", "grant", "diff", "fetch_reply"];

/// Every per-layer metric, in print order: the workload's own numbers
/// first, then the workload-independent probes.
pub fn per_layer() -> Vec<Layer> {
    let mut v = workload_layers();
    v.extend(probe_layers());
    v
}

/// What a workload's own runs yield: exact counts from its report, span
/// self times and profiler shares from its traced pass, its ledger.
pub fn workload_layers() -> Vec<Layer> {
    let mut v = vec![
        layer("run.wall_s", "s"),
        layer("run.live_over_sim_wall", "ratio"),
        exact("run.ops", "count"),
        exact("run.virtual_ps", "virtual_ps"),
    ];
    v.extend(
        DSM_COUNTS
            .iter()
            .map(|(c, _)| exact(format!("dsm.{c}"), "count")),
    );
    v.push(exact("net.msgs_sent", "count"));
    v.push(exact("net.bytes_sent", "count"));
    // The framing counters are the live backends' own; under async sync
    // they vary by a few percent from run to run.
    for c in [
        "frames_sent",
        "bytes_per_frame",
        "nulls_sent",
        "nulls_piggybacked",
        "counter_delta_vs_sim",
    ] {
        v.push(layer(format!("net.{c}"), "count"));
    }
    v.extend(SPAN_NAMES.iter().map(|s| layer(span_metric(s), "us")));
    v.push(layer("trace.pass_overhead_ratio", "ratio"));
    v.extend(
        ALL_SPAN_KINDS
            .iter()
            .map(|k| layer(format!("runtime.threads.{}_share", k.label()), "share")),
    );
    v.push(Layer {
        name: "ledger.interp_share".into(),
        unit: "share",
        lower_is_better: false,
        exact: false,
    });
    v.push(layer("ledger.residual_share", "share"));
    v.push(layer("runtime.sim.ns_per_msg", "ns"));
    v
}

/// What `probes::run_all` measures: unit costs of single layers, the same
/// whichever workload they are printed beside.
pub fn probe_layers() -> Vec<Layer> {
    let mut v: Vec<Layer> = Vec::new();
    v.extend(
        App::ALL
            .iter()
            .map(|a| layer(format!("mjvm.interp.ns_per_op.{}", a.name()), "ns")),
    );
    v.push(layer("mjvm.interp_classic.ns_per_op.raytracer", "ns"));
    for (n, u) in [
        ("mjvm.verify_us", "us"),
        ("mjvm.load_us", "us"),
        ("mjvm.predecode_us", "us"),
        ("mjvm.classfile.encode_ns_per_byte", "ns/B"),
        ("mjvm.classfile.decode_ns_per_byte", "ns/B"),
        ("rewriter.rewrite_us", "us"),
        ("dsm.check_hit_ns", "ns"),
        ("dsm.check_hit_kernel_ns", "ns"),
        ("dsm.handle_ns_per_msg", "ns"),
    ] {
        v.push(layer(n, u));
    }
    v.push(exact("rewriter.growth", "ratio"));
    v.push(exact("rewriter.checks_inserted", "count"));
    for shape in MSG_SHAPES {
        v.push(layer(format!("dsm.msg.encode_ns.{shape}"), "ns"));
        v.push(layer(format!("dsm.msg.decode_ns.{shape}"), "ns"));
        v.push(exact(format!("dsm.msg.bytes.{shape}"), "B"));
    }
    for dirty in ["d1", "d50", "d100"] {
        v.push(layer(format!("dsm.diff.compute_ns_per_elem.{dirty}"), "ns"));
        v.push(layer(format!("dsm.diff.apply_ns_per_elem.{dirty}"), "ns"));
    }
    for (n, u) in [
        ("net.sim.send_ns", "ns"),
        ("net.channel.hop_us", "us"),
        ("net.tcp.hop_us", "us"),
        ("net.tcp.envelope_encode_ns", "ns"),
        ("net.tcp.envelope_decode_ns", "ns"),
    ] {
        v.push(layer(n, u));
    }
    for backend in ["threads", "sockets"] {
        for sync in ["epoch", "async"] {
            v.push(layer(
                format!("runtime.sync.round_us.{backend}.{sync}"),
                "us",
            ));
        }
    }
    for backend in ["threads", "sockets"] {
        for sync in ["epoch", "async"] {
            for app in ["series", "raytracer"] {
                v.push(layer(
                    format!("runtime.live.wall_s.{app}.{backend}.{sync}"),
                    "s",
                ));
            }
        }
    }
    v.push(layer("runtime.sockets.startup_ms", "ms"));
    for switch in ["full", "objprof", "metrics", "wallprofile"] {
        v.push(layer(format!("trace.{switch}_overhead_ratio"), "ratio"));
    }
    v
}

fn better(lower: bool) -> Json {
    Json::str(if lower { "lower" } else { "higher" })
}

/// The contents of `BENCHMARK.json`, generated so the file cannot drift
/// from what the binary prints (a unit test compares the two).
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(["bash", "benchmark/run.sh"].map(Json::str).to_vec()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.lower_is_better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.clone())),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.lower_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Interpreter ns/op that prices a workload's ops: its own app's probe, or
/// the mean of the three for the kernels.
fn interp_ns(w: &Workload, probes: &Metrics) -> f64 {
    let of = |a: App| {
        probes
            .get(&format!("mjvm.interp.ns_per_op.{}", a.name()))
            .unwrap_or(f64::NAN)
    };
    match w.app {
        Some(a) => of(a),
        None => App::ALL.iter().map(|a| of(*a)).sum::<f64>() / App::ALL.len() as f64,
    }
}

/// Host seconds the probes' unit costs account for in one run: `(interpreter,
/// messages, diffs)`. The codec is priced as a line through the smallest
/// and the largest sample message (ns = a + b·bytes). The sim sizes each
/// message by encoding it and never decodes; live backends do both.
fn explained_s(w: &Workload, c: &Counters, probes: &Metrics) -> (f64, f64, f64) {
    let p = |name: &str| probes.get(name).unwrap_or(f64::NAN);
    let interp = c.ops as f64 * interp_ns(w, probes);
    let line = |dir: &str| {
        let (small, large) = (
            p(&format!("dsm.msg.{dir}_ns.lock_req")),
            p(&format!("dsm.msg.{dir}_ns.fetch_reply")),
        );
        let (small_b, large_b) = (p("dsm.msg.bytes.lock_req"), p("dsm.msg.bytes.fetch_reply"));
        let per_byte = (large - small) / (large_b - small_b);
        let extra_bytes = (c.bytes_sent as f64 - c.msgs_sent as f64 * small_b).max(0.0);
        c.msgs_sent as f64 * small + extra_bytes * per_byte
    };
    let transport = match w.backend {
        Backend::Sim => c.msgs_sent as f64 * p("net.sim.send_ns"),
        Backend::Threads | Backend::Sockets => line("decode"),
    };
    let msgs = c.msgs_sent as f64 * p("dsm.handle_ns_per_msg") + line("encode") + transport;
    let diffs = c.dsm.diff_fields as f64
        * (p("dsm.diff.compute_ns_per_elem.d100") + p("dsm.diff.apply_ns_per_elem.d100"));
    (interp / 1e9, msgs / 1e9, diffs / 1e9)
}

/// One workload's own per-layer numbers (everything in [`per_layer`] that
/// is not a probe), from its untimed-observability repetitions, its traced
/// pass, and — for a live workload — its sim twin.
pub fn workload_metrics(
    w: &Workload,
    untraced: &[Rep],
    traced: &Rep,
    log: &SpanLog,
    sim_twin: Option<&Rep>,
    probes: &Metrics,
) -> Metrics {
    let mut m = Metrics::default();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    let c = untraced
        .iter()
        .find_map(|r| r.counters.clone())
        .unwrap_or_default();
    m.put("run.wall_s", wall_s);
    // A sim workload is its own twin.
    m.put(
        "run.live_over_sim_wall",
        sim_twin.map_or(1.0, |s| wall_s / s.wall_s),
    );
    m.put("run.ops", c.ops as f64);
    m.put("run.virtual_ps", c.virtual_ps as f64);
    for (name, count) in DSM_COUNTS {
        m.put(format!("dsm.{name}"), count(&c.dsm) as f64);
    }
    m.put("net.msgs_sent", c.msgs_sent as f64);
    m.put("net.bytes_sent", c.bytes_sent as f64);
    m.put("net.frames_sent", c.sync.frames_sent as f64);
    m.put("net.bytes_per_frame", c.sync.bytes_per_frame_avg());
    m.put("net.nulls_sent", c.sync.nulls_sent as f64);
    m.put("net.nulls_piggybacked", c.sync.nulls_piggybacked as f64);
    let delta = sim_twin
        .and_then(|s| s.counters.as_ref())
        .map_or(0, |s| counter_delta(&c, s));
    m.put("net.counter_delta_vs_sim", delta as f64);
    for span in SPAN_NAMES {
        m.put(span_metric(span), log.self_time_of(span) as f64 / 1e3);
    }
    m.put("trace.pass_overhead_ratio", traced.wall_s / wall_s);
    let node_wall: u64 = traced
        .wall_profile
        .as_ref()
        .map_or(0, |p| p.nodes.iter().map(|n| n.wall_ns).sum());
    for kind in ALL_SPAN_KINDS {
        let share = match &traced.wall_profile {
            Some(p) if node_wall > 0 => p.total_of(kind) as f64 / node_wall as f64,
            _ => 0.0,
        };
        m.put(format!("runtime.threads.{}_share", kind.label()), share);
    }
    let (interp, msgs, diffs) = explained_s(w, &c, probes);
    m.put("ledger.interp_share", interp / wall_s);
    m.put(
        "ledger.residual_share",
        1.0 - (interp + msgs + diffs) / wall_s,
    );
    // Defined for the single-threaded sim only: on a live backend the nodes'
    // interpreter time overlaps and the difference means nothing.
    let sim_ns_per_msg = if w.is_live() {
        0.0
    } else {
        (wall_s - interp) * 1e9 / c.msgs_sent.max(1) as f64
    };
    m.put("runtime.sim.ns_per_msg", sim_ns_per_msg);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{is_valid_name, parse};

    #[test]
    fn registry_obeys_the_contract_limits() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names: Vec<&str> = layers
            .iter()
            .map(|l| l.name.as_str())
            .chain(END_TO_END.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(is_valid_name(n), "{n}");
        }
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for unit in layers
            .iter()
            .map(|l| l.unit)
            .chain(END_TO_END.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert!(setup.unit == "s" && setup.lower_is_better);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(
            parse(&committed).expect("strict JSON"),
            manifest(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }
}
