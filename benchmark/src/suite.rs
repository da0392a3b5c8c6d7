//! All seven workloads from one process, at one seed: rep-major timed
//! repetitions, then the probes, the traced pass and the ledger. This is
//! the mode a person runs (`benchmark/run.sh`); it prints every metric by
//! name and writes `benchmark/out/results.json`. `--selfcheck` runs the
//! whole set twice and compares the two against the bounds.

use crate::host::{self, cpu_delta, CpuTimes};
use crate::json::{self, is_valid_name, Json};
use crate::ledger::{per_layer, probe_layers, workload_layers, Layer};
use crate::probes::{self, Metrics, ProbeBudget};
use crate::run::{timed_rep, Rep};
use crate::single::{layers, ns_per_op, write_spans, Verdict};
use crate::stats::Summary;
use crate::workloads::{Scale, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteArgs {
    pub seed: u64,
    pub reps: usize,
    pub smoke: bool,
    pub selfcheck: bool,
}

/// One workload's row.
struct Row {
    name: &'static str,
    live: bool,
    wall_s: Summary,
    host_ns_per_op: Summary,
    setup_s: Summary,
    peak_rss_mb: Summary,
    /// `None` if no repetition completed.
    virtual_ps: Option<u64>,
    attempted: u64,
    failed: u64,
    layers: Metrics,
}

impl Row {
    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Set {
    rows: Vec<Row>,
    header: Json,
    correct: bool,
}

fn run_set(args: &SuiteArgs) -> Result<Set, String> {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let cpu_before = CpuTimes::now();
    let expects: Vec<i64> = WORKLOADS
        .iter()
        .map(|w| (w.reference)(args.seed, scale))
        .collect();
    let mut verdicts: Vec<Verdict> = WORKLOADS.iter().map(|_| Verdict::default()).collect();
    let mut reps: Vec<Vec<Rep>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut rss: Vec<Vec<f64>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    // Rep-major, so slow host drift lands on every workload alike. Rep 0
    // warms up and is not timed.
    let rss_resets = host::reset_peak_rss();
    for rep in 0..=args.reps {
        for (i, w) in WORKLOADS.iter().enumerate() {
            host::reset_peak_rss();
            let r = timed_rep(w, args.seed, scale, expects[i]);
            verdicts[i].note(w.name, &r);
            if rep > 0 {
                rss[i].push(host::peak_rss_mb().unwrap_or(f64::NAN));
                reps[i].push(r);
            }
        }
        eprintln!("rep {rep}/{} done", args.reps);
    }
    let probes = probes::run_all(&ProbeBudget::of(scale))?;
    let mut rows = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (layer_metrics, log) =
            layers(w, args.seed, scale, &reps[i], &probes, &mut verdicts[i])?;
        write_spans(&log);
        let of = |f: &dyn Fn(&Rep) -> Option<f64>| {
            Summary::of(&reps[i].iter().filter_map(f).collect::<Vec<_>>())
        };
        rows.push(Row {
            name: w.name,
            live: w.is_live(),
            wall_s: of(&|r| Some(r.wall_s)),
            host_ns_per_op: of(&ns_per_op),
            setup_s: of(&|r| Some(r.setup_s)),
            peak_rss_mb: Summary::of(&rss[i]),
            virtual_ps: reps[i]
                .iter()
                .find_map(|r| r.counters.as_ref().map(|c| c.virtual_ps)),
            attempted: verdicts[i].attempted,
            failed: verdicts[i].failed,
            layers: layer_metrics,
        });
    }
    let cpu = cpu_delta(cpu_before, CpuTimes::now());
    let mut header = host::fingerprint();
    if let Json::Obj(pairs) = &mut header {
        pairs.push((
            "cpu_busy_share".into(),
            cpu.map_or(Json::Null, |c| Json::Num(c.busy_share)),
        ));
        pairs.push((
            "cpu_steal_share".into(),
            cpu.map_or(Json::Null, |c| Json::Num(c.steal_share)),
        ));
        pairs.push(("peak_rss_reset_per_run".into(), Json::Bool(rss_resets)));
        pairs.push(("seed".into(), Json::Num(args.seed as f64)));
        pairs.push(("reps".into(), Json::Num(args.reps as f64)));
        pairs.push(("smoke".into(), Json::Bool(args.smoke)));
    }
    Ok(Set {
        rows,
        header,
        correct: verdicts.iter().all(Verdict::correct),
    })
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("mad", Json::Num(s.mad)),
        ("n", Json::Num(s.n as f64)),
        ("unit", Json::str(unit)),
    ])
}

fn exact_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The probes do not depend on the workload, so the results carry them
/// once, beside the rows, as the printout does.
fn results_json(set: &Set) -> Json {
    let values = |layers: &[Layer], m: &Metrics| {
        Json::Obj(
            layers
                .iter()
                .filter_map(|l| Some((l.name.clone(), exact_json(m.get(&l.name)?, l.unit))))
                .collect(),
        )
    };
    let own = workload_layers();
    let rows = set.rows.iter().map(|r| {
        Json::obj([
            ("name", Json::str(r.name)),
            (
                "end_to_end",
                Json::obj([
                    ("wall_s", summary_json(&r.wall_s, "s")),
                    ("host_ns_per_op", summary_json(&r.host_ns_per_op, "ns")),
                    ("setup_s", summary_json(&r.setup_s, "s")),
                    (
                        "virtual_s",
                        exact_json(r.virtual_ps.map_or(f64::NAN, |ps| ps as f64 / 1e12), "s"),
                    ),
                    ("peak_rss_mb", summary_json(&r.peak_rss_mb, "MiB")),
                    ("failed_share", exact_json(r.failed_share(), "share")),
                ]),
            ),
            ("per_layer", values(&own, &r.layers)),
        ])
    });
    let probes = set
        .rows
        .first()
        .map_or(Json::Null, |r| values(&probe_layers(), &r.layers));
    Json::obj([
        ("host", set.header.clone()),
        ("workloads", Json::Arr(rows.collect())),
        ("probes", probes),
    ])
}

fn print_set(set: &Set) {
    println!("host: {}", set.header.compact());
    println!("\n== end to end (median [q1, q3] unit, n, (q3-q1)/median) ==");
    let cell = |s: &Summary, unit: &str| {
        format!(
            "{:.6} [{:.6}, {:.6}] {unit} n={} spread {:.1} %",
            s.median,
            s.q1,
            s.q3,
            s.n,
            s.spread() * 100.0
        )
    };
    for r in &set.rows {
        println!("{}", r.name);
        println!("  wall_s          {}", cell(&r.wall_s, "s"));
        println!("  host_ns_per_op  {}", cell(&r.host_ns_per_op, "ns"));
        println!("  setup_s         {}", cell(&r.setup_s, "s"));
        println!(
            "  virtual_s       {:.6} s (exact)",
            r.virtual_ps.map_or(f64::NAN, |ps| ps as f64 / 1e12)
        );
        println!("  peak_rss_mb     {}", cell(&r.peak_rss_mb, "MiB"));
        println!(
            "  failed_share    {} ({} of {} runs)",
            r.failed_share(),
            r.failed,
            r.attempted
        );
    }
    let cells = |l: &Layer, rows: &[Row]| {
        print!("{:<46}", format!("{} ({})", l.name, l.unit));
        for r in rows {
            match r.layers.get(&l.name) {
                Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => print!(" {:>14}", v as i64),
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    };
    println!("\n== per layer, by workload ==");
    print!("{:<46}", "metric (unit)");
    for r in &set.rows {
        print!(" {:>14.14}", r.name);
    }
    println!();
    for l in workload_layers() {
        cells(&l, &set.rows);
    }
    // The probes do not depend on the workload: one column.
    println!("\n== per layer, probes ==");
    for l in probe_layers() {
        cells(&l, &set.rows[..1]);
    }
}

/// Every metric of `layers` is in `object` under a legal name with a
/// numeric `value`.
fn number_for_each(object: Option<&Json>, layers: &[Layer], whose: &str) -> Result<(), String> {
    for l in layers {
        if !is_valid_name(&l.name) {
            return Err(format!("illegal metric name {}", l.name));
        }
        let v = object
            .and_then(|o| o.get(&l.name))
            .and_then(|m| m.get("value"));
        if v.and_then(Json::as_f64).is_none() {
            return Err(format!(
                "{whose}: per-layer metric {} is missing or not a number",
                l.name
            ));
        }
    }
    Ok(())
}

/// Check what `results_json` wrote: strict JSON, every workload present,
/// every name legal, every declared per-layer metric a finite number.
fn validate_schema(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let rows = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no workloads array")?;
    if rows.len() != WORKLOADS.len() {
        return Err(format!(
            "{} workloads in the results, {} declared",
            rows.len(),
            WORKLOADS.len()
        ));
    }
    for (row, w) in rows.iter().zip(&WORKLOADS) {
        if row.get("name").and_then(Json::as_str) != Some(w.name) {
            return Err(format!("expected workload {}", w.name));
        }
        for e2e in ["wall_s", "host_ns_per_op", "setup_s", "peak_rss_mb"] {
            let m = row
                .get("end_to_end")
                .and_then(|e| e.get(e2e))
                .ok_or(format!("{}: no {e2e}", w.name))?;
            if !m
                .get("median")
                .and_then(Json::as_f64)
                .is_some_and(|v| v > 0.0)
                || m.get("unit").and_then(Json::as_str).is_none()
            {
                return Err(format!(
                    "{}: {e2e} has no positive median with a unit",
                    w.name
                ));
            }
        }
        number_for_each(row.get("per_layer"), &workload_layers(), w.name)?;
    }
    number_for_each(doc.get("probes"), &probe_layers(), "probes")?;
    Ok(())
}

/// Bound on `wall_s` between two sets of the same commit: the sim
/// workloads are single-threaded and steady, the live ones share two cores
/// with the rest of the host.
fn wall_bound(w_live: bool) -> f64 {
    if w_live {
        0.10
    } else {
        0.05
    }
}

/// Two sets of the same commit compared: `(disagreements, unresolved)`, one
/// line each. A timing whose medians differ by more than its bound is a
/// disagreement — unless either set's own inter-quartile spread is already
/// wider than the bound, in which case the sets cannot resolve a difference
/// that small and the line says so instead of failing.
fn disagreements(a: &Set, b: &Set) -> (Vec<String>, Vec<String>) {
    let mut out = Vec::new();
    let mut unresolved = Vec::new();
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        let mut timing = |what: &str, x: &Summary, y: &Summary, bound: f64, floor: f64| {
            let (lo, hi) = (x.median.min(y.median), x.median.max(y.median));
            if hi - lo <= floor.max(bound * lo) {
                return;
            }
            let line = format!(
                "{} {what}: medians {} vs {} differ by more than {:.0} % (own spreads {:.1} % and {:.1} %)",
                ra.name,
                x.median,
                y.median,
                bound * 100.0,
                x.spread() * 100.0,
                y.spread() * 100.0
            );
            if x.spread().max(y.spread()) > bound {
                unresolved.push(line);
            } else {
                out.push(line);
            }
        };
        timing("wall_s", &ra.wall_s, &rb.wall_s, wall_bound(ra.live), 0.0);
        timing("setup_s", &ra.setup_s, &rb.setup_s, 0.25, 1e-3);
        timing("peak_rss_mb", &ra.peak_rss_mb, &rb.peak_rss_mb, 0.10, 0.0);
        if ra.virtual_ps != rb.virtual_ps {
            out.push(format!(
                "{} virtual_s: {:?} ps vs {:?} ps",
                ra.name, ra.virtual_ps, rb.virtual_ps
            ));
        }
        if (ra.failed, ra.attempted) != (rb.failed, rb.attempted) {
            out.push(format!(
                "{} failed_share: {}/{} vs {}/{}",
                ra.name, ra.failed, ra.attempted, rb.failed, rb.attempted
            ));
        }
        for l in per_layer().iter().filter(|l| l.exact) {
            let (va, vb) = (ra.layers.get(&l.name), rb.layers.get(&l.name));
            if va != vb {
                out.push(format!("{} {}: {va:?} vs {vb:?}", ra.name, l.name));
            }
        }
    }
    (out, unresolved)
}

fn write_results(set: &Set, smoke: bool) -> Result<(), String> {
    let text = results_json(set).pretty();
    validate_schema(&text)?;
    let path = format!(
        "benchmark/out/results{}.json",
        if smoke { "-smoke" } else { "" }
    );
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\nwrote {path} and benchmark/out/spans-<workload>.json");
    Ok(())
}

/// Returns whether every run was correct (and, under `--selfcheck`, the
/// two sets agreed).
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let first = run_set(args)?;
    print_set(&first);
    write_results(&first, args.smoke)?;
    let mut good = first.correct;
    if args.selfcheck {
        let second = run_set(args)?;
        print_set(&second);
        good &= second.correct;
        let (diffs, unresolved) = disagreements(&first, &second);
        for u in &unresolved {
            println!("\nselfcheck: unresolved (spread wider than the bound): {u}");
        }
        if diffs.is_empty() {
            println!("\nselfcheck: the two sets agree within every bound");
        } else {
            println!("\nselfcheck: {} disagreement(s)", diffs.len());
            for d in &diffs {
                println!("  {d}");
            }
            good = false;
        }
    }
    Ok(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &'static str, wall: f64, virtual_ps: u64, msgs: f64) -> Row {
        let s = |v: f64| Summary::of(&[v, v, v]);
        let mut layers = Metrics::default();
        layers.put("net.msgs_sent", msgs);
        layers.put("dsm.check_hit_ns", wall * 10.0);
        Row {
            name,
            live: false,
            wall_s: s(wall),
            host_ns_per_op: s(7.0),
            setup_s: s(0.0004),
            peak_rss_mb: s(20.0),
            virtual_ps: Some(virtual_ps),
            attempted: 8,
            failed: 0,
            layers,
        }
    }

    fn set(rows: Vec<Row>) -> Set {
        Set {
            rows,
            header: Json::obj::<&str>([]),
            correct: true,
        }
    }

    #[test]
    fn selfcheck_accepts_noise_inside_the_bounds_and_rejects_the_rest() {
        let a = set(vec![row("tsp-sim8", 1.00, 5, 2238.0)]);
        // 4 % slower, timing probe moved, set-up doubled but under 1 ms:
        // all inside the bounds.
        let mut close = row("tsp-sim8", 1.04, 5, 2238.0);
        close.setup_s = Summary::of(&[0.0008]);
        assert_eq!(
            disagreements(&a, &set(vec![close])),
            (Vec::new(), Vec::new())
        );
        // 6 % on a sim workload, a changed virtual time and a changed
        // exact count are each a disagreement.
        let (d, unresolved) = disagreements(&a, &set(vec![row("tsp-sim8", 1.06, 6, 2239.0)]));
        assert_eq!((d.len(), unresolved.len()), (3, 0), "{d:?}");
        // The same 6 % between sets that are themselves 20 % wide is
        // beyond what they can resolve: reported, not failed.
        let mut noisy = row("tsp-sim8", 1.06, 5, 2238.0);
        noisy.wall_s = Summary::of(&[0.96, 1.06, 1.16]);
        let (d, unresolved) = disagreements(&a, &set(vec![noisy]));
        assert_eq!((d.len(), unresolved.len()), (0, 1), "{d:?} {unresolved:?}");
    }

    #[test]
    fn exact_metrics_are_the_counts_not_the_timings() {
        let is_exact = |name: &str| per_layer().iter().any(|l| l.name == name && l.exact);
        for exact in [
            "dsm.fetches",
            "dsm.diff_fields",
            "net.msgs_sent",
            "run.virtual_ps",
            "rewriter.checks_inserted",
        ] {
            assert!(is_exact(exact), "{exact}");
        }
        for timing in [
            "dsm.check_hit_ns",
            "dsm.handle_ns_per_msg",
            "dsm.msg.encode_ns.grant",
            "net.frames_sent",
            "run.wall_s",
        ] {
            assert!(!is_exact(timing), "{timing}");
        }
    }
}
