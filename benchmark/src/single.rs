//! One workload per process: the mode the benchmark driver calls.
//! `--trace 0` measures the end-to-end metrics with every observability
//! switch off; `--trace 1` runs the traced pass and the layer probes and
//! reports the per-layer metrics. The last stdout line is the result.

use crate::host::peak_rss_mb;
use crate::json::Json;
use crate::ledger::{per_layer, workload_metrics, END_TO_END};
use crate::probes::{self, Metrics, ProbeBudget};
use crate::run::{golden_mismatch, setup_only, sim_twin, timed_rep, traced_rep, Rep};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::{Scale, Workload};
use std::time::{Duration, Instant};

/// Fewest timed repetitions a run reports a median of.
const MIN_REPS: usize = 3;
/// Set-up-only constructions per run (bounded by time as well): set-up is
/// milliseconds, so its median needs many more samples than the reps give.
const SETUP_ITERS: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_millis(600);

/// Tally of what was attempted and what went wrong.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Anything that makes the result untrustworthy without being a failed
    /// run: counters that did not repeat, a golden mismatch.
    pub faults: Vec<String>,
}

impl Verdict {
    pub fn note(&mut self, what: &str, rep: &Rep) {
        self.attempted += 1;
        if let Some(f) = &rep.failure {
            self.failed += 1;
            eprintln!("FAILED {what}: {f}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }

    fn fault(&mut self, msg: String) {
        eprintln!("FAULT {msg}");
        self.faults.push(msg);
    }

    /// Every repetition must report the same exact counters, and `tsp-sim8`
    /// at seed 42 must hit the golden numbers.
    pub fn check_repeat<'a>(
        &mut self,
        w: &Workload,
        seed: u64,
        scale: Scale,
        reps: impl IntoIterator<Item = &'a Rep>,
    ) {
        let mut counters = reps.into_iter().filter_map(|r| r.counters.as_ref());
        let Some(first) = counters.next() else { return };
        if let Some(other) = counters.find(|c| c.exact() != first.exact()) {
            self.fault(format!(
                "{}: counters differ between repetitions: {:?} vs {:?}",
                w.name,
                first.exact(),
                other.exact()
            ));
        }
        if let Some(msg) = golden_mismatch(w, seed, scale, first) {
            self.fault(msg);
        }
    }
}

/// Warm-up, then timed repetitions until `budget` has passed (at least
/// `min_reps`). A failed run ends the series: its time means nothing, and a
/// run that fails at once would otherwise be retried for the whole budget.
pub fn timed_reps(
    w: &Workload,
    seed: u64,
    scale: Scale,
    budget: Duration,
    min_reps: usize,
    verdict: &mut Verdict,
) -> Vec<Rep> {
    let expect = (w.reference)(seed, scale);
    let warm_up = timed_rep(w, seed, scale, expect);
    verdict.note("warm-up", &warm_up);
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut failed = warm_up.failure.is_some();
    while !failed && (reps.len() < min_reps || start.elapsed() < budget) {
        let rep = timed_rep(w, seed, scale, expect);
        verdict.note("timed repetition", &rep);
        failed = rep.failure.is_some();
        reps.push(rep);
    }
    reps
}

/// `host_ns_per_op` of one repetition: host wall per retired instruction.
/// Unlike the wall itself it can be compared across seeds, which change how
/// much work `tsp` does but not what an instruction costs.
pub fn ns_per_op(rep: &Rep) -> Option<f64> {
    let ops = rep.counters.as_ref()?.ops;
    (ops > 0).then(|| rep.wall_s * 1e9 / ops as f64)
}

fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: u64,
    verdict: &mut Verdict,
) -> Result<Metrics, String> {
    let reps = timed_reps(
        w,
        seed,
        Scale::Full,
        Duration::from_secs(seconds),
        MIN_REPS,
        verdict,
    );
    verdict.check_repeat(w, seed, Scale::Full, &reps);
    let per_op: Vec<f64> = reps.iter().filter_map(ns_per_op).collect();
    if per_op.is_empty() {
        return Err("no repetition completed".into());
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let start = Instant::now();
    while setups.len() < reps.len() + SETUP_ITERS && start.elapsed() < SETUP_BUDGET {
        setups.push(setup_only(w, seed, Scale::Full).map_err(|e| format!("set-up failed: {e}"))?);
    }
    let mut m = Metrics::default();
    m.put("host_ns_per_op", median(&per_op));
    m.put("setup_s", median(&setups));
    m.put(
        "peak_rss_mb",
        peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    Ok(m)
}

/// The traced pass for one workload, compared with its `untraced`
/// repetitions and priced with `probes`; returns every per-layer metric
/// and the spans.
pub fn layers(
    w: &Workload,
    seed: u64,
    scale: Scale,
    untraced: &[Rep],
    probes: &Metrics,
    verdict: &mut Verdict,
) -> Result<(Metrics, SpanLog), String> {
    if untraced.iter().all(|r| r.counters.is_none()) {
        return Err(format!("{}: no untraced repetition completed", w.name));
    }
    let (traced, log) = traced_rep(w, seed, scale);
    verdict.note("traced pass", &traced);
    let expect = (w.reference)(seed, scale);
    let twin = w.is_live().then(|| sim_twin(w, seed, scale, expect));
    if let Some(t) = &twin {
        verdict.note("sim twin", t);
    }
    verdict.check_repeat(w, seed, scale, untraced.iter().chain([&traced]));
    let mut m = workload_metrics(w, untraced, &traced, &log, twin.as_ref(), probes);
    if let Some(delta) = m.get("net.counter_delta_vs_sim").filter(|d| *d != 0.0) {
        eprintln!("DISCREPANCY {}: live counters differ from the sim twin by {delta} (recorded, not a failure)", w.name);
    }
    m.0.extend(probes.0.iter().cloned());
    Ok((m, log))
}

/// Where spans go: `benchmark/out/` under the current directory, which both
/// entry points make the repository root.
pub fn write_spans(log: &SpanLog) {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("spans-{}.json", log.workload));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, log.to_json().pretty()))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Pick `names` out of `m`, in order, as the result line's `metrics`
/// object. A missing or non-finite value is a bug in the benchmark.
fn metrics_object(
    names: impl Iterator<Item = (String, &'static str)>,
    m: &Metrics,
) -> Result<Json, String> {
    let mut pairs = Vec::new();
    for (name, unit) in names {
        let value = m
            .get(&name)
            .filter(|v| v.is_finite())
            .ok_or(format!("metric {name} was not measured"))?;
        pairs.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::Obj(pairs))
}

pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    let mut verdict = Verdict::default();
    let metrics = if trace {
        // A third of the window for the untraced repetitions the traced
        // pass is compared with; the traced pass and the probes take the
        // rest.
        let untraced = timed_reps(
            w,
            seed,
            Scale::Full,
            Duration::from_secs(seconds) / 3,
            2,
            &mut verdict,
        );
        let probes = probes::run_all(&ProbeBudget::of(Scale::Full))?;
        let (m, log) = layers(w, seed, Scale::Full, &untraced, &probes, &mut verdict)?;
        write_spans(&log);
        metrics_object(per_layer().into_iter().map(|l| (l.name, l.unit)), &m)?
    } else {
        let m = end_to_end(w, seed, seconds, &mut verdict)?;
        metrics_object(END_TO_END.iter().map(|e| (e.name.to_string(), e.unit)), &m)?
    };
    if let Json::Obj(pairs) = &metrics {
        for (name, v) in pairs {
            eprintln!(
                "{name} = {} {}",
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(verdict.correct())),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.compact());
    Ok(())
}
