//! `repro heat <app>` — run one application with the per-object DSM
//! sharing profiler on the standard 8-node SunSim cluster, print the heat
//! table / sharing classes / home-migration candidates, write
//! `HEAT_<app>.json` at the repo root, and self-check the profiler
//! invariants:
//!
//! * **Reconciliation.** For every profiled event kind with a `DsmStats`
//!   counterpart, the per-object counts summed over all objects and nodes,
//!   plus the unattributed bucket, equal the aggregate cluster total
//!   *exactly* — the profiler attributes every event the stats layer
//!   counts, no more and no fewer.
//! * **Well-formed JSON.** The emitted report parses (CI re-validates the
//!   schema with an independent reader).
//! * **Sane advice.** Every migration candidate points at an existing
//!   object whose dominant accessor differs from its home.
//!
//! The report is deterministic: counts are a pure function of the
//! virtual-time execution, so the JSON is byte-identical run-to-run and
//! across the sim / threads / sockets backends (`objprof.rs` integration
//! tests pin this).
//!
//! `--smoke` selects the CI-scale inputs ([`Scale::Test`]).

use std::io::Write as _;
use std::path::PathBuf;

use crate::measure::run_clean;
use crate::table4::{app_program, Scale};
use jsplit_dsm::DsmStats;
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::ClusterConfig;
use jsplit_trace::{validate_json, ObjProfReport, ALL_OBJ_EVENTS, STATS_MAPPED};

const NODES: usize = 8;

/// Check the reconciliation invariant: per-object sums + unattributed ==
/// aggregate `DsmStats` totals, for every mapped event kind.
pub fn reconcile(rep: &ObjProfReport, total: &DsmStats) -> Result<(), String> {
    for (ev, field) in STATS_MAPPED {
        let per_obj: u64 = rep.objects.iter().map(|o| o.total[ev.index()]).sum();
        let sum = per_obj + rep.unattributed[ev.index()];
        let agg = total.get(field).expect("STATS_MAPPED names DsmStats fields");
        if sum != agg {
            return Err(format!(
                "reconciliation failed for {}: Σ objects {} + unattributed {} = {} != DsmStats.{} = {}",
                ev.name(),
                per_obj,
                rep.unattributed[ev.index()],
                sum,
                field,
                agg
            ));
        }
    }
    Ok(())
}

/// Serialize the report to the `HEAT_<app>.json` schema. Hand-rolled and
/// deterministic: objects in heat order, rows in node order, region map in
/// gid order — byte-identical for identical reports.
pub fn to_json(app: &str, rep: &ObjProfReport, total: &DsmStats) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"app\": \"{app}\",\n"));
    s.push_str(&format!("  \"nodes\": {NODES},\n"));
    s.push_str(&format!("  \"config\": \"javasplit {NODES} nodes, SunSim profile\",\n"));
    s.push_str(&format!("  \"objects_profiled\": {},\n", rep.objects.len()));

    s.push_str("  \"objects\": [\n");
    for (i, o) in rep.objects.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"gid\": {}, \"home\": {}, \"class\": \"{}\", \"heat\": {},\n",
            o.gid,
            o.home,
            o.class.name(),
            o.heat
        ));
        s.push_str("     \"total\": {");
        for (k, ev) in ALL_OBJ_EVENTS.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", ev.name(), o.total[k]));
        }
        s.push_str("},\n     \"rows\": [");
        for (j, (node, cells)) in o.rows.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{{\"node\": {node}"));
            for (k, ev) in ALL_OBJ_EVENTS.iter().enumerate() {
                if cells[k] > 0 {
                    s.push_str(&format!(", \"{}\": {}", ev.name(), cells[k]));
                }
            }
            s.push('}');
        }
        s.push_str(&format!(
            "],\n     \"advice\": {{\"dominant\": {}, \"score\": {}, \"migrate\": {}}}}}{}\n",
            o.advice.dominant,
            o.advice.score,
            o.advice.migrate,
            if i + 1 < rep.objects.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");

    // Migration candidates, advisor-score descending (indices resolved to
    // gids so the JSON stands alone).
    s.push_str("  \"candidates\": [");
    for (i, &ix) in rep.candidates.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let o = &rep.objects[ix];
        s.push_str(&format!(
            "{{\"gid\": {}, \"home\": {}, \"to\": {}, \"score\": {}}}",
            o.gid, o.home, o.advice.dominant, o.advice.score
        ));
    }
    s.push_str("],\n");

    s.push_str("  \"unattributed\": {");
    for (k, ev) in ALL_OBJ_EVENTS.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\": {}", ev.name(), rep.unattributed[k]));
    }
    s.push_str("},\n");

    // Chunked-array region folding, sorted by region gid.
    let mut regions: Vec<(u64, u64)> = rep.region_base.iter().map(|(&r, &b)| (r, b)).collect();
    regions.sort_unstable();
    s.push_str(&format!("  \"regions_folded\": {},\n", regions.len()));

    // The aggregate totals the CI validator reconciles against, embedded so
    // the check needs no second run.
    s.push_str("  \"dsm_totals\": {");
    for (k, (ev, field)) in STATS_MAPPED.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\": {}", ev.name(), total.get(field).expect("STATS_MAPPED names DsmStats fields")));
    }
    s.push_str("}\n}\n");
    s
}

/// Run the profiled workload and write `HEAT_<app>.json` at the repo root.
/// Returns an error string if any invariant fails.
pub fn run(app: &str, smoke: bool) -> Result<PathBuf, String> {
    let Some(prog) = app_program(app, Scale::single_app(smoke), 16) else {
        return Err(format!("unknown app {app:?} (expected tsp, series or raytracer)"));
    };

    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, NODES).with_objprof(true);
    let r = run_clean(cfg, &prog);
    let rep = r.objprof.as_ref().expect("objprof was enabled");
    let total = r.dsm_total();
    println!(
        "{app}: {} shared objects profiled over {:.6} virtual s on {NODES} nodes",
        rep.objects.len(),
        r.exec_time_secs()
    );

    // Invariant 1: per-object sums reconcile exactly with the aggregate
    // DSM counters.
    reconcile(rep, &total)?;
    println!(
        "reconciliation: OK ({} mapped event kinds match DsmStats totals exactly)",
        STATS_MAPPED.len()
    );

    // Invariant 2: every migration candidate is a real, mis-homed object.
    for &ix in &rep.candidates {
        let o = rep
            .objects
            .get(ix)
            .ok_or_else(|| format!("candidate index {ix} out of range"))?;
        if !o.advice.migrate || o.advice.dominant == o.home {
            return Err(format!("candidate gid {} is not mis-homed: {:?}", o.gid, o.advice));
        }
    }
    println!("migration candidates: {} (all mis-homed, score-ranked)", rep.candidates.len());

    // The summary already renders the top-of-table heat rows when the run
    // carried a profile.
    print!("{}", r.summary());

    let json = to_json(app, rep, &total);

    // Invariant 3: well-formed JSON.
    validate_json(&json).map_err(|e| format!("heat report is not valid JSON: {e}"))?;

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../HEAT_{app}.json"));
    let mut f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    f.write_all(json.as_bytes()).map_err(|e| e.to_string())?;
    Ok(path.canonicalize().unwrap_or(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsplit_trace::{build_report, ObjEvent, ObjProfile};

    fn sample_report() -> (ObjProfReport, DsmStats) {
        let mut p0 = ObjProfile::new();
        let mut p1 = ObjProfile::new();
        let hot = 1u64; // homed at node 0
        let cold = (1u64 << 40) | 2;
        for _ in 0..5 {
            p1.bump(hot, ObjEvent::Fetch);
            p1.bump(hot, ObjEvent::ReadMiss);
        }
        p0.bump(hot, ObjEvent::DiffApplied);
        p0.grant_edge(hot, 1);
        p0.bump(cold, ObjEvent::ReadHit);
        p1.bump(cold, ObjEvent::ReadHit);
        p0.bump_unattributed(ObjEvent::Notify);
        let rep = build_report(&[p0, p1]);
        let total = DsmStats {
            fetches: 5,
            diffs_applied: 1,
            grants_sent: 1,
            notifies: 1,
            ..DsmStats::default()
        };
        (rep, total)
    }

    #[test]
    fn reconcile_accepts_matching_totals() {
        let (rep, total) = sample_report();
        reconcile(&rep, &total).expect("totals match");
    }

    #[test]
    fn reconcile_rejects_drift() {
        let (rep, mut total) = sample_report();
        total.fetches += 1;
        let err = reconcile(&rep, &total).expect_err("fetch drift must be caught");
        assert!(err.contains("fetches"), "unhelpful error: {err}");
        // An unattributed-only counter is part of the sum too.
        let (rep, mut total) = sample_report();
        total.notifies = 0;
        assert!(reconcile(&rep, &total).is_err());
    }

    #[test]
    fn json_is_valid_and_carries_schema() {
        let (rep, total) = sample_report();
        let j = to_json("tsp", &rep, &total);
        validate_json(&j).expect("well-formed JSON");
        assert!(j.contains("\"app\": \"tsp\""));
        assert!(j.contains(&format!("\"nodes\": {NODES},")));
        assert!(j.contains("\"objects\": ["));
        assert!(j.contains("\"class\": \""));
        assert!(j.contains("\"heat\": "));
        assert!(j.contains("\"advice\": {\"dominant\": "));
        assert!(j.contains("\"candidates\": ["));
        assert!(j.contains("\"unattributed\": {"));
        assert!(j.contains("\"dsm_totals\": {"));
        // Every event kind appears by its stable name.
        for ev in ALL_OBJ_EVENTS {
            assert!(j.contains(&format!("\"{}\":", ev.name())), "missing {}", ev.name());
        }
        // Deterministic serialization: same report, same bytes.
        assert_eq!(j, to_json("tsp", &rep, &total));
    }

    #[test]
    fn unknown_app_is_rejected() {
        assert!(run("nosuchapp", true).is_err());
    }
}
