//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p jsplit-bench --release --bin repro              # everything
//! cargo run -p jsplit-bench --release --bin repro table1       # one table
//! cargo run -p jsplit-bench --release --bin repro table4 --paper-scale
//! ```
//!
//! Sections: `table1`, `table2`, `table3`, `table4`, `claims`, `ablation`,
//! `mixed` (the §6 heterogeneous-cluster and mid-run-join demonstrations),
//! `all`. Anything else prints the section list and exits 2.
//!
//! Everything `all` prints is deterministic virtual time; host wall-clock
//! is measured by `benchmark/run.sh`, not here.
//!
//! `repro trace <app> [--smoke]` runs one app (tsp/series/raytracer) with
//! full tracing, writes `TRACE_<app>.json` (Chrome trace-event format) at
//! the repo root and self-checks the trace invariants.
//!
//! `repro heat <app> [--smoke]` runs one app (tsp/series/raytracer) with
//! the per-object DSM sharing profiler, prints the heat table / sharing
//! classes / home-migration candidates, writes `HEAT_<app>.json` at the
//! repo root and self-checks the reconciliation invariant against the
//! aggregate `DsmStats` totals.
//!
//! `repro opstats <app> [--smoke]` runs one app under both protocols with
//! retired-opcode counting and prints the hot opcode / hot pair tables
//! that motivate the predecoder's superinstruction selection.

use jsplit_bench::{ablation, heat, measure, table1, table2, table3, table4, tracecmd};
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::exec::run_cluster;
use jsplit_runtime::{ClusterConfig, NodeSpec};

/// `all` runs the seven sections after it; the last three take an app
/// argument (and two write a file), so they only run when named.
const SECTIONS: [&str; 11] = [
    "all", "table1", "table2", "table3", "table4", "claims", "ablation", "mixed", "trace", "heat", "opstats",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut words = args.iter().filter(|a| !a.starts_with("--")).map(String::as_str);
    let section = words.next().unwrap_or("all");
    let app = words.next().unwrap_or("tsp");

    if !SECTIONS.contains(&section) {
        eprintln!("repro: unknown section {section:?}\nsections: {}", SECTIONS.join(" "));
        std::process::exit(2);
    }

    if section == "trace" || section == "heat" {
        // Observability harnesses: never part of `all` (their output is a
        // file at the repo root, not a table).
        let written = if section == "trace" { tracecmd::run(app, smoke) } else { heat::run(app, smoke) };
        match written {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("repro {section}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if section == "opstats" {
        // Dynamic opcode/pair frequency profiler: runs one app under the
        // classic interpreter with retire-counting on and prints the hot
        // opcode and hot consecutive-pair tables — the measurement behind
        // the superinstruction selection in jsplit-mjvm's pcode module.
        // Deterministic (sim backend, counts merged across nodes), so the
        // tables can be committed to EXPERIMENTS.md verbatim.
        let Some(program) = table4::app_program(app, table4::Scale::single_app(smoke), 16) else {
            eprintln!("repro opstats: unknown app {app:?} (want tsp|series|raytracer)");
            std::process::exit(2);
        };
        for (label, cfg) in [
            ("baseline (central-server)", ClusterConfig::baseline(JvmProfile::SunSim, 8)),
            ("javasplit (home-migration)", ClusterConfig::javasplit(JvmProfile::SunSim, 8)),
        ] {
            let r = run_cluster(cfg.with_opstats(true), &program).expect("opstats cluster");
            let stats = r.opstats.expect("sim run with opstats enabled carries counters");
            println!("### {app} — {label}, {} retired ops", stats.total());
            println!();
            print!("{}", stats.render(12));
            println!();
        }
        return;
    }

    let want = |s: &str| section == "all" || section == s;

    println!("JavaSplit reproduction — paper tables/figures (virtual-time simulation)");
    println!("=======================================================================");

    if want("table1") {
        let rows = table1::run(2_000);
        print!("{}", table1::render(&rows));
    }
    if want("table2") {
        let rows = table2::run(2_000);
        print!("{}", table2::render(&rows));
    }
    if want("table3") {
        let rows = table3::run();
        print!("{}", table3::render(&rows));
    }
    if want("table4") {
        let scale = if paper_scale { table4::Scale::Paper } else { table4::Scale::Bench };
        let pts = table4::run(scale);
        print!("{}", table4::render(&pts));
        summarize_speedups(&pts);
    }
    if want("claims") {
        // The per-JVM speedup comparisons of 6.2 need the compute-dominated
        // regime (the paper's inputs run for minutes); Deep scale puts the
        // bench-scale compute/communication ratio back in that regime for
        // Series and the Ray Tracer at 8 nodes.
        let pts = table4::run_subset(
            table4::Scale::Deep,
            &["series", "raytracer"],
            &measure::PROFILES,
            &[8],
        );
        print!("{}", table4::render(&pts));
        summarize_speedups(&pts);
    }
    if want("ablation") {
        let rows = ablation::protocol_ablation(8);
        print!("{}", ablation::render_protocol(&rows));
        let rows = ablation::local_lock_ablation(3_000);
        print!("{}", ablation::render_locks(&rows));
        let rows = ablation::chunk_ablation(8_192, 4);
        print!("{}", ablation::render_chunks(&rows));
    }
    if want("mixed") {
        mixed_cluster_demo();
    }
}

/// The per-figure qualitative claims of §6.2, checked on the spot.
fn summarize_speedups(pts: &[table4::Point]) {
    println!("\n== Figure claims (paper 6.2) ==");
    let get = |app: &str, profile: JvmProfile, nodes: usize| {
        pts.iter()
            .find(|p| p.app == app && p.profile == profile && p.nodes == nodes)
            .map(|p| p.speedup)
            .unwrap_or(f64::NAN)
    };
    for app in table4::APPS {
        let sun = get(app, JvmProfile::SunSim, 8);
        let ibm = get(app, JvmProfile::IbmSim, 8);
        println!("{app:>10}: speedup@8 nodes  Sun {sun:5.2}  IBM {ibm:5.2}");
    }
    let s_sun = get("series", JvmProfile::SunSim, 8);
    let s_ibm = get("series", JvmProfile::IbmSim, 8);
    println!(
        "claim 'Series: IBM speedup significantly lower than Sun': {}",
        if s_ibm < s_sun { "REPRODUCED" } else { "NOT reproduced at this scale" }
    );
    let r_sun = get("raytracer", JvmProfile::SunSim, 8);
    let r_ibm = get("raytracer", JvmProfile::IbmSim, 8);
    println!(
        "claim 'Ray Tracer: Sun speedup is the lower one':          {}",
        if r_sun < r_ibm { "REPRODUCED" } else { "NOT reproduced at this scale" }
    );
}

/// §6 portability demonstrations: mixed JVM brands in one execution, and a
/// worker joining mid-run.
fn mixed_cluster_demo() {
    use jsplit_apps::tsp;
    println!("\n== Mixed-brand cluster & mid-run join (paper 2 / 6) ==");
    let params = tsp::TspParams { n: 9, seed: 42, depth: 3, threads: 8 };
    let expected = tsp::solve_reference(&params);
    let prog = tsp::program(params);

    let cfg = ClusterConfig::heterogeneous(vec![
        NodeSpec::sun(),
        NodeSpec::ibm(),
        NodeSpec::sun(),
        NodeSpec::ibm(),
    ]);
    let r = run_cluster(cfg, &prog).expect("mixed cluster");
    println!(
        "mixed 2xSun+2xIBM: result={} (oracle {expected}) time={:.4}s msgs={} -> {}",
        r.output[0],
        r.exec_time_ps as f64 / 1e12,
        r.net_total().msgs_sent,
        if r.output[0] == expected.to_string() { "OK" } else { "MISMATCH" },
    );

    let mut cfg = ClusterConfig::javasplit(JvmProfile::SunSim, 2)
        .with_joins(vec![(1, NodeSpec::ibm()), (2, NodeSpec::ibm())]);
    cfg.fuel = 256;
    let r = run_cluster(cfg, &prog).expect("join cluster");
    let joined_active = r.net_per_node.len() == 4 && r.net_per_node[3].msgs_recv > 0;
    println!(
        "2 nodes + 2 joining IBM workers: result={} nodes_end={} joined_participated={} -> {}",
        r.output[0],
        r.net_per_node.len(),
        joined_active,
        if r.output[0] == expected.to_string() && joined_active { "OK" } else { "CHECK" },
    );
    let _ = measure::ps_to_us(0);
}
