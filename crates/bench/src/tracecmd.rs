//! `repro trace <app>` — run one application with full tracing on the
//! standard 8-node SunSim cluster, write the Chrome trace-event JSON, and
//! self-check the trace invariants:
//!
//! * the JSON is syntactically valid (load it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>);
//! * the number of exported lock-grant flow events equals the protocol's
//!   own `grants_sent` counter (the trace and the stats agree);
//! * each node's compute + lock-wait + fetch-stall + ack-wait + idle time
//!   sums *exactly* to `exec_time_ps × cpus` (nothing is dropped or
//!   double-counted).
//!
//! `--smoke` selects the CI-scale inputs ([`Scale::Test`]).

use std::io::Write as _;
use std::path::PathBuf;

use crate::measure::run_clean;
use crate::table4::{app_program, Scale};
use jsplit_mjvm::cost::JvmProfile;
use jsplit_runtime::ClusterConfig;
use jsplit_trace::{chrome_trace, count_exported, validate_json, TraceMode};

const NODES: usize = 8;

/// Run the traced workload and write `TRACE_<app>.json` at the repo root.
/// Returns an error string if any invariant fails.
pub fn run(app: &str, smoke: bool) -> Result<PathBuf, String> {
    let Some(prog) = app_program(app, Scale::single_app(smoke), 16) else {
        return Err(format!("unknown app {app:?} (expected tsp, series or raytracer)"));
    };

    let cfg = ClusterConfig::javasplit(JvmProfile::SunSim, NODES).with_trace(TraceMode::Full);
    let r = run_clean(cfg, &prog);
    let events = r.trace.as_deref().expect("trace was enabled");
    println!(
        "{app}: {} trace events over {:.6} virtual s on {NODES} nodes",
        events.len(),
        r.exec_time_secs()
    );

    // Invariant 1: the per-node time breakdown is an exact partition of
    // every node's cpu-time.
    for b in &r.breakdown {
        if !b.checks_out(r.exec_time_ps) {
            return Err(format!(
                "node {} breakdown does not sum to exec_time x cpus: {:?} vs {} x {}",
                b.node, b, r.exec_time_ps, b.cpus
            ));
        }
    }
    println!("breakdown identity: OK ({} nodes partition {} ps each)", r.breakdown.len(), r.exec_time_ps);

    let json = chrome_trace(events);

    // Invariant 2: well-formed JSON.
    validate_json(&json).map_err(|e| format!("chrome trace is not valid JSON: {e}"))?;

    // Invariant 3: the exported lock-grant flows equal the protocol's own
    // transfer counter.
    let flows = count_exported(&json, 's', "lock-grant");
    let grants = r.dsm_total().grants_sent;
    if flows as u64 != grants {
        return Err(format!("lock-grant flow events ({flows}) != DsmStats grants_sent ({grants})"));
    }
    println!("lock-grant flows: {flows} == grants_sent: OK");

    print!("{}", r.summary());

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../TRACE_{app}.json"));
    let mut f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    f.write_all(json.as_bytes()).map_err(|e| e.to_string())?;
    Ok(path.canonicalize().unwrap_or(path))
}
