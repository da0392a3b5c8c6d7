//! jsplit-trace: deterministic virtual-time trace & metrics layer.
//!
//! The simulator is a sealed deterministic machine: every protocol decision
//! happens at a reproducible virtual picosecond. This crate turns that into
//! an observability surface — a structured event stream recorded by the
//! runtime (scheduler), the DSM engine and the simulated network, plus the
//! analyses derived from it:
//!
//! * [`node_breakdown`] — per-node compute / lock-wait / fetch-stall /
//!   ack-wait / idle split that sums *exactly* to `exec_time_ps × cpus`,
//! * [`lock_contention`] — per-lock transfers, queue depth and wait times,
//! * [`chrome_trace`] — a Chrome trace-event JSON export (Perfetto-ready).
//!
//! Design constraints that shaped the API:
//!
//! * **Zero cost when disabled.** Producers hold an `Option`; a run without
//!   tracing performs one branch per potential event and allocates nothing.
//! * **No dependencies.** This crate sits below `net`/`dsm`/`runtime` in
//!   the workspace DAG, so events use raw integer ids and a local
//!   [`NetKind`] mirror of the wire message kinds.
//! * **Producers are clock-free.** The DSM engine is a pure protocol
//!   machine with no notion of time; it buffers unstamped [`TraceEvent`]s
//!   and the runtime stamps them with virtual `now` at its deterministic
//!   drain points. The network knows both send and delivery times and
//!   stamps its own events. Identical seed ⇒ byte-identical stream.

mod breakdown;
mod canonical;
mod chrome;
mod event;
mod flight;
mod hist;
mod json;
mod locks;
mod metrics;
mod objprof;
mod sink;
mod wall;

pub use breakdown::{node_breakdown, NodeBreakdown};
pub use canonical::canonicalize;
pub use chrome::{chrome_trace, chrome_trace_unified, count_exported};
pub use event::{BlockReason, Event, NetKind, NodeId, Ps, ThreadUid, TraceEvent, TraceMode};
pub use flight::{
    arm_panic_dump, disarm_panic_dump, FlightEntry, FlightRecorder, FlightTag, FLIGHT_RING,
};
pub use hist::{bucket_edge, bucket_of, LogHist, HIST_BUCKETS};
pub use metrics::{
    Metric, MetricKind, MetricsRegistry, StallReport, TelemetrySummary, ALL_METRICS, METRICS,
};
pub use json::validate_json;
pub use objprof::{
    advise, build_report, classify, heat_of, home_of, Advice, ObjEvent, ObjProfReport, ObjProfile,
    ObjReport, SharingClass, ALL_CLASSES, ALL_OBJ_EVENTS, OBJ_KINDS, STATS_MAPPED,
};
pub use locks::{lock_contention, LockStat};
pub use sink::{make_sink, RingRecorder, TraceSink, VecRecorder};
pub use wall::{
    KindStats, NodeWallProfile, SpanKind, SpanRecorder, WallProfile, WallSpan, ALL_SPAN_KINDS,
    MAX_RAW_SPANS, SPAN_KINDS,
};
