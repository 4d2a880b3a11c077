//! The repository benchmark: cold compiles, generated-code run time and
//! daemon traffic over the eight workload models, with a per-crate
//! breakdown from a separate traced run.
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `compile` — one closed-loop client; every request compiles one
//!   program cold on an empty artifact store, on fresh seeded
//!   Profile-scale inputs.
//! * `run_bench` — the suite is compiled once in set-up (profiled at
//!   Profile scale, the paper's train/ref split); each pass then builds,
//!   runs and drops every transformed program at 2 threads on fresh
//!   seeded Bench-scale inputs, with the serial original interleaved.
//! * `daemon` — `nproc` closed-loop clients on an in-process `dsed` over
//!   its unix socket: 9 in 10 requests are warm `run` requests over a
//!   fixed input set, every tenth a `compile` request on fresh inputs.

pub mod check;
pub mod compile;
pub mod daemon;
pub mod inputs;
pub mod metrics;
pub mod run_bench;
pub mod stats;
pub mod suite;
pub mod trace;

use metrics::Results;
use std::time::{Duration, Instant};
use trace::Span;

/// The three workloads, in the order a full run executes them.
pub const WORKLOADS: &[&str] = &["compile", "run_bench", "daemon"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input set is drawn from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory the span file is written to.
    pub out_dir: std::path::PathBuf,
}

/// Operations attempted and failed. A failed response, a trap and a wrong
/// output all count as a failed operation; none is retried or dropped.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (measured operations and output checks).
    /// The first few failures are printed to stderr.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and its outcome.
    pub fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 8 {
                    eprintln!("perfbench: failed operation: {e}");
                }
                None
            }
        }
    }

    /// Adds another client's tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Runs `setup` [`SETUPS`] times; returns the last result and the median
/// set-up time in seconds.
///
/// # Errors
///
/// The first failing set-up.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS > 0"), stats::median(&times)))
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets a latency percentile pair (`<name>.p50`, `<name>.p90`) over all
/// samples.
pub fn set_percentiles(r: &mut Results, p50: &'static str, p90: &'static str, xs: &[f64]) {
    r.set(p50, stats::percentile(xs, 0.5), xs.len());
    r.set(p90, stats::percentile(xs, 0.9), xs.len());
}

/// Sets a percentile pair as the geomean over programs of each program's
/// own percentile. The eight programs' times lie far apart, so a
/// percentile of the pooled samples would jump between programs; this
/// weighs every program equally.
pub fn set_program_percentiles(
    r: &mut Results,
    p50: &'static str,
    p90: &'static str,
    per_program: &[Vec<f64>],
) {
    let n = per_program.iter().map(Vec::len).sum();
    let at = |q: f64| {
        let xs: Vec<f64> = per_program
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::percentile(v, q))
            .collect();
        stats::geomean(&xs)
    };
    r.set(p50, at(0.5), n);
    r.set(p90, at(0.9), n);
}

/// Calls each layer's span names stand for, and the metric of their
/// median duration.
const CALLS: &[(&str, &str, &str)] = &[
    ("lang.parse_ms", "lang", "parse"),
    ("ir.lower_ms", "ir", "lower"),
    ("ir.reglower_ms", "ir", "reglower"),
    ("depprof.profile_ms", "depprof", "profile"),
    ("analysis.points_to_ms", "analysis", "points_to"),
    ("core.classify_ms", "core", "classify"),
    ("core.plan_ms", "core", "plan"),
    ("core.xform_ms", "core", "xform"),
    ("verify.check_ms", "verify", "check"),
    ("verify.backend_ms", "verify", "backend"),
    ("runtime.vm_build_ms", "runtime", "vm_build"),
    ("runtime.teardown_ms", "runtime", "teardown"),
];

/// The layers (crates) whose self time is reported.
const LAYERS: &[(&str, &str)] = &[
    ("lang", "lang.self_ms"),
    ("ir", "ir.self_ms"),
    ("depprof", "depprof.self_ms"),
    ("analysis", "analysis.self_ms"),
    ("core", "core.self_ms"),
    ("verify", "verify.self_ms"),
    ("runtime", "runtime.self_ms"),
    ("server", "server.self_ms"),
];

/// The span-derived per-layer metrics: median duration of each named
/// call, and each layer's self time plus the unattributed time per
/// operation (`ops` traced operations).
pub fn span_metrics(r: &mut Results, spans: &[Span], ops: usize) {
    for &(metric, layer, name) in CALLS {
        let d = trace::durations_ms(spans, layer, name);
        if !d.is_empty() {
            r.set(metric, stats::median(&d), d.len());
        }
    }
    let per_op = |ns: u64| ns as f64 / 1e6 / ops.max(1) as f64;
    let selfs = trace::self_ns(spans);
    for &(layer, metric) in LAYERS {
        r.set(metric, per_op(selfs.get(layer).copied().unwrap_or(0)), ops);
    }
    r.set(
        "unattributed_ms",
        per_op(selfs.get(trace::ROOT).copied().unwrap_or(0)),
        ops,
    );
}

/// The process's peak resident set in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload and fills `r`.
///
/// # Errors
///
/// A set-up failure or an unknown workload: nothing can be reported.
pub fn run_workload(o: &Opts, r: &mut Results, tally: &mut Tally) -> Result<(), String> {
    match o.workload.as_str() {
        "compile" => compile::run(o, r, tally),
        "run_bench" => run_bench::run(o, r, tally),
        "daemon" => daemon::run(o, r, tally),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Writes the spans of a traced run to `<out_dir>/spans-<workload>-<seed>.jsonl`.
///
/// # Errors
///
/// I/O errors.
pub fn write_spans(o: &Opts, spans: &[Span]) -> Result<(), String> {
    let path = o
        .out_dir
        .join(format!("spans-{}-{}.jsonl", o.workload, o.seed));
    trace::write_jsonl(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}
