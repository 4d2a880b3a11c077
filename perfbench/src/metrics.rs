//! The benchmark's metric names, units and targets, and the result line.
//!
//! `BENCHMARK.json` carries each metric's name, unit and direction; the
//! tables below carry the same list plus what each metric means and, for a
//! per-layer metric, which end-to-end metric on which workload it should
//! move. A test keeps the two lists equal. Traced runs print the targets.

use dse_telemetry::Json;
use std::collections::BTreeMap;

/// One metric: name, unit, direction and what it measures or moves.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end: what it measures. Per-layer: `workload: metric` pairs
    /// it should move.
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        about,
    }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one; the `about` text says what each is on each workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower", "median of 3 set-ups per run: compile a warm-up round / compile the suite / start dsed and warm its cache"),
    m("peak_rss_mb", "MB", "lower", "the benchmark process's peak resident set (VmHWM) at the end of the run"),
    m("compile_ms.p50", "ms", "lower", "cold compile (parse..verify, empty store): geomean over programs of each one's p50 of compile requests / set-up compiles / dsed compile requests"),
    m("compile_ms.p90", "ms", "lower", "90th percentile of compile_ms"),
    m("latency_ms.p50", "ms", "lower", "an operation as its caller waits: geomean of per-program p50 of compiles / transformed build+run+drop; daemon: p50 of all round trips"),
    m("latency_ms.p90", "ms", "lower", "90th percentile of latency_ms"),
    m("req_per_s", "1/s", "higher", "operations completed per second: compiles / program runs (serial and transformed) / dsed responses"),
    m("suite_s.p50", "s", "lower", "a pass over the 8 programs: sum of per-program median compiles / median pass of 8 transformed runs / median time a client gets 8 run replies"),
    m("speedup_2t", "x", "higher", "geomean over programs of the fastest serial original / fastest transformed 2-thread execution (Vm::run, no VM build) of the run (Fig. 11)"),
    m("seq_overhead_instr", "ratio", "lower", "geomean over programs of instructions of the N=1 transformed program / the original's (Fig. 9b)"),
];

/// Per-layer metrics, measured in the traced run. Times of one call are
/// medians per call; counts are means per operation; ratios are over the
/// run. A metric a workload has no source for reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("runtime.vm_build_ms", "ms", "lower", "daemon: latency_ms.p50, req_per_s; compile: compile_ms; run_bench: suite_s.p50 (small)"),
    m("runtime.teardown_ms", "ms", "lower", "daemon: latency_ms.p50, req_per_s; compile: compile_ms; run_bench: suite_s.p50 (small)"),
    m("depprof.profile_ms", "ms", "lower", "compile: compile_ms; daemon: only through its compile share"),
    m("depprof.accesses", "count", "lower", "compile: compile_ms; daemon: only through its compile share"),
    m("depprof.edges", "count", "lower", "compile: compile_ms; daemon: only through its compile share"),
    m("runtime.exec_ms", "ms", "lower", "run_bench: suite_s.p50, speedup_2t (per pass, transformed runs)"),
    m("runtime.instructions", "count", "lower", "run_bench: suite_s.p50, speedup_2t (per pass, transformed runs)"),
    m("runtime.exec_ms.dijkstra", "ms", "lower", "run_bench: suite_s.p50, speedup_2t"),
    m("runtime.exec_ms.md5", "ms", "lower", "run_bench: suite_s.p50, speedup_2t"),
    m("runtime.exec_ms.mpeg2enc", "ms", "lower", "run_bench: suite_s.p50, speedup_2t"),
    m("runtime.exec_ms.mpeg2dec", "ms", "lower", "run_bench: suite_s.p50, speedup_2t"),
    m("runtime.exec_ms.h263enc", "ms", "lower", "run_bench: suite_s.p50, speedup_2t"),
    m("runtime.exec_ms.bzip2", "ms", "lower", "run_bench: suite_s.p50, speedup_2t"),
    m("runtime.exec_ms.hmmer", "ms", "lower", "run_bench: suite_s.p50, speedup_2t"),
    m("runtime.exec_ms.lbm", "ms", "lower", "run_bench: suite_s.p50, speedup_2t"),
    m("runtime.wait_share", "ratio", "lower", "run_bench: speedup_2t on the DOACROSS programs"),
    m("runtime.wait_share.dijkstra", "ratio", "lower", "run_bench: speedup_2t"),
    m("runtime.wait_share.bzip2", "ratio", "lower", "run_bench: speedup_2t"),
    m("runtime.wait_share.hmmer", "ratio", "lower", "run_bench: speedup_2t"),
    m("runtime.sync_ops", "count", "lower", "run_bench: speedup_2t on the DOACROSS programs"),
    m("runtime.wait_yields", "count", "lower", "run_bench: speedup_2t on the DOACROSS programs"),
    m("runtime.dispatches", "count", "lower", "run_bench: suite_s.p50 on the DOALL programs"),
    m("runtime.steals", "count", "lower", "run_bench: suite_s.p50 on the DOALL programs"),
    m("runtime.parks", "count", "lower", "run_bench: suite_s.p50 on the DOALL programs"),
    m("runtime.heap_magazine_hit_ratio", "ratio", "higher", "run_bench: suite_s.p50, peak_rss_mb"),
    m("runtime.heap_backend_locks", "count", "lower", "run_bench: suite_s.p50, peak_rss_mb"),
    m("runtime.peak_heap_mb", "MB", "lower", "run_bench: suite_s.p50, peak_rss_mb"),
    m("lang.parse_ms", "ms", "lower", "compile: compile_ms"),
    m("ir.lower_ms", "ms", "lower", "compile: compile_ms"),
    m("ir.stack_instrs", "count", "lower", "compile: compile_ms"),
    m("analysis.points_to_ms", "ms", "lower", "compile: compile_ms"),
    m("core.classify_ms", "ms", "lower", "compile: compile_ms"),
    m("core.plan_ms", "ms", "lower", "compile: compile_ms"),
    m("core.xform_ms", "ms", "lower", "compile: compile_ms"),
    m("verify.check_ms", "ms", "lower", "compile: compile_ms"),
    m("core.privatized", "count", "lower", "compile, run_bench: seq_overhead_instr (Table 5)"),
    m("core.cache_hit_ratio", "ratio", "higher", "daemon: latency_ms.p50, req_per_s"),
    m("core.cache_dedups", "count", "higher", "daemon: latency_ms.p50, req_per_s"),
    m("core.cache_evictions", "count", "lower", "daemon: latency_ms.p50, req_per_s"),
    m("server.queue_ms.p50", "ms", "lower", "daemon: latency_ms.p50, req_per_s"),
    m("server.queue_peak", "count", "lower", "daemon: latency_ms.p90, req_per_s"),
    m("ir.reglower_ms", "ms", "lower", "nothing today; compile: compile_ms and daemon: latency_ms once the register engine is the default"),
    m("ir.reg_instrs", "count", "lower", "nothing today; compile: compile_ms and daemon: latency_ms once the register engine is the default"),
    m("verify.backend_ms", "ms", "lower", "nothing today; compile: compile_ms and daemon: latency_ms once the register engine is the default"),
    m("lang.self_ms", "ms", "lower", "self time per operation; compile: compile_ms"),
    m("ir.self_ms", "ms", "lower", "self time per operation; compile: compile_ms"),
    m("depprof.self_ms", "ms", "lower", "self time per operation; compile: compile_ms"),
    m("analysis.self_ms", "ms", "lower", "self time per operation; compile: compile_ms"),
    m("core.self_ms", "ms", "lower", "self time per operation; compile: compile_ms; daemon: latency_ms.p50"),
    m("verify.self_ms", "ms", "lower", "self time per operation; compile: compile_ms"),
    m("runtime.self_ms", "ms", "lower", "self time per operation; run_bench: suite_s.p50; daemon: latency_ms.p50"),
    m("server.self_ms", "ms", "lower", "self time per operation; daemon: latency_ms.p50 (dsed compile requests)"),
    m("unattributed_ms", "ms", "lower", "time per operation that no layer span covers; should stay small on every workload"),
    m("trace_overhead", "ratio", "lower", "traced operation time / untraced operation time, interleaved in the same run"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The value.
    pub value: f64,
    /// Samples it summarizes (1 for a single count).
    pub samples: usize,
}

/// The metrics of one run, by name.
#[derive(Debug, Default)]
pub struct Results {
    values: BTreeMap<&'static str, Value>,
}

impl Results {
    /// Records `name`; the name must be one of the tables'.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, Value { value, samples });
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// Prints one line per metric of `defs` (with unit and sample count)
    /// and returns the result object's `metrics` member. Per-layer metrics
    /// a workload has no source for read 0 with 0 samples.
    ///
    /// # Errors
    ///
    /// An end-to-end metric that was not measured or is not finite is an
    /// error: the run cannot be reported.
    pub fn report(&self, defs: &[MetricDef], traced: bool) -> Result<Json, String> {
        let mut pairs = Vec::new();
        for d in defs {
            let v = match self.values.get(d.name) {
                Some(v) => *v,
                None if traced => Value {
                    value: 0.0,
                    samples: 0,
                },
                None => return Err(format!("metric {} was not measured", d.name)),
            };
            if !v.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", d.name, v.value));
            }
            let target = if traced {
                format!("  -> {}", d.about)
            } else {
                String::new()
            };
            println!(
                "metric {:<34} {:>16.6} {:<6} n={:<6}{target}",
                d.name, v.value, d.unit, v.samples
            );
            pairs.push((
                d.name,
                Json::obj(vec![
                    ("value", Json::Float(v.value)),
                    ("unit", Json::Str(d.unit.into())),
                ]),
            ));
        }
        Ok(Json::obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(j: &Json, key: &str) -> Vec<(String, String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let f = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
                (f("name"), f("unit"), f("better"))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(names(&j, "end_to_end"), table(END_TO_END));
        assert_eq!(names(&j, "per_layer"), table(PER_LAYER));
    }

    #[test]
    fn every_program_has_an_exec_metric() {
        for w in dse_workloads::all() {
            let name = format!("runtime.exec_ms.{}", w.name);
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }

    #[test]
    fn untraced_report_needs_every_end_to_end_metric() {
        let mut r = Results::default();
        assert!(r.report(END_TO_END, false).is_err());
        for d in END_TO_END {
            r.set(d.name, 1.5, 3);
        }
        let j = r.report(END_TO_END, false).unwrap();
        assert_eq!(
            j.get("setup_s")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        r.set("speedup_2t", f64::NAN, 8);
        assert!(r.report(END_TO_END, false).is_err());
    }
}
