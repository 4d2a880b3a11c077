//! The `run_bench` workload: the run time of the generated code.
//!
//! Set-up compiles the eight programs once, profiled on Profile-scale
//! inputs (the paper's train/ref split, as `figures` does; profiling at
//! Bench scale would cost up to 25 s per program). Each pass then builds,
//! runs and drops every transformed program at 2 threads on a fresh seeded
//! Bench-scale input set, with the serial original of the same inputs run
//! next to it (order alternating by pass) as the reference its outputs
//! are checked against.
//!
//! The traced run alternates traced and untraced passes.

use crate::check::{self, Outputs};
use crate::compile::set_trace_overhead;
use crate::inputs::{self, DEFAULT_SEED};
use crate::metrics::{Results, PER_LAYER};
use crate::suite::{self, Prepared, RunTimes, THREADS};
use crate::trace::{Tracer, ROOT};
use crate::{ms, set_program_percentiles, span_metrics, stats, timed_setups, Opts, Tally};
use dse_core::OptLevel;
use dse_runtime::RunReport;
use dse_workloads::Scale;
use std::time::Instant;

/// Runtime counters summed over the transformed runs.
#[derive(Default)]
struct Sums {
    work: u64,
    wait_spins: u64,
    sync_ops: u64,
    wait_yields: u64,
    dispatches: u64,
    steals: u64,
    parks: u64,
    magazine_hits: u64,
    magazine_misses: u64,
    backend_locks: u64,
    peak_heap: u64,
}

impl Sums {
    fn add(&mut self, r: &RunReport) {
        self.work += r.counters.work;
        self.wait_spins += r.counters.wait_spins;
        self.sync_ops += r.counters.sync_ops;
        self.wait_yields += r.counters.wait_yields;
        self.dispatches += r.pool.dispatches;
        self.steals += r.pool.steals;
        self.parks += r.pool.parks;
        self.magazine_hits += r.heap_contention.cache_hits;
        self.magazine_misses += r.heap_contention.cache_misses;
        self.backend_locks += r.heap_contention.backend_locks;
        self.peak_heap = self.peak_heap.max(r.peak_heap_bytes);
    }
}

/// One program's serial and transformed runs of one input set. Returns
/// the serial reference (outputs and instruction count) and both times.
fn one_program(
    t: &mut Tracer,
    req: u64,
    p: &Prepared,
    inputs: &[i64],
    serial_first: bool,
) -> Result<(Outputs, RunReport, RunTimes, RunReport, RunTimes), String> {
    let serial = |t: &mut Tracer| {
        t.begin(2 * req);
        let r = suite::reference(t, 2 * req, p, inputs);
        t.end();
        r
    };
    let par = |t: &mut Tracer| {
        t.begin(2 * req + 1);
        let r = suite::run_program(t, 2 * req + 1, &p.par.transformed.parallel, THREADS, inputs);
        t.end();
        r
    };
    let (s, x) = if serial_first {
        let s = serial(t)?;
        (s, par(t)?)
    } else {
        let x = par(t)?;
        (serial(t)?, x)
    };
    check::compare(&s.0, &x.0).map_err(|e| format!("{} (2 threads): {e}", p.w.name))?;
    Ok((s.0, s.1, s.2, x.1, x.2))
}

/// Runs the workload.
///
/// # Errors
///
/// A failing set-up.
pub fn run(o: &Opts, r: &mut Results, tally: &mut Tally) -> Result<(), String> {
    let mut compile_ms = vec![Vec::new(); dse_workloads::all().len()];
    let (suite, setup_s) = timed_setups(|| {
        let (s, ms) = suite::prepare(o.seed)?;
        for (k, t) in ms.into_iter().enumerate() {
            compile_ms[k].push(t);
        }
        Ok(s)
    })?;
    r.set("setup_s", setup_s, crate::SETUPS);

    let n = suite.len();
    let mut tracer = Tracer::new(o.trace, Instant::now());
    let mut quiet = Tracer::new(false, Instant::now());
    let mut par_ms = vec![Vec::new(); n];
    let mut serial_exec = vec![Vec::new(); n];
    let mut exec_ms = vec![Vec::new(); n];
    let mut wait = vec![(0u64, 0u64); n];
    let mut pass_s = Vec::new();
    let mut pass_exec_ms = Vec::new();
    let (mut traced_pass, mut untraced_pass) = (Vec::new(), Vec::new());
    let mut sums = Sums::default();
    let mut runs = 0usize;
    // Pass 0's serial references feed the N=1 overhead runs and, for the
    // default seed, the golden comparison.
    let mut first_pass: Vec<Option<(Outputs, u64)>> = vec![None; n];
    let start = Instant::now();
    let mut pass: u64 = 0;
    while pass == 0 || start.elapsed() < o.seconds {
        let traced = o.trace && pass.is_multiple_of(2);
        let t = if traced { &mut tracer } else { &mut quiet };
        let mut pass_total = 0.0;
        let mut pass_exec = 0.0;
        for (k, p) in suite.iter().enumerate() {
            let inputs = inputs::seeded(&p.w, Scale::Bench, o.seed, pass);
            let req = pass * n as u64 + k as u64;
            runs += 2;
            let res = one_program(t, req, p, &inputs, pass.is_multiple_of(2));
            let Some((want, srep, st, xrep, xt)) = tally.record(res) else {
                continue;
            };
            serial_exec[k].push(ms(st.exec));
            par_ms[k].push(ms(xt.total()));
            exec_ms[k].push(ms(xt.exec));
            pass_total += xt.total().as_secs_f64();
            pass_exec += ms(xt.exec);
            wait[k].0 += xrep.counters.work;
            wait[k].1 += xrep.counters.wait_spins;
            sums.add(&xrep);
            if pass == 0 {
                first_pass[k] = Some((want, srep.counters.work));
            }
        }
        pass_s.push(pass_total);
        pass_exec_ms.push(pass_exec);
        if traced {
            traced_pass.push(pass_total);
        } else {
            untraced_pass.push(pass_total);
        }
        pass += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let passes = pass_s.len();

    // Instruction overhead of the program transformed for one thread, on
    // pass 0's inputs (a deterministic count).
    let mut overheads = Vec::new();
    for (k, p) in suite.iter().enumerate() {
        let Some((want, serial_work)) = &first_pass[k] else {
            continue;
        };
        let inputs = inputs::seeded(&p.w, Scale::Bench, o.seed, 0);
        if o.seed == DEFAULT_SEED {
            tally.record(suite::compare_golden(Scale::Bench, p.w.name, want));
        }
        let res = p
            .art
            .analysis
            .transform(OptLevel::Full, 1)
            .map_err(|e| e.to_string())
            .and_then(|one| suite::run_program(&mut quiet, 0, &one.parallel, 1, &inputs))
            .and_then(|(got, rep, _)| {
                check::compare(want, &got).map_err(|e| format!("{} (N=1): {e}", p.w.name))?;
                Ok(rep.counters.work as f64 / *serial_work as f64)
            });
        if let Some(ratio) = tally.record(res) {
            overheads.push(ratio);
        }
    }
    suite::check_golden_profile(&suite, tally);

    if o.trace {
        let traced_ops = tracer.spans().iter().filter(|s| s.layer == ROOT).count();
        span_metrics(r, tracer.spans(), traced_ops);
        r.set("runtime.exec_ms", stats::median(&pass_exec_ms), passes);
        for (k, p) in suite.iter().enumerate() {
            r.set(
                metric_of("runtime.exec_ms.", p.w.name),
                stats::median(&exec_ms[k]),
                exec_ms[k].len(),
            );
            if let Some(name) = try_metric_of("runtime.wait_share.", p.w.name) {
                r.set(name, share(wait[k].1, wait[k].0), exec_ms[k].len());
            }
        }
        let per_pass = |v: u64| v as f64 / passes as f64;
        r.set("runtime.instructions", per_pass(sums.work), passes);
        r.set(
            "runtime.wait_share",
            share(sums.wait_spins, sums.work),
            passes,
        );
        r.set("runtime.sync_ops", per_pass(sums.sync_ops), passes);
        r.set("runtime.wait_yields", per_pass(sums.wait_yields), passes);
        r.set("runtime.dispatches", per_pass(sums.dispatches), passes);
        r.set("runtime.steals", per_pass(sums.steals), passes);
        r.set("runtime.parks", per_pass(sums.parks), passes);
        r.set(
            "runtime.heap_magazine_hit_ratio",
            sums.magazine_hits as f64 / (sums.magazine_hits + sums.magazine_misses).max(1) as f64,
            passes,
        );
        r.set(
            "runtime.heap_backend_locks",
            per_pass(sums.backend_locks),
            passes,
        );
        r.set(
            "runtime.peak_heap_mb",
            sums.peak_heap as f64 / (1 << 20) as f64,
            passes,
        );
        let privatized: Vec<f64> = suite
            .iter()
            .map(|p| p.par.transformed.report.privatized_structures() as f64)
            .collect();
        r.set("core.privatized", stats::mean(&privatized), n);
        set_trace_overhead(r, &[traced_pass], &[untraced_pass]);
        crate::write_spans(o, tracer.spans())?;
    } else {
        set_program_percentiles(r, "compile_ms.p50", "compile_ms.p90", &compile_ms);
        set_program_percentiles(r, "latency_ms.p50", "latency_ms.p90", &par_ms);
        r.set("req_per_s", runs as f64 / elapsed, runs);
        r.set("suite_s.p50", stats::median(&pass_s), passes);
        let speedups: Vec<f64> = (0..n)
            .filter(|&k| !exec_ms[k].is_empty())
            .map(|k| stats::min(&serial_exec[k]) / stats::min(&exec_ms[k]))
            .collect();
        r.set("speedup_2t", stats::geomean(&speedups), passes);
        r.set(
            "seq_overhead_instr",
            stats::geomean(&overheads),
            overheads.len(),
        );
    }
    Ok(())
}

/// `wait_spins / (work + wait_spins)`.
fn share(wait_spins: u64, work: u64) -> f64 {
    wait_spins as f64 / (work + wait_spins).max(1) as f64
}

/// The per-layer metric `<prefix><program>`, if the table has one.
fn try_metric_of(prefix: &str, program: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|d| d.name)
        .find(|n| n.strip_prefix(prefix) == Some(program))
}

/// The per-layer metric `<prefix><program>`.
fn metric_of(prefix: &str, program: &str) -> &'static str {
    try_metric_of(prefix, program).expect("every program has a per-program metric")
}
