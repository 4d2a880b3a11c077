//! The `compile` workload: one closed-loop client; every request compiles
//! one program cold (parse → lower → profile → classify → plan → xform →
//! verify on an empty artifact store), which is what every `dsec`
//! invocation pays. Programs are taken round robin; each request profiles
//! on a fresh seeded Profile-scale input set.
//!
//! The traced run alternates a traced request, replayed through the phase
//! functions the pipeline composes with a span around each call, and an
//! untraced request of the same program, so `trace_overhead` compares the
//! two in one run.

use crate::inputs;
use crate::metrics::Results;
use crate::suite::{self, THREADS};
use crate::trace::Tracer;
use crate::{ms, set_program_percentiles, span_metrics, stats, timed_setups, Opts, Tally};
use dse_core::phases::{self, Classified};
use dse_core::{classify_loop, ArtifactStore, OptLevel, Pipeline, Trace};
use dse_runtime::{BackendKind, Vm, VmConfig};
use dse_workloads::{Scale, Workload};
use std::time::Instant;

/// Size counts of one traced compile.
struct Sizes {
    accesses: u64,
    edges: u64,
    stack_instrs: usize,
    reg_instrs: usize,
    privatized: usize,
}

/// Runs the workload.
///
/// # Errors
///
/// A failing set-up.
pub fn run(o: &Opts, r: &mut Results, tally: &mut Tally) -> Result<(), String> {
    // Set-up is one warm-up round of cold compiles; its artifacts serve
    // the generated-code checks at the end.
    let (suite, setup_s) = timed_setups(|| suite::prepare(o.seed).map(|(s, _)| s))?;
    r.set("setup_s", setup_s, crate::SETUPS);

    let n = suite.len() as u64;
    let mut tracer = Tracer::new(o.trace, Instant::now());
    // Per program: traced and untraced request times.
    let mut traced_ms = vec![Vec::new(); suite.len()];
    let mut untraced_ms = vec![Vec::new(); suite.len()];
    let mut sizes = Vec::new();
    let start = Instant::now();
    let mut i: u64 = 0;
    while start.elapsed() < o.seconds {
        // Traced runs take each program twice in a row: traced, untraced.
        let k = if o.trace { (i / 2) % n } else { i % n } as usize;
        let traced = o.trace && i.is_multiple_of(2);
        let p = &suite[k];
        let inputs = inputs::seeded(&p.w, Scale::Profile, o.seed, 1 + i);
        let t0 = Instant::now();
        if traced {
            if let Some(s) = tally.record(traced_compile(&mut tracer, i, &p.w, &inputs)) {
                sizes.push(s);
            }
            traced_ms[k].push(ms(t0.elapsed()));
        } else {
            tally.record(suite::compile_cold(&p.w, &inputs));
            untraced_ms[k].push(ms(t0.elapsed()));
        }
        i += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();

    suite::check_golden_profile(&suite, tally);
    if o.trace {
        let spans = tracer.spans();
        let ops = sizes.len().max(1);
        span_metrics(r, spans, traced_ms.iter().map(Vec::len).sum());
        let mean = |f: &dyn Fn(&Sizes) -> f64| sizes.iter().map(f).sum::<f64>() / ops as f64;
        r.set(
            "depprof.accesses",
            mean(&|s| s.accesses as f64),
            sizes.len(),
        );
        r.set("depprof.edges", mean(&|s| s.edges as f64), sizes.len());
        r.set(
            "ir.stack_instrs",
            mean(&|s| s.stack_instrs as f64),
            sizes.len(),
        );
        r.set("ir.reg_instrs", mean(&|s| s.reg_instrs as f64), sizes.len());
        r.set(
            "core.privatized",
            mean(&|s| s.privatized as f64),
            sizes.len(),
        );
        set_trace_overhead(r, &traced_ms, &untraced_ms);
        crate::write_spans(o, spans)?;
    } else {
        let requests = untraced_ms.iter().map(Vec::len).sum::<usize>();
        set_program_percentiles(r, "compile_ms.p50", "compile_ms.p90", &untraced_ms);
        set_program_percentiles(r, "latency_ms.p50", "latency_ms.p90", &untraced_ms);
        r.set("req_per_s", requests as f64 / elapsed, requests);
        let pass_ms: f64 = untraced_ms.iter().map(|v| stats::median(v)).sum();
        r.set("suite_s.p50", pass_ms / 1e3, requests);
        let (speedup, overhead) = suite::code_metrics(&suite, 5, tally);
        r.set("speedup_2t", speedup, suite.len());
        r.set("seq_overhead_instr", overhead, suite.len());
    }
    Ok(())
}

/// `trace_overhead`: geomean over programs of the median traced request
/// time over the median untraced one.
pub fn set_trace_overhead(r: &mut Results, traced: &[Vec<f64>], untraced: &[Vec<f64>]) {
    let ratios: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .filter(|(t, u)| !t.is_empty() && !u.is_empty())
        .map(|(t, u)| stats::median(t) / stats::median(u))
        .collect();
    if !ratios.is_empty() {
        r.set("trace_overhead", stats::geomean(&ratios), ratios.len());
    }
}

/// One cold compile replayed call by call, each call a span under a
/// request root. Afterwards, outside the request (the default engine does
/// not take that path), the transformed program is lowered to register
/// code and the translation verified.
fn traced_compile(t: &mut Tracer, req: u64, w: &Workload, inputs: &[i64]) -> Result<Sizes, String> {
    t.begin(req);
    let compiled = traced_phases(t, req, w, inputs);
    t.end();
    let (par, mut sizes) = compiled?;
    let store = ArtifactStore::new();
    let (reg, _) = t.leaf("reglower", "ir", req, || {
        Pipeline::new(&store).reglower(&par.parallel, &mut Trace::new())
    });
    let reg = reg.map_err(|e| format!("{}: reglower: {e}", w.name))?;
    let (report, _) = t.leaf("backend", "verify", req, || {
        dse_verify::check_backend(&par.parallel, &reg.reg)
    });
    if report.count(dse_verify::diag::Severity::Error) > 0 {
        return Err(format!("{}: {}", w.name, report.render_text()));
    }
    sizes.reg_instrs = reg.reg.code.len();
    Ok(sizes)
}

/// The request path of [`Pipeline::analyze`], [`Pipeline::transform`] and
/// `dse_verify::check_cached`, one public call at a time. The profile
/// phase is split so the VM build and teardown are timed apart from the
/// profiling run.
fn traced_phases(
    t: &mut Tracer,
    req: u64,
    w: &Workload,
    inputs: &[i64],
) -> Result<(dse_core::Transformed, Sizes), String> {
    let e = |e: dse_core::DseError| format!("{}: {e}", w.name);
    let (parsed, _) = t.leaf("parse", "lang", req, || phases::parse_phase(w.source));
    let (program, _) = parsed.map_err(e)?;
    let (lowered, _) = t.leaf("lower", "ir", req, || phases::lower_phase(&program));
    let (serial, _) = lowered.map_err(e)?;
    t.leaf("fingerprint", "core", req, || {
        (
            phases::ast_fingerprint(&program),
            phases::code_fingerprint(&serial),
        )
    });
    // Profiling always runs on the reference stack encoding.
    let cfg = VmConfig {
        inputs_int: inputs.to_vec(),
        backend: BackendKind::Stack,
        ..Default::default()
    };
    let (vm, _) = t.leaf("vm_build", "runtime", req, || Vm::new(serial.clone(), cfg));
    let mut vm = vm.map_err(|e| format!("{}: {e}", w.name))?;
    let (profile, _) = t.leaf("profile", "depprof", req, || {
        let mut profiler = dse_depprof::Profiler::new(vm.program(), vm.layout());
        vm.run_with_observer(&mut profiler)
            .map(|_| profiler.into_result())
    });
    t.leaf("teardown", "runtime", req, || drop(vm));
    let profile = profile.map_err(|e| format!("{}: profile: {e}", w.name))?;
    t.leaf("fingerprint", "core", req, || {
        phases::profile_fingerprint(&profile)
    });
    let (classifications, _) = t.leaf("classify", "core", req, || {
        profile.loops.iter().map(classify_loop).collect::<Vec<_>>()
    });
    let (pt, _) = t.leaf("points_to", "analysis", req, || {
        dse_analysis::analyze(&program)
    });
    let (alloc_sizes, _) = t.leaf("alloc_sizes", "analysis", req, || {
        dse_analysis::consteval::alloc_size_infos(&program)
    });
    let (accesses, edges) = {
        let (_, a, e) = profile.totals();
        (a, e)
    };
    let stack_instrs = serial.code.len();
    let analysis = phases::assemble_analysis(
        program,
        serial,
        profile,
        Classified {
            classifications,
            pt,
            alloc_sizes,
        },
        Vec::new(),
    );
    let (plan, _) = t.leaf("plan", "core", req, || {
        analysis.plan(OptLevel::Full, THREADS)
    });
    let plan = plan.map_err(e)?;
    let (par, _) = t.leaf("xform", "core", req, || {
        analysis.apply_plan(plan, OptLevel::Full)
    });
    let par = par.map_err(e)?;
    let (report, _) = t.leaf("check", "verify", req, || {
        dse_verify::check_all(&analysis, Some(&par))
    });
    if report.should_fail(false) {
        return Err(format!("{}: {}", w.name, report.render_text()));
    }
    suite::check_modes(w, &par)?;
    let privatized = par.report.privatized_structures();
    Ok((
        par,
        Sizes {
            accesses,
            edges,
            stack_instrs,
            reg_instrs: 0,
            privatized,
        },
    ))
}
