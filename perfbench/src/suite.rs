//! Operations shared by the workloads: cold compiles, program runs and
//! their output checks.

use crate::check::{self, Outputs};
use crate::inputs::{self, scale_name, DEFAULT_SEED};
use crate::stats;
use crate::trace::Tracer;
use crate::Tally;
use dse_core::{AnalysisArt, ArtifactStore, OptLevel, Pipeline, Trace, TransformArt, Transformed};
use dse_ir::bytecode::CompiledProgram;
use dse_runtime::{RunReport, Vm, VmConfig};
use dse_workloads::{Scale, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of every transformed program (the paper's expansion is
/// specialised to this count; it stays within this host's `nproc`).
pub const THREADS: u32 = 2;

/// One program compiled cold on its first Profile-scale input set.
pub struct Prepared {
    /// The workload model.
    pub w: Workload,
    /// Profile-scale input set 0 of the run's seed (the profiling inputs).
    pub inputs: Vec<i64>,
    /// The analysis (serial bytecode, profile, classifications).
    pub art: Arc<AnalysisArt>,
    /// The program transformed for [`THREADS`] workers.
    pub par: Arc<TransformArt>,
}

/// A cold compile as one `dsec` invocation pays it: parse → lower →
/// profile → classify → plan → xform → verify through a pipeline over an
/// empty artifact store, for [`THREADS`] workers at `OptLevel::Full`.
///
/// # Errors
///
/// Pipeline errors, verifier errors, and a classification that differs
/// from the paper's Table 4 parallelism.
pub fn compile_cold(
    w: &Workload,
    profile_inputs: &[i64],
) -> Result<(Arc<AnalysisArt>, Arc<TransformArt>), String> {
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let mut trace = Trace::new();
    let cfg = VmConfig {
        inputs_int: profile_inputs.to_vec(),
        ..Default::default()
    };
    let err = |e: dse_core::DseError| format!("{}: {e}", w.name);
    let art = pipeline.analyze(w.source, &cfg, &mut trace).map_err(err)?;
    let par = pipeline
        .transform(&art, OptLevel::Full, THREADS, false, &mut trace)
        .map_err(err)?;
    let report = dse_verify::check_cached(&store, &art.analysis, &par, &mut trace);
    if report.should_fail(false) {
        return Err(format!(
            "{}: verifier findings:\n{}",
            w.name,
            report.render_text()
        ));
    }
    check_modes(w, &par.transformed)?;
    Ok((art, par))
}

/// Every candidate loop classifies as the paper's Table 4 says.
///
/// # Errors
///
/// Names the loop that classified otherwise.
pub fn check_modes(w: &Workload, t: &Transformed) -> Result<(), String> {
    for label in w.loops {
        let mode = t.modes.get(*label);
        if mode != Some(&w.paper.parallelism) {
            return Err(format!(
                "{}: loop {label} classified {mode:?}, expected {:?}",
                w.name, w.paper.parallelism
            ));
        }
    }
    Ok(())
}

/// Compiles all eight programs cold on Profile-scale input set 0 of
/// `seed`; returns them with each compile's wall time in milliseconds.
///
/// # Errors
///
/// The first compile that fails.
pub fn prepare(seed: u64) -> Result<(Vec<Prepared>, Vec<f64>), String> {
    let mut out = Vec::new();
    let mut ms = Vec::new();
    for w in dse_workloads::all() {
        let inputs = inputs::seeded(&w, Scale::Profile, seed, 0);
        let t0 = Instant::now();
        let (art, par) = compile_cold(&w, &inputs)?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.push(Prepared {
            w,
            inputs,
            art,
            par,
        });
    }
    Ok((out, ms))
}

/// Build, run and drop times of one program run.
#[derive(Debug, Clone, Copy)]
pub struct RunTimes {
    /// `Vm::new`.
    pub build: Duration,
    /// `Vm::run`.
    pub exec: Duration,
    /// Dropping the VM.
    pub teardown: Duration,
}

impl RunTimes {
    /// The whole operation.
    pub fn total(&self) -> Duration {
        self.build + self.exec + self.teardown
    }
}

/// Builds, runs and drops `program` on `inputs`, each step a `runtime`
/// span under operation `req`.
///
/// # Errors
///
/// VM construction errors and traps.
pub fn run_program(
    t: &mut Tracer,
    req: u64,
    program: &CompiledProgram,
    nthreads: u32,
    inputs: &[i64],
) -> Result<(Outputs, RunReport, RunTimes), String> {
    let cfg = VmConfig {
        nthreads,
        inputs_int: inputs.to_vec(),
        ..Default::default()
    };
    let (vm, build) = t.leaf("vm_build", "runtime", req, || Vm::new(program.clone(), cfg));
    let mut vm = vm.map_err(|e| e.to_string())?;
    let (report, exec) = t.leaf("exec", "runtime", req, || vm.run());
    let report = report.map_err(|e| format!("trap: {e}"))?;
    let outputs = Outputs::from_vm(&vm, &report);
    let ((), teardown) = t.leaf("teardown", "runtime", req, || drop(vm));
    Ok((
        outputs,
        report,
        RunTimes {
            build,
            exec,
            teardown,
        },
    ))
}

/// A serial untransformed run checked for informative outputs: the
/// reference the other runs of the same inputs are compared against.
///
/// # Errors
///
/// Run errors and vacuous outputs.
pub fn reference(
    t: &mut Tracer,
    req: u64,
    p: &Prepared,
    inputs: &[i64],
) -> Result<(Outputs, RunReport, RunTimes), String> {
    let (o, rep, times) = run_program(t, req, &p.art.analysis.serial, 1, inputs)?;
    check::informative(&o).map_err(|e| format!("{}: {e}", p.w.name))?;
    Ok((o, rep, times))
}

/// Runs every program serially on the default seed's Profile-scale input
/// set 0 and compares each run with the golden outputs stored with the
/// benchmark. Every run does this, whatever its seed.
pub fn check_golden_profile(suite: &[Prepared], tally: &mut Tally) {
    let mut t = Tracer::new(false, Instant::now());
    for p in suite {
        let inputs = inputs::seeded(&p.w, Scale::Profile, DEFAULT_SEED, 0);
        let r = reference(&mut t, 0, p, &inputs)
            .and_then(|(o, _, _)| compare_golden(Scale::Profile, p.w.name, &o));
        tally.record(r);
    }
}

/// Compares `o` with the stored golden outputs of `program` at `scale`.
///
/// # Errors
///
/// A missing record or any differing channel.
pub fn compare_golden(scale: Scale, program: &str, o: &Outputs) -> Result<(), String> {
    let g = check::golden(scale_name(scale), program)?;
    check::compare(&g, o)
        .map_err(|e| format!("{program}: golden {} outputs: {e}", scale_name(scale)))
}

/// The generated-code metrics of a workload that does not time program
/// runs itself, on each program's Profile-scale input set 0: the speedup
/// of the transformed 2-thread program over the serial original (fastest
/// of `reps` interleaved `Vm::run` times each), and the instruction
/// ratio of the program transformed for one thread over the original.
/// Every run's outputs are checked against the first serial run's.
/// Returns the geomeans over programs.
pub fn code_metrics(suite: &[Prepared], reps: usize, tally: &mut Tally) -> (f64, f64) {
    let mut t = Tracer::new(false, Instant::now());
    let mut speedups = Vec::new();
    let mut overheads = Vec::new();
    for p in suite {
        let inputs = &p.inputs;
        let mut one_program = || -> Result<(f64, f64), String> {
            let check = |want: &Outputs, got: &Outputs| {
                check::compare(want, got).map_err(|e| format!("{}: {e}", p.w.name))
            };
            let (want, serial, _) = reference(&mut t, 0, p, inputs)?;
            let one = p
                .art
                .analysis
                .transform(OptLevel::Full, 1)
                .map_err(|e| e.to_string())?;
            let (got, par1, _) = run_program(&mut t, 0, &one.parallel, 1, inputs)?;
            check(&want, &got)?;
            let (mut serial_s, mut par_s) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                let (got, _, st) = reference(&mut t, 0, p, inputs)?;
                check(&want, &got)?;
                serial_s.push(st.exec.as_secs_f64());
                let (got, _, pt) =
                    run_program(&mut t, 0, &p.par.transformed.parallel, THREADS, inputs)?;
                check(&want, &got)?;
                par_s.push(pt.exec.as_secs_f64());
            }
            Ok((
                stats::min(&serial_s) / stats::min(&par_s),
                par1.counters.work as f64 / serial.counters.work as f64,
            ))
        };
        let r = one_program().map(|(speedup, overhead)| {
            speedups.push(speedup);
            overheads.push(overhead);
        });
        tally.record(r);
    }
    (stats::geomean(&speedups), stats::geomean(&overheads))
}
