//! Executor dispatch microbenchmarks.
//!
//! * back-to-back dispatch: a serial loop driving 200 tiny parallel loops
//!   at 8 threads on the persistent pool — the "sustained traffic" shape
//!   where the dispatch machinery itself is the cost.
//! * steal imbalance: a skewed workload (first eighth of the iterations
//!   carry ~800x the work) under work stealing. Wall time only shows the
//!   balance on a multi-core host, so the *modeled makespan* — the maximum
//!   per-worker instruction count, i.e. the finish time on ideal cores —
//!   is reported alongside.

use dse_bench::harness;
use dse_ir::bytecode::CompiledProgram;
use dse_ir::loops::ParMode;
use dse_ir::lower::{LowerMode, LowerOptions, ParLoopSpec};
use dse_runtime::{Vm, VmConfig};

const NTHREADS: u32 = 8;

/// 200 back-to-back dispatches of a 64-iteration loop: almost no work per
/// dispatch, so the measurement is the dispatch machinery itself.
const DISPATCH_SRC: &str = "int main() {
    int *a; a = malloc(64 * sizeof(int));
    for (int r = 0; r < 200; r++) {
        #pragma candidate tiny
        for (int i = 0; i < 64; i++) { a[i] = a[i] + r; }
    }
    int s; s = 0;
    for (int i = 0; i < 64; i++) { s += a[i]; }
    free(a);
    return s % 256; }";

/// Skewed DOALL: iterations 0..64 run an ~800x inner loop, the remaining
/// 448 are trivial, so an even 8-way split leaves one worker with nearly
/// all the work until the others steal it. The work sits in a function so
/// its locals live on each worker's private stack.
const SKEW_SRC: &str = "int burn(int i) {
        int w; w = i < 64 ? 800 : 1;
        int acc; acc = 0;
        for (int k = 0; k < w; k++) { acc = acc + i + k; }
        return acc;
    }
    int main() {
    int *a; a = malloc(512 * sizeof(int));
    #pragma candidate skew
    for (int i = 0; i < 512; i++) { a[i] = burn(i); }
    int s; s = 0;
    for (int i = 0; i < 512; i++) { s += a[i]; }
    free(a);
    return s % 100000; }";

fn compile_parallel(src: &str) -> CompiledProgram {
    let ast = dse_lang::compile_to_ast(src).expect("frontend");
    let cands = dse_ir::loops::find_candidate_loops(&ast).expect("candidates");
    let mut opts = LowerOptions {
        mode: LowerMode::Parallel,
        ..Default::default()
    };
    for c in &cands {
        opts.par.insert(
            c.label.clone(),
            ParLoopSpec {
                mode: ParMode::DoAll,
                sync_window: None,
            },
        );
    }
    dse_ir::lower_program(&ast, &opts).expect("lowering")
}

/// Lean arena so `Vm::new` cost stays off the timed path (the VM is built
/// once per case and `run` repeatedly — both programs free everything).
fn config() -> VmConfig {
    VmConfig {
        mem_bytes: 16 << 20,
        stack_bytes: 256 << 10,
        nthreads: NTHREADS,
        ..Default::default()
    }
}

fn main() {
    let group = harness::group("dispatch_latency");

    // -- back-to-back dispatch ----------------------------------------------
    let mut vm = Vm::new(compile_parallel(DISPATCH_SRC), config()).expect("vm");
    group.bench("back_to_back_200/pool", || {
        vm.run().expect("run");
    });

    // -- steal imbalance: skewed work --------------------------------------
    let skew = compile_parallel(SKEW_SRC);
    let mut vm = Vm::new(skew.clone(), config()).expect("vm");
    group.bench("skew_512/stealing", || {
        vm.run().expect("run");
    });
    // Modeled makespan: the maximum per-worker instruction count of one run
    // on a fresh VM (per-worker counters accumulate across runs), against
    // the perfectly balanced share.
    let report = Vm::new(skew, config()).expect("vm").run().expect("run");
    let span = report.per_thread.iter().map(|c| c.work).max().unwrap_or(0);
    let ideal = report.counters.work / u64::from(NTHREADS);
    println!(
        "dispatch_latency/skew_512 modeled makespan: {span} instructions \
         (ideal {ideal}, {:.2}x of balanced)",
        span as f64 / ideal.max(1) as f64
    );
}
