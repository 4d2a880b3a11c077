//! `dsec` — the data-structure-expansion compiler driver.
//!
//! ```text
//! dsec <program.cee> [--threads N] [--opt none|noconst|full] [--baseline]
//!      [--emit source|report|ddg|bytecode|trace|chrome-trace|flamegraph]
//!      [--run] [--serial] [--exec-backend stack|reg] [--strict] [--timing]
//!      [--metrics <path|->] [--in 1,2,3] [--daemon <socket>]
//! dsec check <program.cee> [--threads N] [--opt none|noconst|full]
//!      [--strict] [--json] [--backend] [--in 1,2,3] [--daemon <socket>]
//! dsec profile <program.cee> [--threads N] [--opt none|noconst|full]
//!      [--exec-backend stack|reg] [--in 1,2,3]
//! ```
//!
//! All three subcommands parse their flags from one table, which also
//! generates the usage text; `--threads` must be at least 1.
//!
//! Examples:
//!
//! ```text
//! dsec prog.cee --emit report                 # what would be privatized
//! dsec prog.cee --emit source --threads 4     # the transformed program
//! dsec prog.cee --run --threads 8             # transform and execute
//! dsec prog.cee --run --serial                # reference run
//! dsec prog.cee --run --timing --metrics -    # telemetry JSON on stdout
//! dsec prog.cee --emit trace > trace.jsonl    # serial execution as JSONL
//! dsec prog.cee --emit chrome-trace > t.json  # Perfetto-loadable timeline
//! dsec prog.cee --emit flamegraph > t.folded  # folded flamegraph stacks
//! dsec prog.cee --run --daemon /tmp/dsed.sock # execute via a dsed daemon
//! dsec check prog.cee                         # soundness lints, text
//! dsec check prog.cee --strict --json         # CI gate, machine-readable
//! dsec profile prog.cee --threads 8           # per-loop opcode hot table
//! ```
//!
//! `dsec check` runs the privatization-soundness verifier (see DESIGN.md,
//! "Verification"): pass 1 cross-checks the profiled classifications
//! against a conservative static dependence approximation, pass 2 checks
//! the transformed output against the Table 1–3 invariants. The same
//! verifier runs automatically before `--emit source|report|bytecode`,
//! `--run` and `--metrics`; error-severity findings abort the drive.
//! `dsec check --backend` additionally verifies both executable encodings
//! (see DESIGN.md, "Backend verification"): stack-bytecode discipline and
//! bounds (`DSE010`/`DSE011`), register window/def-use/spill safety
//! (`DSE012`/`DSE013`), and symbolic stack-vs-register translation
//! validation (`DSE014`/`DSE015`). The same verification gates every
//! register-backend execution automatically (cached as the `regverify`
//! phase); `--run --exec-backend reg --strict` makes the VM itself refuse
//! any translation the verifier has not marked clean.
//!
//! Exit codes: `0` clean; `1` verifier errors (or warnings under
//! `--strict`), compile or runtime failures; `2` usage or I/O errors.
//!
//! `--timing` prints the phase timeline (parse, lower, profile, classify,
//! plan, xform) to stderr. `--metrics` writes a `RunMetrics` JSON document
//! (see DESIGN.md, "Observability") to a file, or to stdout with `-`.
//! `--emit trace` executes the *serial* program under a trace observer and
//! streams each sited access, loop event and heap event as one JSON object
//! per line on stdout. `--emit chrome-trace` and `--emit flamegraph`
//! execute the *transformed* program with the runtime trace ring enabled
//! (see DESIGN.md, "Tracing & profiling") and print a Chrome trace-event
//! JSON document (pipeline phases and runtime events on one timeline) or
//! folded flamegraph stacks. `dsec profile` runs the transformed program
//! under the attributing opcode profiler and prints a hot-loop table:
//! wall time, iterations, instruction-class mix and per-iteration cost
//! quantiles per loop.
//!
//! Every drive runs through the content-addressed pipeline
//! ([`dse_core::Pipeline`]): phases are computed once per process and
//! shared by every consumer (`--emit` handlers, the executed program, the
//! verifier, the telemetry snapshot). `--daemon <socket>` sends the request
//! to a running `dsed` daemon instead (see DESIGN.md, "The dsed daemon"),
//! where the same cache is shared across *processes and requests*.

use dse_core::{Analysis, ArtifactStore, OptLevel, Pipeline, Trace, TransformArt};
use dse_runtime::{BackendKind, Vm, VmConfig};
use dse_telemetry::{Json, LintStats, RunMetrics, TraceObserver};
use dse_verify::diag::Severity;
use dse_verify::sabotage;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

/// Verifier errors (or strict-mode warnings), compile and runtime failures.
const EXIT_DIAG: u8 = 1;
/// Bad command line, unreadable input, unwritable output.
const EXIT_USAGE: u8 = 2;

/// The subcommands; each accepts its own subset of [`FLAGS`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cmd {
    /// `dsec <program.cee>`: transform, emit and run.
    Drive,
    /// `dsec check <program.cee>`: the verifier.
    Check,
    /// `dsec profile <program.cee>`: the opcode profiler.
    Profile,
}

impl Cmd {
    const ALL: &'static [Cmd] = &[Cmd::Drive, Cmd::Check, Cmd::Profile];

    /// The words between `dsec` and the program path.
    fn prefix(self) -> &'static str {
        match self {
            Cmd::Drive => "",
            Cmd::Check => "check ",
            Cmd::Profile => "profile ",
        }
    }
}

/// The parsed command line of any subcommand (fields a subcommand does
/// not accept keep their defaults).
struct Opts {
    path: String,
    threads: u32,
    opt: OptLevel,
    inputs: Vec<i64>,
    daemon: Option<String>,
    /// `--exec-backend`, when given; each subcommand picks its own default.
    exec_backend: Option<BackendKind>,
    strict: bool,
    baseline: bool,
    emit: Vec<String>,
    run: bool,
    serial: bool,
    timing: bool,
    metrics: Option<String>,
    json: bool,
    /// `check --backend`: also verify both executable encodings.
    verify_backend: bool,
    sabotage: Option<sabotage::Kind>,
}

/// The artifacts `--emit` can print.
const EMIT_KINDS: &str = "source|report|ddg|bytecode|trace|chrome-trace|flamegraph";

/// Every flag as `(name, value placeholder, subcommands that accept it)`;
/// a switch has no placeholder. The parser and the usage text both read
/// this table, and [`Opts::set`] gives each flag its meaning.
const FLAGS: &[(&str, Option<&str>, &[Cmd])] = &[
    ("--threads", Some("N"), Cmd::ALL),
    ("--opt", Some("none|noconst|full"), Cmd::ALL),
    ("--baseline", None, &[Cmd::Drive]),
    ("--emit", Some(EMIT_KINDS), &[Cmd::Drive]),
    ("--run", None, &[Cmd::Drive]),
    ("--serial", None, &[Cmd::Drive]),
    (
        "--exec-backend",
        Some("stack|reg"),
        &[Cmd::Drive, Cmd::Profile],
    ),
    ("--strict", None, &[Cmd::Drive, Cmd::Check]),
    ("--json", None, &[Cmd::Check]),
    ("--backend", None, &[Cmd::Check]),
    ("--sabotage", Some("KIND"), &[Cmd::Check]),
    ("--timing", None, &[Cmd::Drive]),
    ("--metrics", Some("<path|->"), &[Cmd::Drive]),
    ("--in", Some("1,2,3"), Cmd::ALL),
    ("--daemon", Some("<socket>"), &[Cmd::Drive, Cmd::Check]),
];

/// Accepted but left out of the usage text: seeds one known miscompile
/// before verifying, so CI's mutation-smoke step can prove the checkers
/// fire.
const UNDOCUMENTED: &str = "--sabotage";

impl Opts {
    /// Stores one flag from [`FLAGS`] (a switch gets an empty value). An
    /// error is a malformed value.
    fn set(&mut self, flag: &str, v: &str) -> Result<(), String> {
        match flag {
            "--threads" => {
                self.threads = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--threads wants a positive integer, got `{v}`"))?
            }
            "--opt" => {
                self.opt = OptLevel::parse(v).ok_or_else(|| format!("unknown --opt `{v}`"))?
            }
            "--baseline" => self.baseline = true,
            "--emit" => {
                if !EMIT_KINDS.split('|').any(|k| k == v) {
                    return Err(format!("unknown --emit `{v}`"));
                }
                // A repeated value would just print the same artifact twice.
                if !self.emit.iter().any(|e| e == v) {
                    self.emit.push(v.to_string());
                }
            }
            "--run" => self.run = true,
            "--serial" => self.serial = true,
            "--exec-backend" => {
                let b = BackendKind::parse(v);
                self.exec_backend = Some(b.ok_or_else(|| format!("unknown --exec-backend `{v}`"))?)
            }
            "--strict" => self.strict = true,
            "--json" => self.json = true,
            "--backend" => self.verify_backend = true,
            "--sabotage" => {
                let k = sabotage::Kind::parse(v);
                self.sabotage = Some(k.ok_or_else(|| format!("unknown --sabotage kind `{v}`"))?)
            }
            "--timing" => self.timing = true,
            "--metrics" => self.metrics = Some(v.to_string()),
            "--in" => {
                self.inputs = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("--in wants comma-separated integers, got `{v}`"))?
            }
            "--daemon" => self.daemon = Some(v.to_string()),
            other => unreachable!("{other} is missing from Opts::set"),
        }
        Ok(())
    }
}

/// A drive failure, split by which exit code it maps to.
enum Fail {
    /// Usage or file system problem: exit 2.
    Usage(String),
    /// Compile or runtime problem: exit 1.
    Other(String),
}

fn usage() -> ! {
    let lines: Vec<String> = Cmd::ALL
        .iter()
        .map(|&cmd| {
            let mut line = format!("dsec {}<program.cee>", cmd.prefix());
            for &(name, value, cmds) in FLAGS {
                if name == UNDOCUMENTED || !cmds.contains(&cmd) {
                    continue;
                }
                match value {
                    Some(v) => line.push_str(&format!(" [{name} {v}]")),
                    None => line.push_str(&format!(" [{name}]")),
                }
            }
            line
        })
        .collect();
    eprintln!("usage: {}", lines.join("\n       "));
    std::process::exit(EXIT_USAGE as i32)
}

/// Parses the arguments after the subcommand word: exits 2 with the usage
/// text on an unknown flag, a missing value or a missing program path, and
/// with a message on a malformed value.
fn parse_opts(cmd: Cmd, args: &[String]) -> Opts {
    let mut o = Opts {
        path: String::new(),
        threads: 4,
        opt: OptLevel::Full,
        inputs: Vec::new(),
        daemon: None,
        exec_backend: None,
        strict: false,
        baseline: false,
        emit: Vec::new(),
        run: false,
        serial: false,
        timing: false,
        metrics: None,
        json: false,
        verify_backend: false,
        sabotage: None,
    };
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let Some(&(name, value, _)) = FLAGS.iter().find(|f| f.0 == a && f.2.contains(&cmd)) else {
            if o.path.is_empty() && !a.starts_with('-') {
                o.path = a.clone();
                continue;
            }
            usage();
        };
        let v = match value {
            Some(_) => args.next().unwrap_or_else(|| usage()),
            None => "",
        };
        if let Err(msg) = o.set(name, v) {
            eprintln!("dsec: {msg}");
            std::process::exit(EXIT_USAGE as i32);
        }
    }
    if o.path.is_empty() {
        usage();
    }
    o
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some("check") => (Cmd::Check, &args[1..]),
        Some("profile") => (Cmd::Profile, &args[1..]),
        _ => (Cmd::Drive, &args[..]),
    };
    let o = parse_opts(cmd, rest);
    let result = match (cmd, &o.daemon) {
        (Cmd::Drive, Some(sock)) => daemon_drive(&o, sock),
        (Cmd::Drive, None) => drive(&o),
        (Cmd::Check, _) => check(&o),
        (Cmd::Profile, _) => profile(&o),
    };
    match result {
        Ok(code) => code,
        Err(Fail::Usage(msg)) => {
            eprintln!("dsec: {msg}");
            ExitCode::from(EXIT_USAGE)
        }
        Err(Fail::Other(msg)) => {
            eprintln!("dsec: {msg}");
            ExitCode::from(EXIT_DIAG)
        }
    }
}

fn read_source(path: &str) -> Result<String, Fail> {
    std::fs::read_to_string(path).map_err(|e| Fail::Usage(format!("{path}: {e}")))
}

/// `dsec check <file>`: run the verifier and print the report.
fn check(o: &Opts) -> Result<ExitCode, Fail> {
    if o.sabotage.is_some() && !o.verify_backend {
        return Err(Fail::Usage("--sabotage requires --backend".into()));
    }
    if o.verify_backend && o.daemon.is_some() {
        return Err(Fail::Usage(
            "--backend runs standalone; the daemon verifies translations \
             automatically on every register-backend run"
                .into(),
        ));
    }
    let source = read_source(&o.path)?;
    if let Some(sock) = &o.daemon {
        let req = daemon_json(
            "dsec-check",
            "check",
            o,
            source,
            vec![("strict", Json::Bool(o.strict))],
        );
        let resp = daemon_request(sock, &req)?;
        // `check` renders the report on stdout like the standalone path;
        // failures already carry exit 1 in the response.
        for d in diagnostics_of(&resp) {
            println!("{d}");
        }
        return Ok(exit_of(&resp));
    }
    let cfg = VmConfig {
        inputs_int: o.inputs.clone(),
        ..Default::default()
    };
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let mut trace = Trace::new();
    let art = pipeline
        .analyze(&source, &cfg, &mut trace)
        .map_err(|e| Fail::Other(e.to_string()))?;
    // Pass 2 checks the transform's output, so the check transforms too.
    // A transform failure still reports pass 1 before failing.
    let transformed = pipeline.transform(&art, o.opt, o.threads, false, &mut trace);
    let mut report = match &transformed {
        Ok(t) => (*dse_verify::check_cached(&store, &art.analysis, t, &mut trace)).clone(),
        Err(_) => dse_verify::check_all(&art.analysis, None),
    };
    let reg_failed = |e: dse_core::DseError| Fail::Other(format!("register lowering failed: {e}"));
    if o.verify_backend {
        match o.sabotage {
            None => {
                // Verify both executable encodings of both programs, through
                // the cached `regverify` phase like the implicit run gate.
                let mut progs = vec![art.analysis.serial.clone()];
                if let Ok(t) = &transformed {
                    progs.push(t.transformed.parallel.clone());
                }
                for prog in &progs {
                    let regart = pipeline.reglower(prog, &mut trace).map_err(reg_failed)?;
                    report.extend(
                        (*dse_verify::check_backend_cached(&store, prog, &regart, &mut trace))
                            .clone(),
                    );
                }
            }
            Some(kind) => {
                let prog = art.analysis.serial.clone();
                let sab = if kind.is_stack() {
                    let mut p = prog.clone();
                    let hit = sabotage::sabotage_stack(&mut p, kind);
                    hit.then(|| dse_verify::check_stack(&p))
                } else {
                    let mut rp =
                        dse_ir::regcode::translate(&prog).map_err(|e| reg_failed(e.into()))?;
                    let hit = sabotage::sabotage_reg(&prog, &mut rp, kind);
                    hit.then(|| dse_verify::check_backend(&prog, &rp))
                };
                let Some(r) = sab else {
                    return Err(Fail::Usage(format!(
                        "program offers no site for sabotage `{}`",
                        kind.name()
                    )));
                };
                report.extend(r);
            }
        }
        report.sort();
    }
    if o.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if let Err(e) = &transformed {
        return Err(Fail::Other(format!("transform failed: {e}")));
    }
    Ok(if report.should_fail(o.strict) {
        ExitCode::from(EXIT_DIAG)
    } else {
        ExitCode::SUCCESS
    })
}

/// The implicit verification pass before any use of the transform: prints
/// findings to stderr and fails the drive on error-severity ones. Cached by
/// the transform's content key, like every other phase.
fn verify_transform(
    store: &ArtifactStore,
    analysis: &Analysis,
    xform: &TransformArt,
    path: &str,
    trace: &mut Trace,
) -> Result<LintStats, Fail> {
    let report = dse_verify::check_cached(store, analysis, xform, trace);
    for d in &report.diagnostics {
        eprintln!("dsec: {}", d.render());
    }
    let stats = LintStats {
        errors: report.count(Severity::Error) as u64,
        warnings: report.count(Severity::Warning) as u64,
        infos: report.count(Severity::Info) as u64,
    };
    if report.should_fail(false) {
        return Err(Fail::Other(format!(
            "verification failed with {} error(s); see `dsec check {path}`",
            stats.errors
        )));
    }
    Ok(stats)
}

/// Builds a VM honoring the requested execution backend. The register
/// lowering runs as a cached pipeline phase ("reglower"), so repeated
/// drives of the same bytecode share one translation — and every
/// translation is gated through the cached `regverify` phase
/// (`DSE010`–`DSE015`) before a VM may execute it.
fn make_vm(
    store: &ArtifactStore,
    pipeline: &Pipeline,
    backend: BackendKind,
    compiled: dse_ir::bytecode::CompiledProgram,
    mut config: VmConfig,
    trace: &mut Trace,
) -> Result<Vm, Fail> {
    config.backend = backend;
    match backend {
        BackendKind::Stack => Vm::new(compiled, config),
        BackendKind::Reg => {
            let art = pipeline
                .reglower(&compiled, trace)
                .map_err(|e| Fail::Other(e.to_string()))?;
            let report = dse_verify::check_backend_cached(store, &compiled, &art, trace);
            if report.count(Severity::Error) > 0 {
                for d in &report.diagnostics {
                    eprintln!("dsec: {}", d.render());
                }
                return Err(Fail::Other(format!(
                    "register translation failed verification with {} error(s) \
                     (DSE010-DSE015); refusing to execute it",
                    report.count(Severity::Error)
                )));
            }
            Vm::with_reg(compiled, Arc::clone(&art.reg), config)
        }
    }
    .map_err(|e| Fail::Other(e.to_string()))
}

fn drive(o: &Opts) -> Result<ExitCode, Fail> {
    let source = read_source(&o.path)?;
    // `--exec-backend` overrides; otherwise DSE_EXEC_BACKEND decides.
    let backend = o.exec_backend.unwrap_or_else(BackendKind::from_env);
    let cfg = VmConfig {
        inputs_int: o.inputs.clone(),
        ..Default::default()
    };
    // One process-local artifact store: every consumer below (emit
    // handlers, the executed program, the verifier, telemetry) shares the
    // same phase artifacts instead of recomputing them.
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let mut trace = Trace::new();
    let art = pipeline
        .analyze(&source, &cfg, &mut trace)
        .map_err(|e| Fail::Other(e.to_string()))?;
    let analysis = &art.analysis;

    let needs_transform = (o.run && !o.serial)
        || o.timing
        || o.metrics.is_some()
        || o.emit.iter().any(|e| {
            matches!(
                e.as_str(),
                "report" | "source" | "bytecode" | "chrome-trace" | "flamegraph"
            )
        });
    let transformed: Option<Arc<TransformArt>> = if needs_transform {
        Some(
            pipeline
                .transform(&art, o.opt, o.threads, o.baseline, &mut trace)
                .map_err(|e| Fail::Other(e.to_string()))?,
        )
    } else {
        None
    };

    // Every transform is verified before its output is used.
    let lints: Option<LintStats> = match &transformed {
        Some(t) => Some(verify_transform(&store, analysis, t, &o.path, &mut trace)?),
        None => None,
    };

    for emit in &o.emit {
        match emit.as_str() {
            "ddg" => {
                for (ddg, cls) in analysis.profile.loops.iter().zip(&analysis.classifications) {
                    println!(
                        "loop `{}`: {} iterations, {} sites, {} edges, mode {:?}",
                        ddg.label,
                        ddg.iterations,
                        ddg.site_counts.len(),
                        ddg.edges.len(),
                        cls.mode
                    );
                    let b = cls.access_breakdown(ddg);
                    let (f, e, c) = b.fractions();
                    println!(
                        "  accesses: {:.1}% free, {:.1}% expandable, {:.1}% carried",
                        100.0 * f,
                        100.0 * e,
                        100.0 * c
                    );
                }
            }
            "report" => {
                let t = &transformed
                    .as_ref()
                    .expect("transform computed above")
                    .transformed;
                let r = &t.report;
                println!("expansion report (N = {}, {:?}):", o.threads, o.opt);
                println!(
                    "  privatized data structures: {}",
                    r.privatized_structures()
                );
                println!("    heap allocation sites:    {}", r.expanded_allocs);
                println!("    globals:                  {}", r.expanded_globals);
                println!("    aggregate locals:         {}", r.expanded_locals);
                println!("  expanded scalars:           {}", r.expanded_scalar_locals);
                println!("  fat pointer types:          {}", r.fat_pointer_types);
                println!("  span-carrying integers:     {}", r.fat_int_vars);
                println!(
                    "  span stores inserted:       {} ({} elided)",
                    r.span_stores_emitted, r.span_stores_elided
                );
                println!(
                    "  private accesses redirected: {}",
                    r.private_accesses_redirected
                );
                for (label, mode) in &t.modes {
                    println!("  loop `{label}` scheduled {mode:?}");
                }
            }
            "source" => {
                let t = &transformed
                    .as_ref()
                    .expect("transform computed above")
                    .transformed;
                print!("{}", dse_lang::printer::print_program(&t.program));
            }
            "bytecode" => {
                let t = &transformed
                    .as_ref()
                    .expect("transform computed above")
                    .transformed;
                print!("{}", dse_ir::disasm::disassemble(&t.parallel));
            }
            "chrome-trace" | "flamegraph" => {
                let t = &transformed
                    .as_ref()
                    .expect("transform computed above")
                    .transformed;
                let mut vm = make_vm(
                    &store,
                    &pipeline,
                    backend,
                    t.parallel.clone(),
                    VmConfig {
                        nthreads: o.threads,
                        inputs_int: o.inputs.clone(),
                        trace: true,
                        strict: o.strict,
                        ..Default::default()
                    },
                    &mut trace,
                )?;
                vm.run().map_err(|e| Fail::Other(e.to_string()))?;
                let (mut events, dropped) = vm.take_trace();
                if emit == "flamegraph" {
                    print!("{}", dse_telemetry::flamegraph_folded(&events));
                    eprintln!("[flamegraph: {} events]", events.len());
                } else {
                    // VM timestamps are measured from `Vm::new`; shift them
                    // onto the store's epoch so pipeline phase spans and
                    // runtime events share one timeline.
                    let shift = vm
                        .trace_epoch()
                        .map(|e| e.saturating_duration_since(store.epoch()).as_nanos() as u64)
                        .unwrap_or(0);
                    for ev in &mut events {
                        ev.ts_ns += shift;
                    }
                    let spans = pipeline_spans(&trace);
                    println!("{}", dse_telemetry::chrome_trace(&events, &spans, dropped));
                    eprintln!("[chrome-trace: {} events, {dropped} dropped]", events.len());
                }
            }
            "trace" => {
                // The observer sees what the profiler sees: a serial
                // execution (parallel regions run unobserved by design).
                let mut vm = Vm::new(analysis.serial.clone(), cfg.clone())
                    .map_err(|e| Fail::Other(e.to_string()))?;
                let stdout = std::io::stdout();
                let mut obs = TraceObserver::new(std::io::BufWriter::new(stdout.lock()));
                vm.run_with_observer(&mut obs)
                    .map_err(|e| Fail::Other(e.to_string()))?;
                let events = obs.events();
                obs.finish().map_err(|e| Fail::Other(e.to_string()))?;
                eprintln!("[trace: {events} events]");
            }
            other => unreachable!("--emit values validated by the flag table: {other}"),
        }
    }

    let mut exit = ExitCode::SUCCESS;
    let mut run_report = None;
    if o.run {
        let compiled = if o.serial {
            analysis.serial.clone()
        } else {
            transformed
                .as_ref()
                .expect("transform computed above")
                .transformed
                .parallel
                .clone()
        };
        let n = if o.serial { 1 } else { o.threads };
        let mut vm = make_vm(
            &store,
            &pipeline,
            backend,
            compiled,
            VmConfig {
                nthreads: n,
                inputs_int: o.inputs.clone(),
                strict: o.strict,
                ..Default::default()
            },
            &mut trace,
        )?;
        let report = vm.run().map_err(|e| Fail::Other(e.to_string()))?;
        print!("{}", vm.console());
        let outs = vm.outputs_int();
        if !outs.is_empty() {
            println!("out_long: {outs:?}");
        }
        let fouts = vm.outputs_float();
        if !fouts.is_empty() {
            println!("out_float: {fouts:?}");
        }
        eprintln!(
            "[{} instructions, peak heap {} bytes]",
            report.counters.work, report.peak_heap_bytes
        );
        if report.pool.workers > 0 {
            eprintln!(
                "[pool: {} workers, {} dispatches, {} steals, {} parks, {} wakeups]",
                report.pool.workers,
                report.pool.dispatches,
                report.pool.steals,
                report.pool.parks,
                report.pool.wakeups
            );
        }
        if let Some(dse_runtime::Value::I(code)) = report.return_value {
            exit = ExitCode::from((code & 0xff) as u8);
        }
        run_report = Some(report);
    }

    // Phase timeline: analysis phases followed by transform phases.
    let phases: Vec<dse_telemetry::PhaseSpan> = analysis
        .phases
        .iter()
        .chain(transformed.iter().flat_map(|t| t.transformed.phases.iter()))
        .cloned()
        .collect();

    if o.timing {
        let mut out = String::new();
        for p in &phases {
            p.render(0, &mut out);
        }
        eprint!("{out}");
    }

    if let Some(dest) = &o.metrics {
        let mut server = store.stats();
        server.requests = 1;
        let metrics = RunMetrics {
            program: o.path.clone(),
            threads: if o.serial { 1 } else { o.threads },
            opt: o.opt.name().to_string(),
            phases,
            loops: analysis.loop_stats(),
            expansion: transformed
                .as_ref()
                .map(|t| t.transformed.report.telemetry_stats()),
            lints,
            vm: run_report
                .as_ref()
                .map(dse_telemetry::metrics::VmStats::from_report),
            server: Some(server),
        };
        let mut text = metrics.to_json().to_string();
        text.push('\n');
        if dest == "-" {
            std::io::stdout().write_all(text.as_bytes())?;
        } else {
            std::fs::write(dest, text).map_err(|e| Fail::Usage(format!("{dest}: {e}")))?;
        }
    }

    Ok(exit)
}

/// Pipeline phase outcomes in the chrome exporter's neutral span form,
/// named `phase (outcome)` and placed at their store-epoch offsets.
fn pipeline_spans(trace: &Trace) -> Vec<dse_telemetry::PipelineSpan> {
    trace
        .iter()
        .map(|p| dse_telemetry::PipelineSpan {
            name: format!("{} ({})", p.phase, p.outcome.as_str()),
            ts_ns: p.at.as_nanos() as u64,
            dur_ns: p.wall.as_nanos() as u64,
        })
        .collect()
}

/// `dsec profile <file>`: run the transformed program under the
/// attributing opcode profiler and print the hot-loop table.
fn profile(o: &Opts) -> Result<ExitCode, Fail> {
    // The opcode profiler attributes per stack opcode; the register
    // backend's fused super-instructions would skew the table (DSE009).
    // An explicit request is a usage error; the ambient environment
    // default is overridden with a warning so `DSE_EXEC_BACKEND=reg`
    // sweeps still profile meaningfully.
    let backend = match o.exec_backend {
        Some(BackendKind::Reg) => {
            eprintln!(
                "dsec: error[DSE009]: {}",
                dse_verify::diag::Code::ProfileBackendMismatch.summary()
            );
            return Err(Fail::Usage(
                "hint: fused register super-instructions skew per-opcode \
                 attribution; drop `--exec-backend reg` to profile on the stack \
                 (reference) encoding"
                    .into(),
            ));
        }
        Some(b) => b,
        None => match BackendKind::from_env() {
            BackendKind::Reg => {
                eprintln!(
                    "dsec: warning[DSE009]: DSE_EXEC_BACKEND=reg ignored for \
                     profiling; pinning to the stack backend"
                );
                BackendKind::Stack
            }
            b => b,
        },
    };
    let source = read_source(&o.path)?;
    let cfg = VmConfig {
        inputs_int: o.inputs.clone(),
        ..Default::default()
    };
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let mut trace = Trace::new();
    let art = pipeline
        .analyze(&source, &cfg, &mut trace)
        .map_err(|e| Fail::Other(e.to_string()))?;
    let t = pipeline
        .transform(&art, o.opt, o.threads, false, &mut trace)
        .map_err(|e| Fail::Other(e.to_string()))?;
    verify_transform(&store, &art.analysis, &t, &o.path, &mut trace)?;
    let prog = &t.transformed.parallel;
    let mut vm = make_vm(
        &store,
        &pipeline,
        backend,
        prog.clone(),
        VmConfig {
            nthreads: o.threads,
            inputs_int: o.inputs.clone(),
            opcode_profile: true,
            ..Default::default()
        },
        &mut trace,
    )?;
    vm.run().map_err(|e| Fail::Other(e.to_string()))?;
    print!("{}", render_profile(&vm.opcode_profile(), prog));
    Ok(ExitCode::SUCCESS)
}

/// The hot-loop table: one row per loop (the VM pre-sorts by wall time,
/// then instructions), with the class mix and iteration-cost quantiles.
fn render_profile(
    profiles: &[dse_runtime::LoopProfile],
    prog: &dse_ir::bytecode::CompiledProgram,
) -> String {
    use dse_runtime::{CLASS_NAMES, SERIAL_LOOP};
    let total: u64 = profiles.iter().map(|p| p.total_instructions()).sum();
    let mut out = format!(
        "{:<16} {:>9} {:>10} {:>12} {:>6} {:>7} {:>7} {:>7}  top classes\n",
        "loop", "wall ms", "iters", "instr", "%", "p50", "p90", "p99"
    );
    for p in profiles {
        let name = if p.loop_id == SERIAL_LOOP {
            "(serial)".to_string()
        } else {
            prog.loops
                .get(p.loop_id as usize)
                .map(|l| format!("`{}`", l.label))
                .unwrap_or_else(|| format!("loop {}", p.loop_id))
        };
        let instr = p.total_instructions();
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * instr as f64 / total as f64
        };
        let mut classes: Vec<(usize, u64)> = p
            .class_counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        classes.sort_by_key(|c| std::cmp::Reverse(c.1));
        let mix = classes
            .iter()
            .take(3)
            .map(|&(i, c)| {
                format!(
                    "{} {:.0}%",
                    CLASS_NAMES[i],
                    100.0 * c as f64 / instr.max(1) as f64
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "{:<16} {:>9.3} {:>10} {:>12} {:>5.1}% {:>7} {:>7} {:>7}  {mix}\n",
            name,
            p.wall_ns as f64 / 1e6,
            p.iters,
            instr,
            pct,
            p.iter_hist.percentile(0.5),
            p.iter_hist.percentile(0.9),
            p.iter_hist.percentile(0.99),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// the daemon client
// ---------------------------------------------------------------------------

/// `dsec ... --daemon <socket>`: sends the request to a running `dsed`
/// instead of driving the pipeline in-process. Unsupported-over-the-wire
/// flags (`--emit`, `--timing`, `--metrics`) are rejected up front.
fn daemon_drive(o: &Opts, sock: &str) -> Result<ExitCode, Fail> {
    if !o.emit.is_empty() || o.timing || o.metrics.is_some() {
        return Err(Fail::Usage(
            "--daemon supports plain compile/run requests; \
             use the standalone driver for --emit/--timing/--metrics"
                .into(),
        ));
    }
    let source = read_source(&o.path)?;
    let backend = o.exec_backend.unwrap_or_else(BackendKind::from_env);
    let req = daemon_json(
        "dsec",
        if o.run { "run" } else { "compile" },
        o,
        source,
        vec![
            ("baseline", Json::Bool(o.baseline)),
            ("serial", Json::Bool(o.serial)),
            ("exec_backend", Json::Str(backend.name().into())),
        ],
    );
    let resp = daemon_request(sock, &req)?;
    for d in diagnostics_of(&resp) {
        eprintln!("dsec: {d}");
    }
    if let Some(err) = resp.get("error").and_then(Json::as_str) {
        eprintln!("dsec: {err}");
    }
    if let Some(console) = resp.get("console").and_then(Json::as_str) {
        print!("{console}");
    }
    if let Some(outs) = resp.get("out_long").and_then(Json::as_arr) {
        if !outs.is_empty() {
            let outs: Vec<i64> = outs.iter().filter_map(Json::as_i64).collect();
            println!("out_long: {outs:?}");
        }
    }
    if let Some(fouts) = resp.get("out_float").and_then(Json::as_arr) {
        if !fouts.is_empty() {
            let fouts: Vec<f64> = fouts.iter().filter_map(Json::as_f64).collect();
            println!("out_float: {fouts:?}");
        }
    }
    Ok(exit_of(&resp))
}

/// A daemon request carrying the options every subcommand shares, plus
/// `extra` fields.
fn daemon_json(id: &str, cmd: &str, o: &Opts, source: String, extra: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("id", Json::Str(id.into())),
        ("cmd", Json::Str(cmd.into())),
        ("source", Json::Str(source)),
        ("threads", Json::Int(o.threads as i64)),
        ("opt", Json::Str(o.opt.name().into())),
        (
            "in",
            Json::Arr(o.inputs.iter().map(|&n| Json::Int(n)).collect()),
        ),
    ];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// One request/response round trip over the daemon's unix socket.
fn daemon_request(sock: &str, req: &Json) -> Result<Json, Fail> {
    use std::io::{BufRead, BufReader};
    let mut stream = std::os::unix::net::UnixStream::connect(sock)
        .map_err(|e| Fail::Usage(format!("{sock}: {e}")))?;
    let mut line = req.to_string();
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| Fail::Usage(format!("{sock}: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader
        .read_line(&mut resp)
        .map_err(|e| Fail::Usage(format!("{sock}: {e}")))?;
    if resp.trim().is_empty() {
        return Err(Fail::Other(
            "daemon closed the connection without a response".into(),
        ));
    }
    Json::parse(resp.trim()).map_err(|e| Fail::Other(format!("bad daemon response: {e}")))
}

fn diagnostics_of(resp: &Json) -> Vec<String> {
    resp.get("diagnostics")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

fn exit_of(resp: &Json) -> ExitCode {
    let code = resp.get("exit").and_then(Json::as_i64).unwrap_or(1);
    ExitCode::from((code & 0xff) as u8)
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Fail {
        Fail::Usage(e.to_string())
    }
}
