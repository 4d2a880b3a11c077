//! `perfbench`: one run of one workload, printing every metric by name
//! with its unit and sample count, then one JSON result line.
//!
//! ```text
//! perfbench --workload compile|run_bench|daemon --seed N --seconds S --trace 0|1
//! perfbench --smoke              # every workload briefly, traced and not
//! perfbench --write-golden FILE  # regenerate the stored golden outputs
//! ```

use dse_perfbench::check::{Golden, Outputs};
use dse_perfbench::inputs::{self, scale_name, DEFAULT_SEED};
use dse_perfbench::metrics::{Results, END_TO_END, PER_LAYER};
use dse_perfbench::trace::Tracer;
use dse_perfbench::{nproc, peak_rss_mb, run_workload, suite, Opts, Tally, WORKLOADS};
use dse_telemetry::Json;
use dse_workloads::Scale;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Where spans and the daemon socket go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1\n       \
         perfbench --smoke\n       perfbench --write-golden FILE",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    // Measure the execution engine a default user gets.
    std::env::remove_var("DSE_EXEC_BACKEND");

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => return smoke(),
        Some("--write-golden") => {
            return match args.get(1) {
                Some(path) => write_golden(path),
                None => usage(),
            }
        }
        _ => {}
    }
    let mut o = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                o.workload = value.clone();
                WORKLOADS.contains(&value.as_str())
            }
            "--seed" => value.parse().map(|s| o.seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                .map(|s| o.seconds = Duration::from_secs_f64(s))
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    o.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("perfbench: bad argument {flag} {value}");
            return usage();
        }
    }
    if o.workload.is_empty() {
        return usage();
    }
    match run_once(&o) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and returns the result line.
fn run_once(o: &Opts) -> Result<Json, String> {
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} loadavg={} commit={} \
         exec_backend={} threads={}",
        o.workload,
        o.seed,
        o.seconds.as_secs_f64(),
        u8::from(o.trace),
        nproc(),
        loadavg,
        commit(),
        dse_runtime::BackendKind::from_env().name(),
        suite::THREADS,
    );
    let mut r = Results::default();
    let mut tally = Tally::default();
    run_workload(o, &mut r, &mut tally)?;
    if !o.trace {
        r.set(
            "peak_rss_mb",
            peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
            1,
        );
    }
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "metric {:<34} {:>16.6} {:<6} n={:<6} (attempted {}, failed {})",
        "failed_ratio", failed_ratio, "ratio", tally.attempted, tally.attempted, tally.failed
    );
    let metrics = if o.trace {
        r.report(PER_LAYER, true)?
    } else {
        r.report(END_TO_END, false)?
    };
    Ok(Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Int(tally.attempted as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        ("metrics", metrics),
    ]))
}

/// The commit under test: `git rev-parse HEAD` where the tree is a git
/// checkout, otherwise a content hash of the crate sources.
fn commit() -> String {
    // Only ask git about this directory's own repository, never an
    // enclosing one.
    if std::path::Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_files(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = dse_telemetry::ContentHasher::new("perfbench-tree");
    for f in &files {
        h = h
            .str(&f.to_string_lossy())
            .str(&std::fs::read_to_string(f).unwrap_or_default());
    }
    format!("tree:{:08x}", h.finish().0 as u32)
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// Every workload for about a second each, untraced and traced; fails
/// unless every run is correct and reports every metric.
fn smoke() -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let o = Opts {
                workload: (*w).to_string(),
                seed: 2,
                seconds: Duration::from_secs(1),
                trace,
                out_dir: PathBuf::from(OUT_DIR),
            };
            match run_once(&o) {
                Ok(line) if line.get("correct").and_then(Json::as_bool) == Some(true) => {
                    println!("{line}");
                }
                Ok(line) => {
                    eprintln!("perfbench: smoke {w} trace={trace}: incorrect: {line}");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("perfbench: smoke {w} trace={trace}: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the serial outputs of the default seed's first input set of
/// every program at both scales.
fn write_golden(path: &str) -> ExitCode {
    let mut lines = Vec::new();
    let mut t = Tracer::new(false, Instant::now());
    let (suite, _) = match suite::prepare(DEFAULT_SEED) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for scale in [Scale::Profile, Scale::Bench] {
        for p in &suite {
            let inputs = inputs::seeded(&p.w, scale, DEFAULT_SEED, 0);
            let outputs: Outputs = match suite::reference(&mut t, 0, p, &inputs) {
                Ok((o, _, _)) => o,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let g = Golden {
                scale: scale_name(scale).to_string(),
                program: p.w.name.to_string(),
                outputs,
            };
            lines.push(g.to_line());
        }
    }
    match std::fs::write(path, lines.join("\n") + "\n") {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
