//! Runs every workload briefly, untraced and traced, through the
//! benchmark binary and checks that each run is correct and prints every
//! metric by name with its unit.

use dse_perfbench::metrics::{END_TO_END, PER_LAYER};
use std::process::Command;

#[test]
#[cfg_attr(debug_assertions, ignore = "the benchmark refuses debug builds")]
fn smoke_runs_every_workload_and_prints_every_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_dse-perfbench"))
        .arg("--smoke")
        .env("DSE_EXEC_BACKEND", "reg")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 6, "{stdout}");
    assert!(results.iter().all(|l| l.starts_with("{\"correct\":true")));
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let printed = stdout.lines().any(|l| {
            let mut f = l.split_whitespace();
            f.next() == Some("metric") && f.next() == Some(d.name) && f.nth(1) == Some(d.unit)
        });
        assert!(printed, "metric {} ({}) not printed", d.name, d.unit);
    }
    // The benchmark measures the default engine whatever the caller's
    // environment says.
    assert!(stdout.contains("exec_backend=stack"), "{stdout}");
}
