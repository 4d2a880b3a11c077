//! Output checking on every channel a program writes: `out_long`,
//! `out_float` (bit for bit), the console and the exit code.
//!
//! Every measured run is compared against the serial untransformed run of
//! the same inputs, and the serial runs of the default seed are compared
//! against golden outputs stored with the benchmark (`golden.jsonl`), so a
//! bug shared by the VM or the lowering cannot agree with itself.

use dse_runtime::{RunReport, Value, Vm};
use dse_server::protocol::Response;
use dse_telemetry::Json;

/// Everything a program run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// `main`'s return value masked to a process exit code.
    pub exit: i64,
    /// Console text.
    pub console: String,
    /// `out_long` values in order.
    pub out_long: Vec<i64>,
    /// `out_float` values in order (compared by bit pattern).
    pub out_float: Vec<f64>,
}

impl Outputs {
    /// The outputs of a finished VM run.
    pub fn from_vm(vm: &Vm, report: &RunReport) -> Outputs {
        Outputs {
            exit: exit_code(report),
            console: vm.console(),
            out_long: vm.outputs_int(),
            out_float: vm.outputs_float(),
        }
    }

    /// The outputs carried by a daemon `run` response.
    pub fn from_response(resp: &Response) -> Outputs {
        Outputs {
            exit: resp.exit,
            console: resp.console.clone(),
            out_long: resp.out_long.clone(),
            out_float: resp.out_float.clone(),
        }
    }
}

/// The exit code the daemon reports for a run: `main`'s integer return
/// value masked to a byte, 0 when `main` returns nothing.
fn exit_code(report: &RunReport) -> i64 {
    match report.return_value {
        Some(Value::I(code)) => code & 0xff,
        _ => 0,
    }
}

/// Checks `actual` against `expected` on every channel.
///
/// # Errors
///
/// Describes the first channel that differs.
pub fn compare(expected: &Outputs, actual: &Outputs) -> Result<(), String> {
    if expected.exit != actual.exit {
        return Err(format!(
            "exit code {} != expected {}",
            actual.exit, expected.exit
        ));
    }
    if expected.console != actual.console {
        return Err(format!(
            "console differs: {:?} != expected {:?}",
            actual.console, expected.console
        ));
    }
    if expected.out_long != actual.out_long {
        return Err(format!(
            "out_long {:?} != expected {:?}",
            actual.out_long, expected.out_long
        ));
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    if bits(&expected.out_float) != bits(&actual.out_float) {
        return Err(format!(
            "out_float {:?} != expected {:?} (compared bit for bit)",
            actual.out_float, expected.out_float
        ));
    }
    Ok(())
}

/// Refuses outputs that cannot tell a right answer from a wrong one: no
/// output at all, or every `out_long` saturated to `i64::MIN`/`i64::MAX`
/// and every `out_float` non-finite. (lbm's long total saturates at Bench
/// scale; only its float total carries information there.)
///
/// # Errors
///
/// Says why the outputs are vacuous.
pub fn informative(o: &Outputs) -> Result<(), String> {
    if o.out_long.is_empty() && o.out_float.is_empty() {
        return Err("program wrote no out_long/out_float values".into());
    }
    let longs_saturated = o.out_long.iter().all(|&v| v == i64::MAX || v == i64::MIN);
    let floats_nonfinite = o.out_float.iter().all(|v| !v.is_finite());
    if longs_saturated && floats_nonfinite {
        return Err(format!(
            "every output is saturated or non-finite (out_long {:?}, out_float {:?}): \
             a comparison would pass vacuously",
            o.out_long, o.out_float
        ));
    }
    Ok(())
}

/// One golden record: a program's serial outputs at one scale for the
/// default seed's first input set.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// `"profile"` or `"bench"`.
    pub scale: String,
    /// Workload name.
    pub program: String,
    /// The expected outputs.
    pub outputs: Outputs,
}

impl Golden {
    /// One JSON line (floats as hex bit patterns, so they round-trip).
    pub fn to_line(&self) -> String {
        let o = &self.outputs;
        Json::obj(vec![
            ("scale", Json::Str(self.scale.clone())),
            ("program", Json::Str(self.program.clone())),
            ("exit", Json::Int(o.exit)),
            ("console", Json::Str(o.console.clone())),
            (
                "out_long",
                Json::Arr(o.out_long.iter().map(|&v| Json::Int(v)).collect()),
            ),
            (
                "out_float_bits",
                Json::Arr(
                    o.out_float
                        .iter()
                        .map(|v| Json::Str(format!("{:016x}", v.to_bits())))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Parses one line written by [`Golden::to_line`].
    ///
    /// # Errors
    ///
    /// Describes the malformed field.
    pub fn parse_line(line: &str) -> Result<Golden, String> {
        let j = Json::parse(line).map_err(|e| format!("golden line: {e}"))?;
        let str_field = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("golden line lacks `{k}`"))
        };
        let arr_field = |k: &str| {
            j.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("golden line lacks `{k}`"))
        };
        let out_long = arr_field("out_long")?
            .iter()
            .map(|v| v.as_i64().ok_or("golden out_long holds a non-integer"))
            .collect::<Result<Vec<i64>, _>>()?;
        let out_float = arr_field("out_float_bits")?
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .map(f64::from_bits)
                    .ok_or("golden out_float_bits holds a bad bit pattern")
            })
            .collect::<Result<Vec<f64>, _>>()?;
        Ok(Golden {
            scale: str_field("scale")?,
            program: str_field("program")?,
            outputs: Outputs {
                exit: j
                    .get("exit")
                    .and_then(Json::as_i64)
                    .ok_or("golden line lacks `exit`")?,
                console: str_field("console")?,
                out_long,
                out_float,
            },
        })
    }
}

/// The golden outputs stored with the benchmark.
pub const GOLDEN: &str = include_str!("../golden.jsonl");

/// The stored golden record for `program` at `scale`.
///
/// # Errors
///
/// Fails when the golden file is malformed or lacks the record.
pub fn golden(scale: &str, program: &str) -> Result<Outputs, String> {
    for line in GOLDEN.lines().filter(|l| !l.trim().is_empty()) {
        let g = Golden::parse_line(line)?;
        if g.scale == scale && g.program == program {
            return Ok(g.outputs);
        }
    }
    Err(format!("no golden outputs for {program} at {scale} scale"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outputs {
        Outputs {
            exit: 0,
            console: "checksum 42\n".into(),
            out_long: vec![1391, -7],
            out_float: vec![1.9e29, 0.25],
        }
    }

    #[test]
    fn identical_outputs_pass() {
        assert_eq!(compare(&sample(), &sample()), Ok(()));
    }

    #[test]
    fn one_flipped_float_bit_is_rejected() {
        let mut bad = sample();
        bad.out_float[1] = f64::from_bits(bad.out_float[1].to_bits() ^ 1);
        assert_ne!(bad.out_float[1], 0.25);
        let err = compare(&sample(), &bad).unwrap_err();
        assert!(err.contains("out_float"), "{err}");
    }

    #[test]
    fn negative_zero_differs_from_zero() {
        let mut a = sample();
        let mut b = sample();
        a.out_float[1] = 0.0;
        b.out_float[1] = -0.0;
        assert!(compare(&a, &b).is_err());
    }

    #[test]
    fn a_changed_console_line_is_rejected() {
        let mut bad = sample();
        bad.console = "checksum 43\n".into();
        let err = compare(&sample(), &bad).unwrap_err();
        assert!(err.contains("console"), "{err}");
    }

    #[test]
    fn changed_longs_and_exit_codes_are_rejected() {
        let mut bad = sample();
        bad.out_long[0] += 1;
        assert!(compare(&sample(), &bad).unwrap_err().contains("out_long"));
        let mut bad = sample();
        bad.exit = 1;
        assert!(compare(&sample(), &bad).unwrap_err().contains("exit"));
        let mut bad = sample();
        bad.out_long.pop();
        assert!(compare(&sample(), &bad).is_err());
    }

    #[test]
    fn saturated_or_nonfinite_outputs_are_vacuous() {
        let sat = Outputs {
            exit: 0,
            console: String::new(),
            out_long: vec![i64::MAX],
            out_float: vec![f64::INFINITY, f64::NAN],
        };
        assert!(informative(&sat).is_err());
        let empty = Outputs {
            out_long: vec![],
            out_float: vec![],
            ..sat.clone()
        };
        assert!(informative(&empty).is_err());
        // lbm at Bench scale: the long total saturates, the float total
        // still carries the answer.
        let lbm = Outputs {
            out_float: vec![1.9e29],
            ..sat
        };
        assert_eq!(informative(&lbm), Ok(()));
        assert_eq!(informative(&sample()), Ok(()));
    }

    #[test]
    fn golden_lines_round_trip_bit_for_bit() {
        let g = Golden {
            scale: "bench".into(),
            program: "lbm".into(),
            outputs: Outputs {
                out_float: vec![1.9e29, -0.0, f64::MIN_POSITIVE / 2.0],
                console: "a \"quoted\"\nline\n".into(),
                ..sample()
            },
        };
        let back = Golden::parse_line(&g.to_line()).unwrap();
        assert_eq!(compare(&g.outputs, &back.outputs), Ok(()));
        assert_eq!(back.scale, "bench");
    }

    #[test]
    fn stored_golden_file_covers_every_program_at_both_scales() {
        for w in dse_workloads::all() {
            for scale in ["profile", "bench"] {
                let o = golden(scale, w.name).unwrap();
                assert_eq!(informative(&o), Ok(()), "{} {scale}", w.name);
            }
        }
    }
}
