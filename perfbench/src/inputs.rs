//! Seeded program inputs.
//!
//! `Workload::inputs` draws from one fixed seed per program. The benchmark
//! keeps its sizes per [`Scale`] and draws the content from the run's
//! `--seed` instead, so every run measures fresh data of the same shape.
//! Each input set is named by `(seed, program, scale, index)` and derived
//! from that name alone, so a set does not depend on how many others were
//! drawn before it.

use dse_telemetry::ContentHasher;
use dse_workloads::rng::Rng;
use dse_workloads::{Scale, Workload};

/// The seed whose first input sets have golden outputs stored with the
/// benchmark.
pub const DEFAULT_SEED: u64 = 1;

/// Short scale name used in golden records and output.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Profile => "profile",
        Scale::Bench => "bench",
    }
}

/// How many leading inputs are sizes (the rest is drawn content).
fn size_params(name: &str) -> usize {
    match name {
        "dijkstra" | "md5" | "mpeg2dec" | "lbm" => 2,
        "h263enc" => 3,
        "mpeg2enc" | "bzip2" | "hmmer" => 4,
        other => panic!("unknown workload {other}"),
    }
}

/// Input set `index` of `w` at `scale` for `seed`: `Workload::inputs`'
/// sizes, content drawn from the seed.
///
/// # Panics
///
/// Panics if `w` is not one of the eight workload models.
pub fn seeded(w: &Workload, scale: Scale, seed: u64, index: u64) -> Vec<i64> {
    let key = ContentHasher::new("perfbench-inputs")
        .u64(seed)
        .str(w.name)
        .str(scale_name(scale))
        .u64(index)
        .finish();
    let mut rng = Rng::seed_from_u64(key.0 as u64 ^ (key.0 >> 64) as u64);
    let template = w.inputs(scale);
    let mut v = template[..size_params(w.name)].to_vec();
    match w.name {
        "dijkstra" => {
            let n = v[0];
            for _ in 0..n * n {
                // ~35% edges with weights 1..100.
                let edge = rng.gen_ratio(35, 100);
                v.push(if edge { rng.gen_range(1, 100) } else { 0 });
            }
        }
        "md5" => {
            for _ in 0..v[0] {
                v.push(rng.gen_range(1, 0x7fff_ffff));
            }
        }
        "mpeg2dec" => {
            v.push(rng.gen_range(1, 1 << 30));
            for _ in 0..64 {
                v.push(rng.gen_range(1, 32));
            }
        }
        "hmmer" => {
            let nstates = v[3];
            v.push(rng.gen_range(1, 1 << 30));
            for _ in 0..nstates * 3 {
                v.push(rng.gen_range(-8, 8));
            }
        }
        // One generator seed after the sizes.
        _ => v.push(rng.gen_range(1, 1 << 30)),
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_workload_generators() {
        for w in dse_workloads::all() {
            for scale in [Scale::Profile, Scale::Bench] {
                let template = w.inputs(scale);
                for (seed, index) in [(1, 0), (7, 3), (u64::MAX, 9)] {
                    let v = seeded(&w, scale, seed, index);
                    assert_eq!(v.len(), template.len(), "{} {scale:?}", w.name);
                    let k = size_params(w.name);
                    assert_eq!(v[..k], template[..k], "{} {scale:?}", w.name);
                }
            }
        }
    }

    #[test]
    fn content_follows_the_seed_and_index() {
        let w = dse_workloads::by_name("dijkstra").unwrap();
        let a = seeded(&w, Scale::Profile, 1, 0);
        assert_eq!(a, seeded(&w, Scale::Profile, 1, 0));
        assert_ne!(a, seeded(&w, Scale::Profile, 2, 0));
        assert_ne!(a, seeded(&w, Scale::Profile, 1, 1));
    }
}
