//! Packed-vs-blocked timings of the batched *prediction* path, emitted as
//! `BENCH_predict.json` (companion of `BENCH_linalg.json` for the kernels and
//! `BENCH_fit.json` for the fit path).
//!
//! Every entry compares the portable blocked-scalar path (forced through
//! [`nnbo_linalg::force_portable_kernels`]) against the packed AVX2+FMA path
//! with the fused `exp` elementwise kernel on the same inputs — on machines
//! without AVX2 both sides run the portable code and the speedups read ≈ 1;
//! the document's `isa` header says which case applies:
//!
//! * `gp_cross_kernel` — the cross-covariance block `K(Q, X)` alone: one
//!   packed GEMM over the scaled rows plus the fused
//!   [`nnbo_linalg::sq_exp_apply`] pass, vs the blocked-scalar product and
//!   the scalar `f64::exp` loop.
//! * `gp_predict_batch` / `neural_predict_batch` — the full batched
//!   prediction (cross kernel / feature forward pass, mean matvec, batched
//!   triangular solve) on both dispatch paths.
//! * `gp_predict_batch_into` — same dispatch path on both sides: the
//!   allocating [`nnbo_gp::GpModel::predict_batch`] vs the buffer-reusing
//!   [`nnbo_gp::GpModel::predict_batch_into`] in steady state (what the
//!   acquisition scoring loop runs).

use nnbo_core::{NeuralGp, NeuralGpConfig, SurrogateModel};
use nnbo_gp::{ArdSquaredExponential, CrossScratch, GpConfig, GpModel, GpPredictScratch};
use nnbo_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::linalg_bench::{dataset, time_best, LinalgBenchEntry};
use crate::BenchError;

/// Runs the prediction-path comparison suite.  `quick` shrinks sizes and
/// repetition counts so CI can smoke-test the harness in seconds.
pub fn run_predict_bench(quick: bool) -> Result<Vec<LinalgBenchEntry>, BenchError> {
    let train_n = if quick { 64 } else { 256 };
    let batch = if quick { 128 } else { 512 };
    let dim = 10;
    let reps = if quick { 3 } else { 7 };
    let mut rng = StdRng::seed_from_u64(113);
    let (xs, ys) = dataset(train_n, dim, &mut rng);
    let queries: Vec<Vec<f64>> = (0..batch)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let mut entries = Vec::new();

    // 1. Cross-kernel block alone: packed GEMM + fused exp vs blocked scalar.
    let kernel = ArdSquaredExponential::new(
        1.4,
        (0..dim).map(|d| 0.4 + 0.1 * d as f64).collect::<Vec<_>>(),
    );
    let x_mat = Matrix::from_rows(&xs);
    let q_mat = Matrix::from_rows(&queries);
    let prepared = kernel.prepare(&x_mat);
    let mut cross_out = Matrix::zeros(0, 0);
    let mut cross_scratch = CrossScratch::new();
    nnbo_linalg::force_portable_kernels(true);
    let portable_cross = time_best(reps, || {
        kernel.cross_with_into(&q_mat, &prepared, &mut cross_out, &mut cross_scratch);
        std::hint::black_box(&cross_out);
    })
    .0;
    nnbo_linalg::force_portable_kernels(false);
    let packed_cross = time_best(reps, || {
        kernel.cross_with_into(&q_mat, &prepared, &mut cross_out, &mut cross_scratch);
        std::hint::black_box(&cross_out);
    })
    .0;
    entries.push(LinalgBenchEntry {
        name: "gp_cross_kernel",
        n: train_n,
        baseline_ns: portable_cross,
        optimized_ns: packed_cross,
    });

    // 2. Full batched GP prediction on both dispatch paths.
    let gp_config = GpConfig {
        restarts: 1,
        max_iters: 10,
        ..GpConfig::default()
    };
    let gp = GpModel::fit(&xs, &ys, &gp_config, &mut StdRng::seed_from_u64(3))?;
    nnbo_linalg::force_portable_kernels(true);
    let portable_gp = time_best(reps, || gp.predict_batch(&queries)).0;
    nnbo_linalg::force_portable_kernels(false);
    let packed_gp = time_best(reps, || gp.predict_batch(&queries)).0;
    entries.push(LinalgBenchEntry {
        name: "gp_predict_batch",
        n: train_n,
        baseline_ns: portable_gp,
        optimized_ns: packed_gp,
    });

    // 3. Allocating vs buffer-reusing batched prediction (same dispatch).
    let mut out = Vec::new();
    let mut scratch = GpPredictScratch::new();
    gp.predict_batch_into(&queries, &mut out, &mut scratch); // grow buffers
    let into_ns = time_best(reps, || {
        gp.predict_batch_into(&queries, &mut out, &mut scratch);
        std::hint::black_box(&out);
    })
    .0;
    entries.push(LinalgBenchEntry {
        name: "gp_predict_batch_into",
        n: train_n,
        baseline_ns: packed_gp,
        optimized_ns: into_ns,
    });

    // 4. The paper's surrogate on both dispatch paths.
    let nn_config = NeuralGpConfig {
        epochs: 40,
        ..NeuralGpConfig::default()
    };
    let neural = NeuralGp::fit(&xs, &ys, &nn_config, &mut StdRng::seed_from_u64(4))?;
    nnbo_linalg::force_portable_kernels(true);
    let portable_ngp = time_best(reps, || neural.predict_batch(&queries)).0;
    nnbo_linalg::force_portable_kernels(false);
    let packed_ngp = time_best(reps, || neural.predict_batch(&queries)).0;
    entries.push(LinalgBenchEntry {
        name: "neural_predict_batch",
        n: train_n,
        baseline_ns: portable_ngp,
        optimized_ns: packed_ngp,
    });

    Ok(entries)
}

/// Serialises the entries as the `BENCH_predict.json` document.
pub fn format_predict_json(entries: &[LinalgBenchEntry], quick: bool) -> String {
    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "{{\"name\": \"{}\", \"n\": {}, \"baseline_ns\": {:.0}, \"optimized_ns\": {:.0}, \"speedup\": {:.2}}}",
                e.name,
                e.n,
                e.baseline_ns,
                e.optimized_ns,
                e.speedup(),
            )
        })
        .collect();
    crate::json::document("nnbo-bench-predict-v1", "predict", quick, "entries", &rows)
}

/// Renders a human-readable table of the same entries for stdout.
pub fn format_predict_table(entries: &[LinalgBenchEntry]) -> String {
    let mut out = format!(
        "{:<24} {:>6} {:>16} {:>16} {:>9}\n",
        "workload", "N", "baseline (ms)", "optimized (ms)", "speedup"
    );
    for e in entries {
        out.push_str(&format!(
            "{:<24} {:>6} {:>16.3} {:>16.3} {:>8.1}x\n",
            e.name,
            e.n,
            e.baseline_ns / 1e6,
            e.optimized_ns / 1e6,
            e.speedup()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_all_workloads_and_valid_json() {
        let _guard = crate::TEST_DISPATCH_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let entries = run_predict_bench(true).expect("quick predict bench runs");
        let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        for expected in [
            "gp_cross_kernel",
            "gp_predict_batch",
            "gp_predict_batch_into",
            "neural_predict_batch",
        ] {
            assert!(names.contains(&expected), "missing workload {expected}");
        }
        let json = format_predict_json(&entries, true);
        assert!(json.contains("\"schema\": \"nnbo-bench-predict-v1\""));
        assert_eq!(json.matches("\"name\"").count(), entries.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!format_predict_table(&entries).is_empty());
    }
}
