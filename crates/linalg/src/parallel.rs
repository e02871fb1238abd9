//! How many bands a blocked kernel splits its work into.
//!
//! The kernels in this crate parallelise by partitioning the *output* rows into
//! contiguous bands with [`nnbo_pool::WorkerPool::for_each_band`] on
//! [`nnbo_pool::WorkerPool::global`] (the same pool `nnbo-core` trains
//! ensembles on and `nnbo-serve` multiplexes sessions over, so the process's
//! thread count is bounded once, not per call site).  Each band is a disjoint
//! `&mut [f64]` slice of the output buffer, so no synchronisation is needed,
//! and because every band computes exactly what the sequential loop would, the
//! results are bit-for-bit identical to a single-threaded run.

/// Number of parallel bands to use for a kernel touching `rows` output rows
/// with roughly `flops` floating-point operations in total.
///
/// Returns 1 (sequential) for small problems where batch-submission overhead
/// would dominate.
pub(crate) fn plan_threads(rows: usize, flops: usize) -> usize {
    // Submitting a scoped batch costs on the order of microseconds per task;
    // only fan out once there are a few milliseconds of arithmetic to share.
    const MIN_FLOPS: usize = 4 << 20;
    const MIN_ROWS_PER_THREAD: usize = 8;
    if flops < MIN_FLOPS {
        return 1;
    }
    nnbo_pool::WorkerPool::global()
        .max_bands()
        .min(rows / MIN_ROWS_PER_THREAD)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_problems_stay_sequential() {
        assert_eq!(plan_threads(1000, 1000), 1);
        assert!(plan_threads(1000, 64 << 20) >= 1);
        assert_eq!(plan_threads(4, usize::MAX), 1);
    }
}
