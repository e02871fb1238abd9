//! Cache-blocked, unrolled, optionally multi-threaded matrix kernels.
//!
//! These are the compute hot paths of the whole workspace: every surrogate fit
//! and every batched prediction bottoms out in one of the three products here
//! or in the blocked Cholesky built on top of them.  The kernels work on raw
//! row-major `&[f64]` buffers so both [`crate::Matrix`] and the factorizations
//! can share them without going through the public API.
//!
//! Each blocked product is an entry point of the runtime dispatch (see
//! [`crate::dispatch`]): on AVX2+FMA hardware the call is routed to the
//! packed-panel micro-kernel engine in [`crate::packed`], otherwise the
//! portable scalar implementations below run.  Both paths satisfy the same
//! reference-equivalence properties; they differ only in summation order.
//!
//! Design notes on the portable path:
//!
//! * **Blocking** — the general product tiles over `k` (shared dimension) and
//!   `j` (output columns) so one tile of the right-hand side stays in cache
//!   while a band of output rows streams past it.
//! * **Unrolling** — inner loops process four `k` values (or four independent
//!   accumulators for dot products) per iteration, breaking the floating-point
//!   dependency chain so the CPU can keep several FMAs in flight.
//! * **Threading** — large shapes split their *output rows* into contiguous
//!   bands executed as a scoped batch on the shared `nnbo-pool` worker pool
//!   (see [`crate::parallel`]).
//!   Each output element is always computed by the same sequence of
//!   operations, so results are identical no matter how many threads run.

use crate::packed::Op;
use crate::parallel::plan_threads;
use nnbo_pool::WorkerPool;

/// `k`-dimension tile size for the general product (8 KiB of one operand row).
const KC: usize = 64;
/// Output-column tile size for the general product.
const JC: usize = 128;
/// Output-column tile for the `A·Bᵀ` kernel (keeps a tile of B rows hot).
const JB: usize = 32;

/// Dot product with four independent accumulators.
///
/// The element order is fixed (pairs summed lane by lane, lanes combined at
/// the end), so the result for a given pair of slices never depends on the
/// shape of the surrounding computation.
pub(crate) fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut i = 0;
    while i + 4 <= n {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    while i < n {
        s0 += a[i] * b[i];
        i += 1;
    }
    (s0 + s1) + (s2 + s3)
}

/// Panics unless every `(slice length, rows, cols)` triple agrees.
fn assert_shapes(op: &str, shapes: [(usize, usize, usize); 3]) {
    for (len, rows, cols) in shapes {
        assert_eq!(
            len,
            rows * cols,
            "{op}: a {len}-element operand is not {rows}x{cols}"
        );
    }
}

/// `out[m×n] = a[m×k] · b[k×n]` on raw row-major slices: the same kernel
/// as [`crate::Matrix::matmul_into`], for operands that live inside a larger
/// buffer (a network layer's weights inside one flat parameter vector).
/// `out` is overwritten.
///
/// # Panics
///
/// Panics if a slice length does not match its stated shape.
pub fn matmul_slices(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    assert_shapes(
        "matmul_slices",
        [(a.len(), m, k), (b.len(), k, n), (out.len(), m, n)],
    );
    matmul_blocked(a, m, k, b, n, out);
}

/// `out[m×p] = a[m×k] · b[p×k]ᵀ` on raw row-major slices: the kernel of
/// [`crate::Matrix::matmul_transpose_into`].  `out` is overwritten.
///
/// # Panics
///
/// Panics if a slice length does not match its stated shape.
pub fn matmul_transpose_slices(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    p: usize,
    out: &mut [f64],
) {
    assert_shapes(
        "matmul_transpose_slices",
        [(a.len(), m, k), (b.len(), p, k), (out.len(), m, p)],
    );
    matmul_transpose_blocked(a, m, k, b, p, out);
}

/// `out[ca×cb] = a[r×ca]ᵀ · b[r×cb]` on raw row-major slices: the kernel of
/// [`crate::Matrix::transpose_matmul_into`].  `out` is overwritten.
///
/// # Panics
///
/// Panics if a slice length does not match its stated shape.
pub fn transpose_matmul_slices(
    a: &[f64],
    r: usize,
    ca: usize,
    b: &[f64],
    cb: usize,
    out: &mut [f64],
) {
    assert_shapes(
        "transpose_matmul_slices",
        [(a.len(), r, ca), (b.len(), r, cb), (out.len(), ca, cb)],
    );
    transpose_matmul_blocked(a, r, ca, b, cb, out);
}

/// `out[m×n] = a[m×k] · b[k×n]`, blocked over `k` and `j`, parallel over
/// output-row bands.
pub(crate) fn matmul_blocked(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if crate::dispatch::simd_active() {
        crate::packed::gemm(Op::rows(a, k), Op::cols(b, n), m, k, n, out);
        return;
    }
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let threads = plan_threads(m, 2 * m * k * n);
    WorkerPool::global().for_each_band(out, n, threads, |first_row, band| {
        let rows = band.len() / n;
        matmul_band(a, first_row, rows, k, b, n, band);
    });
}

fn matmul_band(
    a: &[f64],
    first_row: usize,
    rows: usize,
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    for kb in (0..k).step_by(KC) {
        let kend = (kb + KC).min(k);
        for jb in (0..n).step_by(JC) {
            let jend = (jb + JC).min(n);
            let width = jend - jb;
            for i in 0..rows {
                let arow = &a[(first_row + i) * k..(first_row + i + 1) * k];
                let orow = &mut out[i * n + jb..i * n + jend];
                let mut kk = kb;
                while kk + 4 <= kend {
                    let a0 = arow[kk];
                    let a1 = arow[kk + 1];
                    let a2 = arow[kk + 2];
                    let a3 = arow[kk + 3];
                    let b0 = &b[kk * n + jb..kk * n + jb + width];
                    let b1 = &b[(kk + 1) * n + jb..(kk + 1) * n + jb + width];
                    let b2 = &b[(kk + 2) * n + jb..(kk + 2) * n + jb + width];
                    let b3 = &b[(kk + 3) * n + jb..(kk + 3) * n + jb + width];
                    for (jj, o) in orow.iter_mut().enumerate() {
                        *o += a0 * b0[jj] + a1 * b1[jj] + a2 * b2[jj] + a3 * b3[jj];
                    }
                    kk += 4;
                }
                while kk < kend {
                    let av = arow[kk];
                    let brow = &b[kk * n + jb..kk * n + jb + width];
                    for (o, bv) in orow.iter_mut().zip(brow.iter()) {
                        *o += av * bv;
                    }
                    kk += 1;
                }
            }
        }
    }
}

/// Four simultaneous dot products of `a` against `b0..b3`.
///
/// The four accumulator chains are independent, so the CPU overlaps their
/// floating-point latencies — the classic register-tile trick for
/// latency-bound `A·Bᵀ` kernels.  Each individual dot accumulates in plain
/// ascending-`k` order, fixed regardless of tile position.
#[inline]
fn dot4(a: &[f64], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) -> (f64, f64, f64, f64) {
    let n = a.len();
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..n {
        let av = a[i];
        s0 += av * b0[i];
        s1 += av * b1[i];
        s2 += av * b2[i];
        s3 += av * b3[i];
    }
    (s0, s1, s2, s3)
}

/// `out[m×p] = a[m×k] · b[p×k]ᵀ` — every output element is a dot product of
/// two contiguous rows.  Tiled over `j` so a stripe of `b` rows stays in
/// cache while `a` rows stream past, with a 4-wide register tile ([`dot4`])
/// inside each stripe; parallel over output-row bands.
///
/// Which code path computes element `(i, j)` depends only on `j`, so a given
/// output row is bit-identical whether it is computed alone or as part of a
/// larger batch.
pub(crate) fn matmul_transpose_blocked(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    p: usize,
    out: &mut [f64],
) {
    if m == 0 || p == 0 {
        return;
    }
    if crate::dispatch::simd_active() {
        crate::packed::gemm(Op::rows(a, k), Op::rows(b, k), m, k, p, out);
        return;
    }
    let threads = plan_threads(m, 2 * m * k * p);
    WorkerPool::global().for_each_band(out, p, threads, |first_row, band| {
        let rows = band.len() / p;
        for jb in (0..p).step_by(JB) {
            let jend = (jb + JB).min(p);
            for i in 0..rows {
                let arow = &a[(first_row + i) * k..(first_row + i + 1) * k];
                let mut j = jb;
                while j + 4 <= jend {
                    let (s0, s1, s2, s3) = dot4(
                        arow,
                        &b[j * k..(j + 1) * k],
                        &b[(j + 1) * k..(j + 2) * k],
                        &b[(j + 2) * k..(j + 3) * k],
                        &b[(j + 3) * k..(j + 4) * k],
                    );
                    band[i * p + j] = s0;
                    band[i * p + j + 1] = s1;
                    band[i * p + j + 2] = s2;
                    band[i * p + j + 3] = s3;
                    j += 4;
                }
                while j < jend {
                    band[i * p + j] = dot_plain(arow, &b[j * k..(j + 1) * k]);
                    j += 1;
                }
            }
        }
    });
}

/// Plain ascending-order dot product — the same accumulation order as each
/// lane of [`dot4`], used for tile tails so the `j → arithmetic` mapping stays
/// independent of tile geometry.
#[inline]
fn dot_plain(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        s += x * y;
    }
    s
}

/// One row of the symmetric trailing update of the blocked Cholesky:
/// `dst[j] -= pi · panel_j` for `j = 0..dst.len()`, where `panel_j` is row `j`
/// of the contiguous `width`-wide panel.  Uses the 4-wide register tile of
/// [`dot4`] for instruction-level parallelism.
pub(crate) fn syrk_row_update(pi: &[f64], panel: &[f64], width: usize, dst: &mut [f64]) {
    let mut j = 0;
    while j + 4 <= dst.len() {
        let (s0, s1, s2, s3) = dot4(
            pi,
            &panel[j * width..(j + 1) * width],
            &panel[(j + 1) * width..(j + 2) * width],
            &panel[(j + 2) * width..(j + 3) * width],
            &panel[(j + 3) * width..(j + 4) * width],
        );
        dst[j] -= s0;
        dst[j + 1] -= s1;
        dst[j + 2] -= s2;
        dst[j + 3] -= s3;
        j += 4;
    }
    while j < dst.len() {
        dst[j] -= dot_plain(pi, &panel[j * width..(j + 1) * width]);
        j += 1;
    }
}

/// `out[ca×cb] = a[r×ca]ᵀ · b[r×cb]`, unrolled four `k` rows at a time,
/// parallel over output-row bands (columns of `a`).
pub(crate) fn transpose_matmul_blocked(
    a: &[f64],
    r: usize,
    ca: usize,
    b: &[f64],
    cb: usize,
    out: &mut [f64],
) {
    if crate::dispatch::simd_active() {
        crate::packed::gemm(Op::cols(a, ca), Op::cols(b, cb), ca, r, cb, out);
        return;
    }
    out.fill(0.0);
    if ca == 0 || cb == 0 || r == 0 {
        return;
    }
    let threads = plan_threads(ca, 2 * r * ca * cb);
    WorkerPool::global().for_each_band(out, cb, threads, |first_col, band| {
        let cols = band.len() / cb;
        let mut kk = 0;
        while kk + 4 <= r {
            let a0 = &a[kk * ca..(kk + 1) * ca];
            let a1 = &a[(kk + 1) * ca..(kk + 2) * ca];
            let a2 = &a[(kk + 2) * ca..(kk + 3) * ca];
            let a3 = &a[(kk + 3) * ca..(kk + 4) * ca];
            let b0 = &b[kk * cb..(kk + 1) * cb];
            let b1 = &b[(kk + 1) * cb..(kk + 2) * cb];
            let b2 = &b[(kk + 2) * cb..(kk + 3) * cb];
            let b3 = &b[(kk + 3) * cb..(kk + 4) * cb];
            for i in 0..cols {
                let c0 = a0[first_col + i];
                let c1 = a1[first_col + i];
                let c2 = a2[first_col + i];
                let c3 = a3[first_col + i];
                let orow = &mut band[i * cb..(i + 1) * cb];
                for (jj, o) in orow.iter_mut().enumerate() {
                    *o += c0 * b0[jj] + c1 * b1[jj] + c2 * b2[jj] + c3 * b3[jj];
                }
            }
            kk += 4;
        }
        while kk < r {
            let arow = &a[kk * ca..(kk + 1) * ca];
            let brow = &b[kk * cb..(kk + 1) * cb];
            for i in 0..cols {
                let c = arow[first_col + i];
                let orow = &mut band[i * cb..(i + 1) * cb];
                for (o, bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += c * bv;
                }
            }
            kk += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_matrix(rows: usize, cols: usize, scale: f64) -> Vec<f64> {
        (0..rows * cols)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) * scale)
            .collect()
    }

    #[test]
    fn slice_entry_points_match_the_matrix_products_bit_for_bit() {
        use crate::Matrix;
        let (m, k, n) = (7, 5, 9);
        let a = Matrix::from_vec(m, k, seq_matrix(m, k, 0.01));
        let b = Matrix::from_vec(k, n, seq_matrix(k, n, 0.02));
        let bt = Matrix::from_vec(n, k, seq_matrix(n, k, 0.03));
        let c = Matrix::from_vec(m, n, seq_matrix(m, n, 0.04));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // Stale output contents must be overwritten, not accumulated.
        let mut out = vec![f64::NAN; m * n];
        matmul_slices(a.as_slice(), m, k, b.as_slice(), n, &mut out);
        assert_eq!(bits(&out), bits(a.matmul(&b).as_slice()));

        out.fill(f64::NAN);
        matmul_transpose_slices(a.as_slice(), m, k, bt.as_slice(), n, &mut out);
        assert_eq!(bits(&out), bits(a.matmul_transpose(&bt).as_slice()));

        let mut out = vec![f64::NAN; k * n];
        transpose_matmul_slices(a.as_slice(), m, k, c.as_slice(), n, &mut out);
        assert_eq!(bits(&out), bits(a.transpose_matmul(&c).as_slice()));
    }

    #[test]
    #[should_panic(expected = "is not 5x9")]
    fn slice_entry_points_check_shapes() {
        let mut out = vec![0.0; 4];
        matmul_slices(&[0.0; 35], 7, 5, &[0.0; 44], 9, &mut out);
    }

    #[test]
    fn dot_unrolled_matches_sequential_sum() {
        for n in [0, 1, 3, 4, 7, 16, 33] {
            let a: Vec<f64> = (0..n).map(|i| i as f64 * 0.3 - 1.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64 * 0.1).collect();
            let reference: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            assert!((dot_unrolled(&a, &b) - reference).abs() < 1e-12);
        }
    }

    #[test]
    fn blocked_matmul_matches_reference_on_odd_shapes() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (65, 64, 129), (130, 70, 33)] {
            let a = seq_matrix(m, k, 0.01);
            let b = seq_matrix(k, n, 0.02);
            let mut out = vec![0.0; m * n];
            matmul_blocked(&a, m, k, &b, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a[i * k + kk] * b[kk * n + j];
                    }
                    assert!(
                        (out[i * n + j] - acc).abs() < 1e-10,
                        "mismatch at ({i},{j}) for {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_transpose_variants_match_reference() {
        let (m, k, p) = (37, 21, 19);
        let a = seq_matrix(m, k, 0.01);
        let b = seq_matrix(p, k, 0.03);
        let mut out = vec![0.0; m * p];
        matmul_transpose_blocked(&a, m, k, &b, p, &mut out);
        for i in 0..m {
            for j in 0..p {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[j * k + kk];
                }
                assert!((out[i * p + j] - acc).abs() < 1e-10);
            }
        }

        let (r, ca, cb) = (23, 11, 17);
        let a = seq_matrix(r, ca, 0.02);
        let b = seq_matrix(r, cb, 0.01);
        let mut out = vec![0.0; ca * cb];
        transpose_matmul_blocked(&a, r, ca, &b, cb, &mut out);
        for i in 0..ca {
            for j in 0..cb {
                let mut acc = 0.0;
                for kk in 0..r {
                    acc += a[kk * ca + i] * b[kk * cb + j];
                }
                assert!((out[i * cb + j] - acc).abs() < 1e-10);
            }
        }
    }
}
