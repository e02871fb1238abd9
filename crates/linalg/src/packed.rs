//! Packed-panel SIMD micro-kernel engine (AVX2 + FMA).
//!
//! The blocked scalar kernels in [`crate::kernels`] are latency-limited: their
//! 4-wide register tiles keep a few scalar FMA chains in flight but leave the
//! vector units idle.  This module supplies the throughput path selected by
//! [`crate::dispatch`]:
//!
//! * **Packing** — operand panels are copied once per block sweep into
//!   contiguous buffers laid out exactly as the micro-kernel consumes them
//!   (`MR`-row panels of A with `k` fastest-varying, `NR`-column panels of B
//!   with `k` slowest), so the innermost loop runs on unit-stride loads
//!   regardless of the logical orientation (`A·B`, `A·Bᵀ`, `Aᵀ·B`) of the
//!   product.  Ragged edges are zero-padded to the full panel width, which is
//!   exact for accumulation and keeps the micro-kernel branch-free.
//! * **Micro-kernel** — one `MR × NR = 4 × 8` register tile: eight 256-bit
//!   accumulators updated with broadcast/FMA per `k` step.  The only `unsafe`
//!   in the crate lives in these `#[target_feature]` functions; every caller
//!   reaches them through a safe wrapper that has checked the CPU features via
//!   the dispatch point.
//! * **Drivers** — [`gemm`] (all three product orientations via [`Op`] views),
//!   [`syrk_lower`] (symmetric rank-k products touching only the lower
//!   triangle, for Gram/normal matrices and the Cholesky trailing update), and
//!   the elementwise FMA helpers the batched triangular sweeps use.
//!
//! Arithmetic note: per output element the accumulation order is fixed by the
//! panel geometry alone, so results are identical across thread counts; they
//! differ from the scalar path in rounding only (different summation order),
//! which the property tests bound against the naive reference kernels.

use crate::parallel::plan_threads;
use nnbo_pool::WorkerPool;

/// Rows per A panel / micro-tile.
pub(crate) const MR: usize = 4;
/// Columns per B panel / micro-tile.
pub(crate) const NR: usize = 8;
/// `k`-dimension block: one A panel (`MR × KC`) stays in L1 across a sweep.
const KC: usize = 256;

/// A borrowed view of one product operand in "logical rows × k" orientation.
///
/// `at(r, kk)` is element `kk` of logical row `r`.  The two layouts cover all
/// three blocked products: `A·B` reads A as [`Op::rows`] and B as [`Op::cols`]
/// (columns of B are the logical rows of `Bᵀ`), `A·Bᵀ` reads both as
/// [`Op::rows`], `Aᵀ·B` reads both as [`Op::cols`].
#[derive(Clone, Copy)]
pub(crate) struct Op<'a> {
    data: &'a [f64],
    stride: usize,
    transposed: bool,
}

impl<'a> Op<'a> {
    /// Row-major `rows × k` storage: element `(r, kk)` at `data[r*k + kk]`.
    pub(crate) fn rows(data: &'a [f64], k: usize) -> Self {
        Op {
            data,
            stride: k,
            transposed: false,
        }
    }

    /// Transposed storage: element `(r, kk)` at `data[kk*stride + r]`.
    pub(crate) fn cols(data: &'a [f64], stride: usize) -> Self {
        Op {
            data,
            stride,
            transposed: true,
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, kk: usize) -> f64 {
        if self.transposed {
            self.data[kk * self.stride + r]
        } else {
            self.data[r * self.stride + kk]
        }
    }
}

/// B packed per `k`-block: `ceil(n/NR)` panels per block, each panel storing
/// `kc × NR` values with `k` slowest (`panel[kk*NR + jj]`), zero-padded past
/// `n`.
struct PackedB {
    buf: Vec<f64>,
    /// Per `k`-block: `(k0, kc_len, offset of the block's first panel)`.
    blocks: Vec<(usize, usize, usize)>,
    panels: usize,
}

impl PackedB {
    fn new(b: &Op, n: usize, k: usize) -> Self {
        let panels = n.div_ceil(NR);
        let mut blocks = Vec::with_capacity(k.div_ceil(KC));
        let mut buf = Vec::with_capacity(panels * k * NR);
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            blocks.push((k0, kc, buf.len()));
            for jp in 0..panels {
                let j0 = jp * NR;
                let width = NR.min(n - j0);
                for kk in 0..kc {
                    for jj in 0..NR {
                        buf.push(if jj < width {
                            b.at(j0 + jj, k0 + kk)
                        } else {
                            0.0
                        });
                    }
                }
            }
            k0 += kc;
        }
        PackedB {
            buf,
            blocks,
            panels,
        }
    }

    /// The `kc × NR` slice of panel `jp` within block `blk`.
    #[inline]
    fn panel(&self, blk: usize, jp: usize) -> &[f64] {
        let (_, kc, off) = self.blocks[blk];
        let start = off + jp * kc * NR;
        &self.buf[start..start + kc * NR]
    }
}

/// Packs rows `i0..i0+mr` of `a` over `k0..k0+kc` into `out[kk*MR + ii]`,
/// zero-padding rows past `mr`.
fn pack_a_panel(a: &Op, i0: usize, mr: usize, k0: usize, kc: usize, out: &mut [f64]) {
    debug_assert!(out.len() >= kc * MR);
    for kk in 0..kc {
        for ii in 0..MR {
            out[kk * MR + ii] = if ii < mr { a.at(i0 + ii, k0 + kk) } else { 0.0 };
        }
    }
}

/// The 4×8 AVX2+FMA micro-kernel: `tile[ii*NR + jj] = Σ_kk ap[kk*MR+ii] ·
/// bp[kk*NR+jj]`.
///
/// # Safety
///
/// The caller must have verified AVX2 and FMA support (the dispatch point
/// guarantees this before any packed driver runs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_4x8(ap: &[f64], bp: &[f64], kc: usize, tile: &mut [f64; MR * NR]) {
    use core::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut acc = [_mm256_setzero_pd(); 8];
    let a_ptr = ap.as_ptr();
    let b_ptr = bp.as_ptr();
    for kk in 0..kc {
        let b0 = _mm256_loadu_pd(b_ptr.add(kk * NR));
        let b1 = _mm256_loadu_pd(b_ptr.add(kk * NR + 4));
        for ii in 0..MR {
            let ai = _mm256_broadcast_sd(&*a_ptr.add(kk * MR + ii));
            acc[2 * ii] = _mm256_fmadd_pd(ai, b0, acc[2 * ii]);
            acc[2 * ii + 1] = _mm256_fmadd_pd(ai, b1, acc[2 * ii + 1]);
        }
    }
    for ii in 0..MR {
        _mm256_storeu_pd(tile.as_mut_ptr().add(ii * NR), acc[2 * ii]);
        _mm256_storeu_pd(tile.as_mut_ptr().add(ii * NR + 4), acc[2 * ii + 1]);
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn micro_kernel_4x8(ap: &[f64], bp: &[f64], kc: usize, tile: &mut [f64; MR * NR]) {
    // Unreachable in practice: the dispatch point never selects the packed
    // path off x86_64.  Kept as a correct portable body so the crate still
    // compiles everywhere.
    tile.fill(0.0);
    for kk in 0..kc {
        for ii in 0..MR {
            let av = ap[kk * MR + ii];
            for jj in 0..NR {
                tile[ii * NR + jj] += av * bp[kk * NR + jj];
            }
        }
    }
}

/// `out[m×n] = a · b` through the packed panels, parallel over output-row
/// bands.  `a` and `b` are logical views (see [`Op`]); `out` is overwritten.
pub(crate) fn gemm(a: Op, b: Op, m: usize, k: usize, n: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let packed_b = PackedB::new(&b, n, k);
    let threads = plan_threads(m, 2 * m * k * n);
    WorkerPool::global().for_each_band(out, n, threads, |first_row, band| {
        gemm_band(&a, &packed_b, first_row, band.len() / n, n, band);
    });
}

fn gemm_band(a: &Op, packed_b: &PackedB, first_row: usize, rows: usize, n: usize, out: &mut [f64]) {
    let mut apanel = [0.0_f64; KC * MR];
    let mut tile = [0.0_f64; MR * NR];
    for (blk, &(k0, kc, _)) in packed_b.blocks.iter().enumerate() {
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            pack_a_panel(a, first_row + i0, mr, k0, kc, &mut apanel);
            for jp in 0..packed_b.panels {
                let j0 = jp * NR;
                let width = NR.min(n - j0);
                // Safety: the dispatch point verified AVX2+FMA before
                // selecting the packed drivers.
                unsafe { micro_kernel_4x8(&apanel, packed_b.panel(blk, jp), kc, &mut tile) };
                for ii in 0..mr {
                    let orow = &mut out[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + width];
                    for (o, t) in orow.iter_mut().zip(tile[ii * NR..].iter()) {
                        *o += t;
                    }
                }
            }
            i0 += mr;
        }
    }
}

/// Accumulates the lower triangle of the symmetric product `S = P·Pᵀ`
/// (`t × t`, `P` given as a logical `t × k` view) into `out`:
/// `out[i*stride + col0 + j]` gains `±S[i][j]` for `j ≤ i`.
///
/// With `subtract = true` this is the Cholesky trailing update
/// `A22 -= L21·L21ᵀ`; with `false` it builds Gram/normal matrices
/// (callers zero the lower triangle first and mirror afterwards).
pub(crate) fn syrk_lower(
    p: Op,
    t: usize,
    k: usize,
    out: &mut [f64],
    stride: usize,
    col0: usize,
    subtract: bool,
) {
    if t == 0 || k == 0 {
        return;
    }
    let packed_b = PackedB::new(&p, t, k);
    debug_assert_eq!(out.len(), t * stride);
    let threads = plan_threads(t, t * t * k);
    // Bands are split at panel boundaries (one "row" of the split is an
    // `MR`-row panel, the last one possibly short) so every micro-tile
    // stays on one thread.
    WorkerPool::global().for_each_band(out, MR * stride, threads, |first_panel, band| {
        let first_row = first_panel * MR;
        let rows = band.len() / stride;
        syrk_band(
            &p, &packed_b, first_row, rows, t, band, stride, col0, subtract,
        );
    });
}

#[allow(clippy::too_many_arguments)]
fn syrk_band(
    p: &Op,
    packed_b: &PackedB,
    first_row: usize,
    rows: usize,
    t: usize,
    out: &mut [f64],
    stride: usize,
    col0: usize,
    subtract: bool,
) {
    let mut apanel = [0.0_f64; KC * MR];
    let mut tile = [0.0_f64; MR * NR];
    for (blk, &(k0, kc, _)) in packed_b.blocks.iter().enumerate() {
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            let top_row = first_row + i0 + mr - 1;
            pack_a_panel(p, first_row + i0, mr, k0, kc, &mut apanel);
            // Only panels that intersect the lower triangle of this tile row.
            for jp in 0..=(top_row / NR).min(packed_b.panels - 1) {
                let j0 = jp * NR;
                // Safety: dispatch verified AVX2+FMA (see `gemm_band`).
                unsafe { micro_kernel_4x8(&apanel, packed_b.panel(blk, jp), kc, &mut tile) };
                for ii in 0..mr {
                    let row = first_row + i0 + ii;
                    let last = row.min(t - 1).min(j0 + NR - 1);
                    if last < j0 {
                        continue;
                    }
                    let base = (i0 + ii) * stride + col0;
                    let orow = &mut out[base + j0..base + last + 1];
                    if subtract {
                        for (o, v) in orow.iter_mut().zip(tile[ii * NR..].iter()) {
                            *o -= v;
                        }
                    } else {
                        for (o, v) in orow.iter_mut().zip(tile[ii * NR..].iter()) {
                            *o += v;
                        }
                    }
                }
            }
            i0 += mr;
        }
    }
}

// ---------------------------------------------------------------------------
// Elementwise FMA helpers for the triangular sweeps and the fused fit kernels.
// ---------------------------------------------------------------------------

/// `dst[j] -= c * src[j]` with single-rounding FMA semantics per element.
///
/// The arithmetic applied to element `j` is independent of the slice width
/// (vector body and scalar tail both fuse), so a column of a batched
/// triangular solve gets bit-identical treatment whether it is solved alone
/// or as part of a wide right-hand side.
pub(crate) fn sweep_axpy(c: f64, src: &[f64], dst: &mut [f64]) {
    debug_assert_eq!(src.len(), dst.len());
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { sweep_axpy_fma(c, src, dst) };
    } else {
        for (o, v) in dst.iter_mut().zip(src.iter()) {
            *o -= c * v;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sweep_axpy_fma(c: f64, src: &[f64], dst: &mut [f64]) {
    use core::arch::x86_64::*;
    let n = dst.len().min(src.len());
    let cv = _mm256_set1_pd(c);
    let mut j = 0;
    while j + 4 <= n {
        let s = _mm256_loadu_pd(src.as_ptr().add(j));
        let d = _mm256_loadu_pd(dst.as_ptr().add(j));
        _mm256_storeu_pd(dst.as_mut_ptr().add(j), _mm256_fnmadd_pd(cv, s, d));
        j += 4;
    }
    while j < n {
        // Same fused semantics as the vector body (compiles to vfnmadd here).
        dst[j] = (-c).mul_add(src[j], dst[j]);
        j += 1;
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn sweep_axpy_fma(c: f64, src: &[f64], dst: &mut [f64]) {
    for (o, v) in dst.iter_mut().zip(src.iter()) {
        *o = (-c).mul_add(*v, *o);
    }
}

/// Forward substitution `L y = b` for one vector, in place, with the same
/// per-element semantics as [`sweep_axpy`] on either dispatch path — so the
/// documented equivalence "column `j` of a matrix solve == vector solve of
/// column `j`" holds exactly.  `l` is the row-major factor, `stride` its row
/// length.
pub(crate) fn solve_lower_vec(l: &[f64], n: usize, stride: usize, y: &mut [f64]) {
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { solve_lower_vec_fma(l, n, stride, y) };
        return;
    }
    for i in 0..n {
        let mut sum = y[i];
        for k in 0..i {
            let lik = l[i * stride + k];
            if lik == 0.0 {
                continue;
            }
            sum -= lik * y[k];
        }
        y[i] = sum / l[i * stride + i];
    }
}

#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "avx2", enable = "fma")
)]
unsafe fn solve_lower_vec_fma(l: &[f64], n: usize, stride: usize, y: &mut [f64]) {
    for i in 0..n {
        let mut sum = y[i];
        for k in 0..i {
            let lik = l[i * stride + k];
            if lik == 0.0 {
                continue;
            }
            // Single-rounding, same as the vectorised fnmadd of `sweep_axpy`.
            sum = (-lik).mul_add(y[k], sum);
        }
        y[i] = sum / l[i * stride + i];
    }
}

/// Backward substitution `Lᵀ x = y` for one vector, in place; see
/// [`solve_lower_vec`] for the equivalence contract.
pub(crate) fn solve_upper_vec(l: &[f64], n: usize, stride: usize, x: &mut [f64]) {
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { solve_upper_vec_fma(l, n, stride, x) };
        return;
    }
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in (i + 1)..n {
            let lki = l[k * stride + i];
            if lki == 0.0 {
                continue;
            }
            sum -= lki * x[k];
        }
        x[i] = sum / l[i * stride + i];
    }
}

#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "avx2", enable = "fma")
)]
unsafe fn solve_upper_vec_fma(l: &[f64], n: usize, stride: usize, x: &mut [f64]) {
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in (i + 1)..n {
            let lki = l[k * stride + i];
            if lki == 0.0 {
                continue;
            }
            sum = (-lki).mul_add(x[k], sum);
        }
        x[i] = sum / l[i * stride + i];
    }
}

/// Four-accumulator FMA dot product, dispatched: the portable fallback is the
/// plain ascending-order sum (identical to the pre-SIMD Gram build).
pub(crate) fn fused_dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { fused_dot_fma(a, b) }
    } else {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fused_dot_fma(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let n = a.len().min(b.len());
    let mut acc = _mm256_setzero_pd();
    let mut j = 0;
    while j + 4 <= n {
        let x = _mm256_loadu_pd(a.as_ptr().add(j));
        let y = _mm256_loadu_pd(b.as_ptr().add(j));
        acc = _mm256_fmadd_pd(x, y, acc);
        j += 4;
    }
    let mut lanes = [0.0_f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while j < n {
        s = a[j].mul_add(b[j], s);
        j += 1;
    }
    s
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn fused_dot_fma(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

// ---------------------------------------------------------------------------
// Fused squared-exponential apply: the elementwise pass of a cross-kernel
// norm expansion.
// ---------------------------------------------------------------------------

/// `row[j] = sf2 · exp(−½ · max(q_norm + x_norms[j] − 2·row[j], 0))`, in
/// place — the elementwise half of a squared-exponential cross-kernel norm
/// expansion, fused so the GEMM output is turned into kernel values in one
/// dispatched pass.
///
/// The portable fallback is the exact scalar loop (with `f64::exp`) the
/// prediction path used before this kernel existed; the AVX2 path evaluates
/// a degree-13 polynomial `exp` (Cody–Waite range reduction, ≲ 2 ulp over
/// the kernel's `(−∞, 0]` argument range) four lanes at a time, with the
/// ragged tail running the same polynomial in scalar code so a row's values
/// do not depend on how it aligns with the vector width.  `d2 = 0` (the Gram
/// diagonal) yields exactly `sf2` on both paths.
pub(crate) fn sq_exp_apply(row: &mut [f64], x_norms: &[f64], q_norm: f64, sf2: f64) {
    debug_assert_eq!(row.len(), x_norms.len());
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { sq_exp_apply_simd(row, x_norms, q_norm, sf2) };
    } else {
        for (v, &xn) in row.iter_mut().zip(x_norms.iter()) {
            let d2 = (q_norm + xn - 2.0 * *v).max(0.0);
            *v = sf2 * (-0.5 * d2).exp();
        }
    }
}

/// log2(e) and the Cody–Waite split of ln(2) used by the polynomial `exp`.
const EXP_LOG2E: f64 = std::f64::consts::LOG2_E;
const EXP_LN2_HI: f64 = 6.931_471_803_691_238e-1;
const EXP_LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Arguments below this underflow to zero (`exp(-708) ≈ 3e-308` is the last
/// comfortably normal value).
const EXP_UNDERFLOW: f64 = -708.0;
/// Taylor coefficients `1/k!` for `e^r` on `|r| ≤ ln2/2`, highest order
/// first (degree 13: truncation error ≈ 4e-18, far below rounding).
const EXP_POLY: [f64; 14] = [
    1.0 / 6_227_020_800.0, // 1/13!
    1.0 / 479_001_600.0,   // 1/12!
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    1.0 / 2.0,
    1.0,
    1.0,
];

/// Scalar replica of the vector lanes' polynomial `exp(t)` for `t ≤ 0`: same
/// range reduction, same Horner order, same underflow cutoff — used for the
/// ragged tail of [`sq_exp_apply`]'s SIMD path.
fn exp_poly_scalar(t: f64) -> f64 {
    if t < EXP_UNDERFLOW {
        return 0.0;
    }
    // Round to nearest-even (matching `_mm256_round_pd`; `f64::round` ties
    // away from zero) via the 2^52+2^51 shifter — exact for |x| < 2^51.
    const SHIFTER: f64 = 6_755_399_441_055_744.0;
    let k = (t * EXP_LOG2E + SHIFTER) - SHIFTER;
    let r = (-k).mul_add(EXP_LN2_LO, (-k).mul_add(EXP_LN2_HI, t));
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p.mul_add(r, c);
    }
    // 2^k by exponent-bit construction (k ∈ [-1022, 0] here).
    let two_k = f64::from_bits(((k as i64 + 1023) as u64) << 52);
    p * two_k
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sq_exp_apply_simd(row: &mut [f64], x_norms: &[f64], q_norm: f64, sf2: f64) {
    use core::arch::x86_64::*;
    let n = row.len().min(x_norms.len());
    let qn = _mm256_set1_pd(q_norm);
    let sf2v = _mm256_set1_pd(sf2);
    let neg_half = _mm256_set1_pd(-0.5);
    let zero = _mm256_setzero_pd();
    let log2e = _mm256_set1_pd(EXP_LOG2E);
    let ln2_hi = _mm256_set1_pd(EXP_LN2_HI);
    let ln2_lo = _mm256_set1_pd(EXP_LN2_LO);
    let underflow = _mm256_set1_pd(EXP_UNDERFLOW);
    let bias = _mm256_set1_epi64x(1023);
    let mut j = 0;
    while j + 4 <= n {
        let v = _mm256_loadu_pd(row.as_ptr().add(j));
        let xn = _mm256_loadu_pd(x_norms.as_ptr().add(j));
        // d2 = max(qn + xn - 2v, 0);  t = -0.5 * d2  (t ≤ 0).
        let d2 = _mm256_max_pd(
            _mm256_fnmadd_pd(_mm256_set1_pd(2.0), v, _mm256_add_pd(qn, xn)),
            zero,
        );
        let t = _mm256_mul_pd(neg_half, d2);
        // Range reduction: k = round(t·log2e), r = t - k·ln2 (Cody–Waite).
        let k = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(_mm256_max_pd(t, underflow), log2e),
        );
        let r = _mm256_fnmadd_pd(
            k,
            ln2_lo,
            _mm256_fnmadd_pd(k, ln2_hi, _mm256_max_pd(t, underflow)),
        );
        // Horner over the Taylor coefficients.
        let mut p = _mm256_set1_pd(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c));
        }
        // 2^k via exponent bits: k is integral in [-1022, 0].
        let ki = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
        let two_k = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(ki, bias)));
        let mut e = _mm256_mul_pd(p, two_k);
        // Flush true underflow (t < −708) to zero.
        e = _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(t, underflow), e);
        _mm256_storeu_pd(row.as_mut_ptr().add(j), _mm256_mul_pd(sf2v, e));
        j += 4;
    }
    while j < n {
        // Same fused `(qn + xn) − 2v` semantics as the vector body.
        let d2 = (-2.0f64).mul_add(row[j], q_norm + x_norms[j]).max(0.0);
        row[j] = sf2 * exp_poly_scalar(-0.5 * d2);
        j += 1;
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn sq_exp_apply_simd(row: &mut [f64], x_norms: &[f64], q_norm: f64, sf2: f64) {
    for (v, &xn) in row.iter_mut().zip(x_norms.iter()) {
        let d2 = (q_norm + xn - 2.0 * *v).max(0.0);
        *v = sf2 * exp_poly_scalar(-0.5 * d2);
    }
}

/// `acc[d] += scale * x[d] * y[d]`, dispatched; the portable fallback matches
/// the pre-SIMD fused gradient pass exactly.
pub(crate) fn add_scaled_product(acc: &mut [f64], x: &[f64], y: &[f64], scale: f64) {
    debug_assert_eq!(acc.len(), x.len());
    debug_assert_eq!(acc.len(), y.len());
    if crate::dispatch::simd_active() {
        // Safety: simd_active() implies the CPU supports AVX2+FMA.
        unsafe { add_scaled_product_fma(acc, x, y, scale) };
    } else {
        for ((a, &xv), &yv) in acc.iter_mut().zip(x.iter()).zip(y.iter()) {
            *a += scale * xv * yv;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn add_scaled_product_fma(acc: &mut [f64], x: &[f64], y: &[f64], scale: f64) {
    use core::arch::x86_64::*;
    let n = acc.len().min(x.len()).min(y.len());
    let sv = _mm256_set1_pd(scale);
    let mut j = 0;
    while j + 4 <= n {
        let xv = _mm256_loadu_pd(x.as_ptr().add(j));
        let yv = _mm256_loadu_pd(y.as_ptr().add(j));
        let a = _mm256_loadu_pd(acc.as_ptr().add(j));
        _mm256_storeu_pd(
            acc.as_mut_ptr().add(j),
            _mm256_fmadd_pd(_mm256_mul_pd(sv, xv), yv, a),
        );
        j += 4;
    }
    while j < n {
        acc[j] = (scale * x[j]).mul_add(y[j], acc[j]);
        j += 1;
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn add_scaled_product_fma(acc: &mut [f64], x: &[f64], y: &[f64], scale: f64) {
    for ((a, &xv), &yv) in acc.iter_mut().zip(x.iter()).zip(y.iter()) {
        *a = (scale * xv).mul_add(yv, *a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31 % 17) as f64 - 8.0) * scale)
            .collect()
    }

    #[test]
    fn packed_gemm_matches_reference_in_all_orientations() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (9, 4, 8), (17, 33, 13), (40, 40, 40)] {
            let a = seq(m * k, 0.07);
            let b = seq(k * n, 0.05);
            let mut out = vec![0.0; m * n];
            // A·B: A row-major m×k, B row-major k×n read as columns.
            gemm(Op::rows(&a, k), Op::cols(&b, n), m, k, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a[i * k + kk] * b[kk * n + j];
                    }
                    assert!(
                        (out[i * n + j] - acc).abs() < 1e-10,
                        "A·B ({i},{j}) {m}x{k}x{n}"
                    );
                }
            }
            // A·Bᵀ: B given p×k row-major (p = n).
            let bt = seq(n * k, 0.03);
            gemm(Op::rows(&a, k), Op::rows(&bt, k), m, k, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a[i * k + kk] * bt[j * k + kk];
                    }
                    assert!((out[i * n + j] - acc).abs() < 1e-10, "A·Bᵀ ({i},{j})");
                }
            }
            // Aᵀ·B: A given r×m row-major (r = k).
            let at = seq(k * m, 0.02);
            gemm(Op::cols(&at, m), Op::cols(&b, n), m, k, n, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += at[kk * m + i] * b[kk * n + j];
                    }
                    assert!((out[i * n + j] - acc).abs() < 1e-10, "Aᵀ·B ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn syrk_lower_subtracts_only_the_lower_triangle() {
        let (t, w) = (13, 5);
        let p = seq(t * w, 0.1);
        let stride = t + 3; // wider destination, offset columns
        let col0 = 2;
        let mut out = vec![1.0; t * stride];
        syrk_lower(Op::rows(&p, w), t, w, &mut out, stride, col0, true);
        for i in 0..t {
            for j in 0..t {
                let expect = if j <= i {
                    let mut acc = 0.0;
                    for kk in 0..w {
                        acc += p[i * w + kk] * p[j * w + kk];
                    }
                    1.0 - acc
                } else {
                    1.0
                };
                assert!(
                    (out[i * stride + col0 + j] - expect).abs() < 1e-10,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn sq_exp_apply_matches_scalar_exp_reference() {
        // Whatever path the dispatch selects, the fused pass must agree with
        // the plain `sf2·exp(-d2/2)` loop to tight tolerance, pin the d2 = 0
        // diagonal at exactly sf2, and flush huge distances to zero.
        for n in [0, 1, 3, 4, 5, 8, 17, 33] {
            let sf2 = 1.7;
            let q_norm = 2.25;
            let x_norms: Vec<f64> = (0..n).map(|j| 0.3 + 0.11 * j as f64).collect();
            // Dot products chosen to span d2 from 0 to very large.
            let mut row: Vec<f64> = (0..n)
                .map(|j| 0.5 * (q_norm + x_norms[j]) - 0.05 * (j as f64 - 2.0).powi(3))
                .collect();
            if n > 2 {
                // Force an exact-zero distance (the Gram diagonal case)...
                row[2] = 0.5 * (q_norm + x_norms[2]);
            }
            if n > 3 {
                // ...and a guaranteed-underflow distance.
                row[n - 1] = -1500.0;
            }
            let reference: Vec<f64> = row
                .iter()
                .zip(x_norms.iter())
                .map(|(&v, &xn)| {
                    let d2 = (q_norm + xn - 2.0 * v).max(0.0);
                    sf2 * (-0.5 * d2).exp()
                })
                .collect();
            sq_exp_apply(&mut row, &x_norms, q_norm, sf2);
            for (j, (a, b)) in row.iter().zip(reference.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-13 * (1.0 + b.abs()),
                    "lane {j}: {a} vs {b}"
                );
            }
            if n > 2 {
                assert_eq!(row[2], sf2, "zero distance must give exactly sf2");
            }
            if n > 3 {
                assert_eq!(row[n - 1], 0.0, "underflow must flush to zero");
            }
        }
    }

    #[test]
    fn exp_poly_scalar_is_accurate_over_the_kernel_range() {
        for i in 0..2000 {
            let t = -0.4 * i as f64; // 0 down to -799.6
            let reference = t.exp();
            let got = exp_poly_scalar(t);
            if t < EXP_UNDERFLOW {
                assert_eq!(got, 0.0, "t = {t}");
            } else {
                assert!(
                    (got - reference).abs() <= 1e-14 * reference,
                    "t = {t}: {got} vs {reference}"
                );
            }
        }
        assert_eq!(exp_poly_scalar(0.0), 1.0);
        assert_eq!(exp_poly_scalar(-0.0), 1.0);
    }

    #[test]
    fn elementwise_helpers_match_scalar_reference() {
        for n in [0, 1, 3, 4, 9, 31] {
            let src = seq(n, 0.3);
            let mut dst = seq(n, 0.9);
            let reference: Vec<f64> = dst
                .iter()
                .zip(src.iter())
                .map(|(d, s)| d - 1.7 * s)
                .collect();
            sweep_axpy(1.7, &src, &mut dst);
            for (a, b) in dst.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-12);
            }

            let x = seq(n, 0.2);
            let y = seq(n, 0.4);
            let expect: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
            assert!((fused_dot(&x, &y) - expect).abs() < 1e-10 * (1.0 + expect.abs()));

            let mut acc = seq(n, 1.1);
            let mut acc_ref = acc.clone();
            add_scaled_product(&mut acc, &x, &y, -0.6);
            for ((a, &xv), &yv) in acc_ref.iter_mut().zip(x.iter()).zip(y.iter()) {
                *a += -0.6 * xv * yv;
            }
            for (a, b) in acc.iter().zip(acc_ref.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
