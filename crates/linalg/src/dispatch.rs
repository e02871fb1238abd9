//! Runtime selection between the portable scalar kernels and the packed-panel
//! SIMD micro-kernels.
//!
//! Every blocked kernel in this crate funnels through one dispatch point,
//! [`simd_active`].  The decision combines three inputs:
//!
//! 1. **Hardware** — `is_x86_feature_detected!("avx2")` + `fma`, probed once
//!    per process and cached.  On non-x86_64 targets this is always `false`.
//! 2. **Environment** — setting `NNBO_PORTABLE_KERNELS=1` (read once) forces
//!    the portable path regardless of hardware, which is how CI exercises the
//!    fallback kernels on AVX2-capable runners.
//! 3. **Programmatic override** — [`force_portable_kernels`] toggles the same
//!    forcing at runtime, which is how benchmarks time the scalar and SIMD
//!    paths against each other inside one process.
//!
//! The dispatch never changes *what* is computed, only which instruction
//! sequence computes it; both paths satisfy the same tolerance-based
//! equivalence properties against the naive reference kernels.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Name of the environment variable that forces the portable kernels.
pub const PORTABLE_ENV: &str = "NNBO_PORTABLE_KERNELS";

/// Runtime override set by [`force_portable_kernels`].
static FORCE_PORTABLE: AtomicBool = AtomicBool::new(false);

/// Process-wide facts probed once: (env forces portable, hardware has AVX2+FMA).
static PROBED: OnceLock<(bool, bool)> = OnceLock::new();

fn probe() -> (bool, bool) {
    *PROBED.get_or_init(|| {
        let env_portable = std::env::var(PORTABLE_ENV).is_ok_and(|v| v != "0" && !v.is_empty());
        #[cfg(target_arch = "x86_64")]
        let hw = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let hw = false;
        (env_portable, hw)
    })
}

/// Forces (`true`) or stops forcing (`false`) the portable scalar kernels.
///
/// Intended for benchmarks and tests that want to compare both code paths in
/// one process; production code should leave the automatic dispatch alone.
/// The environment override (`NNBO_PORTABLE_KERNELS=1`) is independent and
/// cannot be cancelled programmatically, so a test run forced portable from
/// the outside stays portable.
pub fn force_portable_kernels(force: bool) {
    FORCE_PORTABLE.store(force, Ordering::Relaxed);
}

/// `true` when the packed-panel AVX2+FMA micro-kernels are in use.
///
/// Other crates route their own `#[target_feature]` copies of a kernel
/// through this (the `nnbo-nn` Adam update does), so one environment
/// variable and one override switch every vectorised path in the process.
pub fn simd_active() -> bool {
    let (env_portable, hw) = probe();
    hw && !env_portable && !FORCE_PORTABLE.load(Ordering::Relaxed)
}

/// Human-readable name of the kernel path the dispatch currently selects:
/// `"avx2+fma"` or `"portable"`.  Benchmark emitters record this alongside
/// their timings so results from differently-equipped machines are
/// distinguishable.
pub fn kernel_isa() -> &'static str {
    if simd_active() {
        "avx2+fma"
    } else {
        "portable"
    }
}

// The dispatch override is process global, so its behaviour is tested in
// `tests/simd_dispatch.rs` (its own serialized binary) rather than here —
// flipping it inside the unit-test binary would race the bit-identity
// assertions of the kernel and Cholesky unit tests.
