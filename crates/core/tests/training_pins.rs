//! Golden bit-identity pins of the paper's training path.
//!
//! The neural-GP training epoch (MLP forward/backward, the `M × M` algebra
//! of eqs. 10–12 and the Adam update) is free to get faster, but never to
//! change a bit of what it computes.  These tests pin, under both kernel
//! dispatch paths:
//!
//! * the NLL bits and a hash of the full model state of a fixed-seed cold
//!   [`NeuralGp::fit`] and of a warm [`NeuralGp::fit_warm`] refit;
//! * a hash of the whole evaluation history of a 30 + 20-step
//!   [`BayesOpt::neural`] run on the op-amp.
//!
//! The expected values were recorded before the training epoch was made
//! allocation-free, when a `Matrix` still serialized as an array of floats;
//! the state hash decodes today's hex `data` payload back to those floats.
//! They are only asserted on x86_64 Linux, the platform they were recorded
//! on: the NLL goes through the system `exp`/`ln`, whose last bits are not
//! specified across platforms.
//!
//! The tests flip the process-wide [`nnbo_linalg::force_portable_kernels`]
//! switch, so they live in their own binary and take one lock.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::sync::Mutex;

use nnbo_core::problems::OpAmpProblem;
use nnbo_core::{BayesOpt, BoConfig, NeuralGp, NeuralGpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Restores the automatic dispatch even when a test panics.
struct DispatchGuard;

impl Drop for DispatchGuard {
    fn drop(&mut self) {
        nnbo_linalg::force_portable_kernels(false);
    }
}

/// Expected values for one kernel path.
#[derive(Debug, PartialEq)]
struct Pins {
    fit_nll: u64,
    fit_state: u64,
    warm_nll: u64,
    warm_state: u64,
    history: u64,
}

/// The packed AVX2+FMA kernels.
const VECTORISED: Pins = Pins {
    fit_nll: 13855069121200299212,
    fit_state: 13491934158417336360,
    warm_nll: 13858177505075347781,
    warm_state: 11026607680097812066,
    history: 8473426304632943572,
};

/// The portable scalar kernels (`NNBO_PORTABLE_KERNELS=1`).
const PORTABLE: Pins = Pins {
    fit_nll: 13855069121060001414,
    fit_state: 8153022914321835833,
    warm_nll: 13858177524882970842,
    warm_state: 5658672846902761261,
    history: 11235602900954660162,
};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// Hashes a serialized value tree: every float by its bit pattern,
    /// every key and string by its bytes, in tree order.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::U64(u) => self.bytes(&u.to_le_bytes()),
            Value::I64(i) => self.bytes(&i.to_le_bytes()),
            Value::F64(f) => self.f64(*f),
            Value::Str(s) => self.bytes(s.as_bytes()),
            Value::Seq(items) => items.iter().for_each(|item| self.value(item)),
            Value::Map(fields) => {
                for (key, item) in fields {
                    self.bytes(key.as_bytes());
                    match (key.as_str(), item) {
                        ("data", Value::Str(hex)) => self.matrix_payload(hex),
                        _ => self.value(item),
                    }
                }
            }
        }
    }

    /// Hashes a `Matrix` `data` payload (16 hex digits of `to_bits()` per
    /// element) exactly as the float sequence it encodes, so the pins
    /// recorded when matrices serialized as float arrays still apply.
    fn matrix_payload(&mut self, hex: &str) {
        assert_eq!(hex.len() % 16, 0, "matrix payload of {} digits", hex.len());
        for digits in hex.as_bytes().chunks(16) {
            let digits = std::str::from_utf8(digits).unwrap();
            let bits = u64::from_str_radix(digits, 16).expect("hex matrix payload");
            self.f64(f64::from_bits(bits));
        }
    }
}

fn state_hash(model: &NeuralGp) -> u64 {
    let mut h = Fnv::new();
    h.value(&model.to_value());
    h.0
}

/// A smooth 3-input test function on `n` seeded points.
fn data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let ys = xs
        .iter()
        .map(|x| (4.0 * x[0]).sin() + x[1] * x[2] - 0.3 * x[2])
        .collect();
    (xs, ys)
}

/// Computes every pinned value on whichever kernel path is active.
fn measure() -> Pins {
    let config = NeuralGpConfig::default();
    let (xs, ys) = data(48, 7);
    let (head_x, head_y) = (&xs[..40], &ys[..40]);
    let cold = NeuralGp::fit(head_x, head_y, &config, &mut StdRng::seed_from_u64(11)).unwrap();
    let warm = NeuralGp::fit_warm(
        &xs,
        &ys,
        &config,
        &mut StdRng::seed_from_u64(12),
        Some(&cold),
    )
    .unwrap();

    let run = BayesOpt::neural(BoConfig::new(30, 50).with_seed(5))
        .run(&OpAmpProblem::new())
        .unwrap();
    let mut history = Fnv::new();
    for (x, e) in run.evaluations() {
        x.iter().for_each(|&v| history.f64(v));
        history.f64(e.objective);
        e.constraints.iter().for_each(|&g| history.f64(g));
    }

    Pins {
        fit_nll: cold.nll().to_bits(),
        fit_state: state_hash(&cold),
        warm_nll: warm.nll().to_bits(),
        warm_state: state_hash(&warm),
        history: history.0,
    }
}

#[test]
fn training_is_bit_identical_to_the_recorded_pins_on_both_dispatch_paths() {
    let _lock = DISPATCH_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = DispatchGuard;
    for forced in [false, true] {
        nnbo_linalg::force_portable_kernels(forced);
        let expected = if nnbo_linalg::kernel_isa() == "portable" {
            &PORTABLE
        } else {
            &VECTORISED
        };
        let got = measure();
        assert_eq!(
            &got,
            expected,
            "{} kernels (forced portable: {forced})",
            nnbo_linalg::kernel_isa()
        );
    }
}
