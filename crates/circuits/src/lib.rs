//! Analog circuit simulation substrate for the `nnbo` workspace.
//!
//! The paper evaluates its optimizer on two real circuits simulated with HSPICE on
//! SMIC 180nm/40nm PDKs.  Neither the simulator nor the PDKs are available offline,
//! so the op-amp is a small-signal AC model and the charge pump is behavioural:
//!
//! * [`Complex`] — complex arithmetic for AC (frequency-domain) analysis;
//! * [`SmallSignalCircuit`] / [`AcAnalysis`] / [`BodeMetrics`] — complex-MNA
//!   small-signal frequency sweeps and the gain / unity-gain-frequency /
//!   phase-margin metrics used by the op-amp spec;
//! * [`MosfetModel`] / [`MosTransistor`] — square-law (level-1) MOSFET model with
//!   channel-length modulation and small-signal extraction;
//! * [`TwoStageOpAmp`] — the Table-I testbench (10 design variables → GAIN/UGF/PM);
//! * [`ChargePump`] + [`PvtCorner`] — the Table-II testbench (36 design variables,
//!   18 PVT corners → current-matching metrics and FOM);
//! * [`Testbench`] / [`CornerSweep`] — the declarative testbench layer and the PVT
//!   corner-sweep combinator (see below).
//!
//! # Example
//!
//! ```
//! use nnbo_circuits::TwoStageOpAmp;
//!
//! let bench = TwoStageOpAmp::new();
//! // A mid-range design point (normalised coordinates in [0,1]^10).
//! let perf = bench.evaluate_normalized(&[0.5; 10]);
//! assert!(perf.gain_db.is_finite());
//! assert!(perf.ugf_hz > 0.0);
//! ```
//!
//! # Testbenches and corner sweeps
//!
//! Circuit problems compose declaratively instead of being hand-wired: a
//! [`Testbench`] owns its design-space mapping (bounds + denormalisation), its
//! circuit build, the analyses it runs and the metrics it measures, all behind
//! one corner-aware entry point, [`Testbench::measure`].  A [`CornerSweep`] expands
//! one testbench into K [`PvtCorner`] variants and measures one corner at a time
//! with [`CornerSweep::run_corner`]; a failed corner surfaces as an error naming
//! the corner — never as a `NaN` smuggled through an aggregation.
//!
//! A sweep's corners are combined into one verdict in exactly one place:
//! `SweepAggregation` on the `SweepProblem` adapter in `nnbo-core` (worst case,
//! nominal only, or per-corner constraints).  `SweepProblem` fans the corner
//! measurements out over the process-wide worker pool; its sequential mode
//! (`SweepProblem::with_parallel(false)`) is the bit-identity reference the pooled
//! path is pinned against.  (The charge pump's eq. 15–16 metric fold inside
//! [`ChargePump::try_evaluate`] is part of that bench's own evaluation, which
//! forms the FOM from the folded raw metrics.)
//!
//! Measuring one op-amp design at each of the standard 18 corners:
//!
//! ```
//! use nnbo_circuits::{CornerSweep, Testbench, TwoStageOpAmp};
//!
//! let sweep = CornerSweep::standard_18(TwoStageOpAmp::new());
//! let x = sweep.bench().denormalize(&[0.5; 10]);
//! let per_corner: Vec<_> = (0..sweep.corners().len())
//!     .map(|k| sweep.run_corner(&x, k).expect("every corner converges here"))
//!     .collect();
//! assert_eq!(per_corner.len(), 18);
//!
//! // The worst corner is no better than the nominal design.
//! let worst_gain = per_corner.iter().map(|p| p.gain_db).fold(f64::INFINITY, f64::min);
//! let nominal = sweep.bench().try_evaluate(&x).unwrap();
//! assert!(worst_gain <= nominal.gain_db);
//! ```

#![warn(missing_docs)]

mod ac;
mod chargepump;
mod complex;
mod mosfet;
mod opamp;
mod pvt;
mod testbench;

pub use ac::{
    AcAnalysis, AcSweep, BodeMetrics, NodeId, SmallSignalCircuit, SmallSignalElement, GROUND,
};
pub use chargepump::{
    ChargePump, ChargePumpCornerMeasurement, ChargePumpPerformance, CHARGE_PUMP_DIM,
};
pub use complex::Complex;
pub use mosfet::{MosPolarity, MosTransistor, MosfetModel, OperatingRegion, SmallSignalParams};
pub use opamp::{OpAmpPerformance, TwoStageOpAmp, OPAMP_DIM};
pub use pvt::{Process, PvtCorner};
pub use testbench::{CornerContext, CornerSweep, Testbench};
