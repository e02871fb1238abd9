//! End-to-end benchmark of the BO loop, the paper's circuits and the
//! session service, timed layer by layer from outside the crates.
//!
//! See `README.md` in this directory for the workloads, the metrics and the
//! first recorded numbers.

pub mod stats;
pub mod sysinfo;
pub mod trace;
pub mod workloads;
