//! # fluidicl-perfbench — the repository's benchmark
//!
//! Measures the FluidiCL reproduction on both of its clocks: host wall
//! time of the Rust code, and the virtual makespans the paper reports.
//! Three workloads stress different layers (see `README.md` in this
//! directory); a traced run records spans around the calls into each
//! layer's public functions and reports per-layer metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;
pub mod workload;
