//! The repository benchmark: closed-loop rewrite and equivalence-check
//! workloads over generated circuits, reporting end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! See `README.md` beside this crate for the workloads, the metrics and the
//! layer-to-end-to-end map.

pub mod bench;
pub mod op;
pub mod stats;
pub mod workload;
