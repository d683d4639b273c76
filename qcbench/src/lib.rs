//! End-to-end and per-layer benchmark of the quorum-consensus simulators
//! and checkers. See `README.md` in this directory for the workloads,
//! the metrics and how to read them.

pub mod bench;
pub mod gate;
pub mod layers;
pub mod measure;
mod per_layer;
pub mod report;
pub mod workload;
