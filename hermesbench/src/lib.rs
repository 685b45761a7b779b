//! # hermesbench — the repository's benchmark
//!
//! Three seeded workloads drive the public APIs of `hermes-core`,
//! `hermes-baselines`, `hermes-bgp`, `hermes-fleet` and `hermes-netsim`
//! in-process, check every output, and report end-to-end metrics (or,
//! traced, per-layer ones). See `hermesbench/README.md` for the workload
//! rationale and the metric map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod churn;
pub mod fabric;
pub mod fib;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;

/// Workload names accepted by `--workload`.
pub const WORKLOADS: &[&str] = &["guarantee-churn", "bgp-fib", "fabric"];
