//! The repository's benchmark: end-to-end numbers for a `Driver` run to
//! its target and for an HTTP job, and per-layer numbers from a traced
//! run. See `perfbench/README.md` for the workloads and metrics.

pub mod alloc;
mod engines;
mod host;
mod master_slave;
mod report;
pub mod run;
mod serve;
mod stats;
mod trace;
mod workload;
