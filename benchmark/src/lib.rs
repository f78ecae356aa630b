//! The repo benchmark: five workloads, client-seen numbers, and a
//! per-layer ledger timed from outside. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.

pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
