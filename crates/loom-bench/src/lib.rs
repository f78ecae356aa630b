//! # loom-bench
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! | Paper artefact | Suite function | Criterion bench |
//! |---|---|---|
//! | Fig. 4 (collision probabilities) | [`suites::fig4`] | `fig4_collisions` |
//! | Table 1 (datasets) | [`suites::table1`] | — |
//! | Fig. 7 (ipt vs Hash, stream orders) | [`suites::fig7`] | `fig7_orders` |
//! | Fig. 8 (ipt vs Hash, k sweep) | [`suites::fig8`] | `fig8_k` |
//! | Table 2 (partitioning throughput) | [`suites::table2`] | `table2_throughput` |
//! | Fig. 9 (window-size sweep) | [`suites::fig9`] | `fig9_window` |
//! | §5.2 imbalance note | folded into [`suites::fig7`] | — |
//! | Ablations (DESIGN.md §7) | [`suites::ablations`] | `ablation_allocation` |
//! | Online vs prescient (DESIGN.md §8) | [`suites::online`] | — |
//!
//! The `repro` binary prints the suites, writes a `BENCH_results.json`
//! summary of the ipt cells ([`BenchSummary`]) and gates its quality
//! digits against the committed copy ([`compare`]); the criterion
//! benches measure the hot paths behind them. End-to-end throughput is
//! measured by `benchmark/`, not here.

pub mod bench_compare;
pub mod suites;

pub use bench_compare::{compare, BenchSummary, GateReport};
pub use suites::{ablations, fig4, fig7, fig8, fig9, online, table1, table2};
