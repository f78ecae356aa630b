//! # loom-core
//!
//! Public facade of the Loom reproduction (Firth, Missier & Aiston,
//! *Loom: Query-aware Partitioning of Online Graphs*, EDBT 2018).
//!
//! Re-exports the full API surface of the workspace and adds the
//! end-to-end experiment pipeline (§5.1): dataset generation → ordered
//! stream → one of four partitioners → workload execution → ipt.
//!
//! ## Quick start
//!
//! ```
//! use loom_core::prelude::*;
//!
//! // A tiny experiment cell: ProvGen data, BFS stream, 4 partitions.
//! let mut cfg = ExperimentConfig::evaluation_defaults(
//!     DatasetKind::ProvGen, Scale::Tiny, StreamOrder::BreadthFirst);
//! cfg.k = 4;
//! let result = run_experiment(&cfg);
//! let loom_pct = result.ipt_vs_hash(System::Loom).unwrap();
//! assert!(loom_pct < 100.0, "Loom beats Hash: {loom_pct:.1}%");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod persist;
pub mod pipeline;
pub mod report;
pub mod serve;

pub use config::{ExperimentConfig, System};
pub use engine::{EngineConfig, EngineError, OnlineEngine, Snapshot};
pub use persist::RecoveryStats;
pub use pipeline::{
    make_partitioner, partition_timed, run_experiment, run_experiment_with, ExperimentResult,
    SystemResult,
};
pub use serve::{ServeHandle, ServeOptions};

pub use loom_graph as graph;
pub use loom_matcher as matcher;
pub use loom_motif as motif;
pub use loom_partition as partition;
pub use loom_query as query;
pub use loom_runtime as runtime;
pub use loom_wal as wal;

/// Everything a typical caller needs, in one import.
pub mod prelude {
    pub use crate::config::{ExperimentConfig, System};
    pub use crate::engine::{EngineConfig, EngineError, OnlineEngine, Snapshot};
    pub use crate::pipeline::{run_experiment, run_experiment_with, ExperimentResult};
    pub use loom_graph::{
        DatasetKind, EdgeSource, GraphStream, Label, LabeledGraph, PatternGraph, Scale,
        StreamOrder, SyntheticEdgeSource, TextEdgeSource, Workload,
    };
    pub use loom_motif::{LabelRandomizer, MotifIndex, TpsTrie, DEFAULT_PRIME};
    pub use loom_partition::{
        taper_refine, Assignment, CapacityModel, FennelPartitioner, HashPartitioner,
        LdgPartitioner, LoomConfig, LoomPartitioner, PartitionMetrics, StreamPartitioner,
        TraversalWeights,
    };
    pub use loom_query::{count_ipt, workload_for, QueryExecutor};
}
