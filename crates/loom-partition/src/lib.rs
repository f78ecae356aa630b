//! # loom-partition
//!
//! All four partitioners of the evaluation (§5.1) — the Hash baseline,
//! LDG, Fennel, and Loom itself — over a shared vertex-centric
//! [`PartitionState`], plus the equal-opportunism auction (§4) and
//! structural quality metrics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod equal_opportunism;
pub mod fennel;
pub mod hash;
pub mod ldg;
#[allow(clippy::module_inception)]
pub mod loom;
pub mod metrics;
pub mod restream;
pub mod state;
pub mod taper;
pub mod traits;
pub mod vertex_stream;

pub use equal_opportunism::{
    auction, bid, order_matches, ration, AuctionMatch, AuctionOutcome, EoParams,
};
pub use fennel::{fennel_choose, FennelParams, FennelPartitioner};
pub use hash::HashPartitioner;
pub use ldg::{choose_weighted, ldg_choose, LdgPartitioner};
pub use loom::{AllocationPolicy, LoomConfig, LoomPartitioner, LoomStats, PhaseBreakdown};
pub use metrics::PartitionMetrics;
pub use restream::{restream_pass, restreamed_ldg};
pub use state::{
    AdjacencyHorizon, AdjacencyOccupancy, Assignment, CapacityModel, NeighborCounts,
    OnlineAdjacency, PartitionState,
};
pub use taper::{taper_refine, weighted_cut, RefinementResult, TraversalWeights};
pub use traits::{partition_stream, IngestError, StreamPartitioner};
pub use vertex_stream::{fennel_vertex_stream, ldg_vertex_stream, vertex_stream, VertexArrival};
