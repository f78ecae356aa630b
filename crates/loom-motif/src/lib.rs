//! # loom-motif
//!
//! Motif discovery for the Loom reproduction: number-theoretic graph
//! signatures (§2.1/§2.3), the TPSTry++ trie over query sub-graphs
//! (§2.2, Alg. 1), motif extraction at a support threshold, the
//! collision-probability model behind Fig. 4, and an exact isomorphism
//! oracle used to validate the probabilistic scheme.
//!
//! The flow: build a [`TpsTrie`] from a [`loom_graph::Workload`] with a
//! shared [`LabelRandomizer`], filter it to a [`MotifIndex`] at the
//! support threshold `T` (40% in the evaluation), and hand the index to
//! the streaming matcher (`loom-matcher`), which follows parent→child
//! [`Delta`] annotations instead of ever recomputing a signature from
//! scratch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collision;
pub mod isomorphism;
pub mod signature;
pub mod subgraph_enum;
pub mod tpstry;

pub use signature::{
    edge_delta, pattern_signature, single_edge_delta, subset_signature, Delta, FactorSet,
    LabelRandomizer, DEFAULT_PRIME,
};
pub use tpstry::{DeltaId, DeltaLut, Motif, MotifId, MotifIndex, TpsTrie, TrieNode, TrieNodeId};
