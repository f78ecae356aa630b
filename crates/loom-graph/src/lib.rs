//! # loom-graph
//!
//! Graph substrate for the Loom reproduction (Firth, Missier & Aiston,
//! *Loom: Query-aware Partitioning of Online Graphs*, EDBT 2018).
//!
//! This crate provides everything the partitioners, matcher and query
//! engine consume:
//!
//! - [`LabeledGraph`]: the undirected vertex-labelled data graph `G`
//!   of §1.3, with dense ids and adjacency lists;
//! - [`PatternGraph`]: the small query graphs `q`;
//! - [`GraphStream`] and [`StreamOrder`]: materialised edge streams in
//!   the three arrival orders of the evaluation (§5.1);
//! - [`EdgeSource`]: source-agnostic ingest — replayed streams, text
//!   feeds (stdin), or unbounded synthetic generators;
//! - [`generators`]: synthetic stand-ins for the five datasets of
//!   Table 1, preserving label alphabets and degree skew;
//! - [`datasets`]: named `(kind, scale)` presets used by every
//!   experiment.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod generators;
pub mod io;
mod labeled;
mod pattern;
mod source;
mod stream;
mod types;
mod workload;

pub use datasets::{DatasetKind, Scale};
pub use labeled::LabeledGraph;
pub use pattern::PatternGraph;
pub use source::{EdgeSource, SourceExtent, StreamCursor, SyntheticEdgeSource, TextEdgeSource};
pub use stream::{GraphStream, StreamEdge, StreamOrder};
pub use types::{EdgeId, Label, PartitionId, VertexId};
pub use workload::Workload;
