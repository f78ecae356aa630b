//! # loom-query
//!
//! The query side of the evaluation (§5): a sub-graph pattern-matching
//! executor over the data graph, ipt (inter-partition traversal)
//! accounting against a finished partitioning, and the representative
//! workloads of §5.1.2 for each dataset.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod executor;
pub mod ipt;
pub mod paged;
pub mod view;
pub mod workloads;

pub use executor::{GraphAccess, QueryExecutor};
pub use ipt::{count_ipt, IptReport, QueryIpt};
pub use paged::{FrozenAssignment, ViewGraph};
pub use view::{handle_request, khop, match_path, KhopResult, ReadView};
pub use workloads::workload_for;
