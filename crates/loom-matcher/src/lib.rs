//! # loom-matcher
//!
//! The streaming half of Loom's motif machinery (§3): the sliding
//! window `Ptemp` over the edge stream, the `matchList` map from
//! vertices/edges to motif-matching sub-graphs, and the Alg. 2 matcher
//! that grows matches by trie-guided extension and join as edges
//! arrive. The allocation step (`loom-partition`) consumes matches as
//! edges fall out of the window.
//!
//! Matches are stored in a cell arena ([`matchlist`]): a match is a
//! `(parent, appended edge)` cons chain, so the steady-state `on_edge`
//! path never clones an edge vector — extension and join allocate O(1)
//! cells and edge lists materialise only when allocation consumes a
//! match (via [`MatchRef`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod matcher;
pub mod matchlist;
pub mod window;

pub use matcher::{EdgeFate, EdgeProbe, MotifMatcher, MAX_MATCHES_PER_ENDPOINT};
pub use matchlist::{ArenaOccupancy, MatchId, MatchList, MatchRef};
pub use window::SlidingWindow;
