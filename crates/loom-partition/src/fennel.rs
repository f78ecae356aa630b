//! Fennel (Tsourakakis et al. \[31\]) — the paper's primary baseline.
//!
//! Fennel trades off neighbour affinity against a superlinear size
//! penalty: place `v` at `argmax |N(v) ∩ S_i| - α γ |S_i|^(γ-1)`, with
//! the interpolated cost parameter `α = m k^(γ-1) / n^γ` and a hard
//! balance cap `|S_i| ≤ ν n / k`. The evaluation uses `γ = 1.5` and
//! `ν = 1.1`, exactly as suggested by Tsourakakis et al. (§5.1, §4).

use crate::state::{Assignment, CapacityModel, PartitionState};
use crate::traits::StreamPartitioner;
use loom_graph::{PartitionId, StreamEdge, VertexId};

/// Fennel's argmax over a per-partition neighbour-count row:
/// `argmax count_i - α γ |S_i|^(γ-1)` subject to the hard cap, ties to
/// the smaller partition, falling back to the least-loaded partition
/// if every partition is at cap. Shared by the edge-stream partitioner
/// and the vertex-stream variant so the scoring arithmetic (and hence
/// bit-level behaviour) cannot drift between them.
pub fn fennel_choose(
    state: &PartitionState,
    counts: &[u32],
    alpha: f64,
    gamma: f64,
    cap: f64,
) -> PartitionId {
    let mut best: Option<(f64, usize, PartitionId)> = None;
    for p in state.partitions() {
        let size = state.size(p);
        if (size as f64) >= cap {
            continue; // hard balance constraint
        }
        let score = counts[p.index()] as f64 - alpha * gamma * (size as f64).powf(gamma - 1.0);
        let better = match &best {
            None => true,
            Some((bs, bsize, _)) => score > *bs || (score == *bs && size < *bsize),
        };
        if better {
            best = Some((score, size, p));
        }
    }
    // All partitions at cap cannot happen with ν > 1, but stay safe.
    best.map(|(_, _, p)| p)
        .unwrap_or_else(|| state.least_loaded())
}

/// Fennel's tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct FennelParams {
    /// Exponent of the size penalty (paper value: 1.5).
    pub gamma: f64,
    /// Maximum imbalance ν: hard cap at `ν n / k` (paper value: 1.1).
    pub nu: f64,
}

impl Default for FennelParams {
    fn default() -> Self {
        FennelParams {
            gamma: 1.5,
            nu: 1.1,
        }
    }
}

/// Fennel as an edge-stream partitioner (unassigned endpoints are
/// placed on arrival, like the LDG variant).
///
/// Like [`crate::ldg::LdgPartitioner`], the edge-stream form scores
/// through the degenerate one-hot case of the adjacency scan
/// ([`crate::state::OnlineAdjacency::partition_counts_into`]): an unassigned endpoint
/// is always a first-sighted vertex whose seen neighbourhood is
/// exactly the other endpoint, so no adjacency or counter table is
/// maintained at all — O(k) per decision, flat in stream length
/// (bit-equivalence with the scan reference is property-tested).
#[derive(Clone, Debug)]
pub struct FennelPartitioner {
    state: PartitionState,
    /// Reused one-hot count row (length k).
    scratch: Vec<u32>,
    gamma: f64,
    nu: f64,
    /// `(α, cap)` fixed upfront in prescient mode; recomputed from the
    /// running totals each placement in adaptive mode.
    fixed: Option<(f64, f64)>,
    edges_seen: usize,
}

impl FennelPartitioner {
    /// Build for `k` partitions. Fennel's α is defined over the stream
    /// totals `n` (vertices) and `m` (edges): in prescient mode they
    /// come from the [`CapacityModel`]; in adaptive mode both are the
    /// *running* counts, so `α_t = m_t · k^(γ-1) / n_t^γ` and the hard
    /// cap `ν · n_t / k` track the stream as it unfolds.
    pub fn new(k: usize, capacity: CapacityModel, params: FennelParams) -> Self {
        let kf = k as f64;
        let fixed = match capacity {
            CapacityModel::Prescient {
                num_vertices,
                num_edges,
            } => {
                let n = num_vertices.max(1) as f64;
                let m = num_edges.max(1) as f64;
                let alpha = m * kf.powf(params.gamma - 1.0) / n.powf(params.gamma);
                Some((alpha, params.nu * n / kf))
            }
            CapacityModel::Adaptive => None,
        };
        FennelPartitioner {
            state: PartitionState::new(k, capacity, params.nu),
            scratch: vec![0; k],
            gamma: params.gamma,
            nu: params.nu,
            fixed,
            edges_seen: 0,
        }
    }

    /// The interpolated-cost α in use (at the current stream position,
    /// in adaptive mode).
    pub fn alpha(&self) -> f64 {
        self.alpha_and_cap().0
    }

    fn alpha_and_cap(&self) -> (f64, f64) {
        match self.fixed {
            Some(pair) => pair,
            None => {
                let kf = self.state.k() as f64;
                let n = self.state.assigned_count().max(1) as f64;
                let m = self.edges_seen.max(1) as f64;
                (
                    m * kf.powf(self.gamma - 1.0) / n.powf(self.gamma),
                    self.nu * n / kf,
                )
            }
        }
    }

    fn choose_first_sight(&mut self, other: VertexId) -> PartitionId {
        let (alpha, cap) = self.alpha_and_cap();
        self.scratch.fill(0);
        if let Some(p) = self.state.partition_of(other) {
            self.scratch[p.index()] += 1;
        }
        fennel_choose(&self.state, &self.scratch, alpha, self.gamma, cap)
    }
}

impl StreamPartitioner for FennelPartitioner {
    fn name(&self) -> &'static str {
        "Fennel"
    }

    fn on_edge(&mut self, e: &StreamEdge) {
        self.edges_seen += 1;
        for (v, other) in [(e.src, e.dst), (e.dst, e.src)] {
            if !self.state.is_assigned(v) {
                // First sight: N(v) = {other}, see the struct docs.
                let p = self.choose_first_sight(other);
                self.state.assign(v, p);
            }
        }
    }

    fn finish(&mut self) {}

    fn state(&self) -> &PartitionState {
        &self.state
    }

    /// Fennel's mutable state is the partition columns plus the running
    /// edge count (adaptive α reads it); γ/ν/fixed are config.
    fn save_state(&self, w: &mut loom_wal::ByteWriter) -> Result<(), loom_wal::WalError> {
        self.state.wal_save(w);
        w.u64(self.edges_seen as u64);
        Ok(())
    }

    fn load_state(&mut self, r: &mut loom_wal::ByteReader) -> Result<(), loom_wal::WalError> {
        self.state.wal_load(r)?;
        self.edges_seen = r.u64()? as usize;
        Ok(())
    }

    fn into_assignment(self: Box<Self>) -> Assignment {
        self.state.into_assignment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::{EdgeId, Label};

    fn se(id: u32, src: u32, dst: u32) -> StreamEdge {
        StreamEdge {
            id: EdgeId(id),
            src: VertexId(src),
            dst: VertexId(dst),
            src_label: Label(0),
            dst_label: Label(0),
        }
    }

    #[test]
    fn alpha_matches_formula() {
        let f = FennelPartitioner::new(
            4,
            CapacityModel::prescient(1000, 5000),
            FennelParams::default(),
        );
        let expect = 5000.0 * 2.0 / 1000.0_f64.powf(1.5);
        assert!((f.alpha() - expect).abs() < 1e-12);
    }

    #[test]
    fn co_locates_a_community() {
        let mut f = FennelPartitioner::new(
            2,
            CapacityModel::prescient(100, 200),
            FennelParams::default(),
        );
        // A clique on 0-4 arriving contiguously should co-locate.
        let mut id = 0;
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                f.on_edge(&se(id, i, j));
                id += 1;
            }
        }
        let p0 = f.state().partition_of(VertexId(0)).unwrap();
        for i in 1..5u32 {
            assert_eq!(f.state().partition_of(VertexId(i)), Some(p0));
        }
    }

    #[test]
    fn hard_cap_respected() {
        let mut f =
            FennelPartitioner::new(2, CapacityModel::prescient(20, 40), FennelParams::default());
        // Force-feed a chain, which Fennel would love to co-locate;
        // the ν cap (1.1 * 10 = 11) must stop partition growth.
        for i in 0..19u32 {
            f.on_edge(&se(i, i, i + 1));
        }
        let max = f.state().max_size();
        assert!(max <= 11, "cap violated: {max}");
    }

    #[test]
    fn all_endpoints_assigned() {
        let mut f =
            FennelPartitioner::new(4, CapacityModel::prescient(60, 30), FennelParams::default());
        for i in 0..30u32 {
            f.on_edge(&se(i, i, i + 30));
        }
        for i in 0..60u32 {
            assert!(f.state().is_assigned(VertexId(i)));
        }
    }

    #[test]
    fn balances_random_pairs() {
        let mut f = FennelPartitioner::new(
            4,
            CapacityModel::prescient(4000, 2000),
            FennelParams::default(),
        );
        for i in 0..2000u32 {
            f.on_edge(&se(i, 2 * i, 2 * i + 1));
        }
        let max = f.state().max_size() as f64;
        let min = f.state().min_size() as f64 + 1.0;
        assert!(max / min < 1.5, "imbalance {max}/{min}");
    }
}
