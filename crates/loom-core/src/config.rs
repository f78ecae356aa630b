//! Experiment configuration shared by the pipeline and the paper
//! suites the `repro` binary prints (`loom-cli`'s `suites` module).

use loom_graph::{DatasetKind, Scale, StreamOrder};
use loom_partition::{CapacityModel, LoomConfig};

/// The four systems of the evaluation (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum System {
    /// Naive hash placement — the normalisation baseline.
    Hash,
    /// Linear Deterministic Greedy.
    Ldg,
    /// Fennel (γ = 1.5) — the primary comparison point.
    Fennel,
    /// Loom.
    Loom,
}

impl System {
    /// All four, in the order the paper's figures list them.
    pub const ALL: [System; 4] = [System::Hash, System::Ldg, System::Fennel, System::Loom];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            System::Hash => "Hash",
            System::Ldg => "LDG",
            System::Fennel => "Fennel",
            System::Loom => "Loom",
        }
    }

    /// The system a name selects, case-insensitively: `hash`, `ldg`,
    /// `fennel` or `loom`. The one map from names to systems.
    pub fn parse(name: &str) -> Option<System> {
        System::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

/// One experiment cell: dataset × stream order × k × Loom parameters.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Which dataset to generate.
    pub dataset: DatasetKind,
    /// Dataset scale preset.
    pub scale: Scale,
    /// Stream arrival order.
    pub order: StreamOrder,
    /// Number of partitions `k`.
    pub k: usize,
    /// Loom's sliding-window capacity.
    pub window_size: usize,
    /// Loom's motif support threshold.
    pub support_threshold: f64,
    /// Master seed (dataset, stream shuffle, signatures).
    pub seed: u64,
    /// Per-query match cap for ipt counting (identical across systems).
    pub limit_per_query: usize,
}

impl ExperimentConfig {
    /// The §5.1 defaults: 8-way, 40% threshold, and a window that
    /// follows the paper's 10k cap — but scaled with the dataset preset.
    /// The paper's 10k window is ~1% of its smallest ipt-evaluated
    /// stream; we default to ~2% of the stream for the same reason the
    /// paper caps absolute size (Fig. 9's discussion): the window is a
    /// temporary partition, and everything still buffered at
    /// end-of-stream is assigned when partitions are at their fullest.
    pub fn evaluation_defaults(dataset: DatasetKind, scale: Scale, order: StreamOrder) -> Self {
        let window_size = (scale.target_edges() / 50).clamp(64, 10_000);
        ExperimentConfig {
            dataset,
            scale,
            order,
            k: 8,
            window_size,
            support_threshold: 0.4,
            seed: 42,
            limit_per_query: 200_000,
        }
    }

    /// This cell's Loom under `capacity`: the evaluation defaults with
    /// the cell's `k`, window, threshold and seed.
    pub fn loom_config(&self, capacity: CapacityModel) -> LoomConfig {
        LoomConfig {
            window_size: self.window_size,
            support_threshold: self.support_threshold,
            capacity,
            seed: self.seed,
            ..LoomConfig::evaluation_defaults(self.k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scale_window_to_stream() {
        let c = ExperimentConfig::evaluation_defaults(
            DatasetKind::Dblp,
            Scale::Tiny,
            StreamOrder::BreadthFirst,
        );
        assert!(c.window_size <= Scale::Tiny.target_edges());
        assert_eq!(c.k, 8);
        assert!((c.support_threshold - 0.4).abs() < 1e-12);
    }

    #[test]
    fn system_names() {
        let names: Vec<_> = System::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["Hash", "LDG", "Fennel", "Loom"]);
        for s in System::ALL {
            assert_eq!(System::parse(&s.name().to_ascii_uppercase()), Some(s));
        }
        assert_eq!(System::parse("LoOm"), Some(System::Loom));
        assert_eq!(System::parse("bogus"), None);
    }
}
