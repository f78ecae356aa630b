//! Cross-crate integration of the post-paper extensions: TAPER-style
//! refinement, restreaming, vertex-stream baselines and trie decay —
//! wired through the same pipeline as the main evaluation.

use loom_core::graph::{datasets, GraphStream};
use loom_core::partition::{
    fennel_vertex_stream, ldg_vertex_stream, restream_pass, taper_refine, vertex_stream,
    PartitionMetrics, TraversalWeights,
};
use loom_core::prelude::*;
use loom_core::{make_partitioner, ExperimentConfig, System};

fn setup(dataset: DatasetKind) -> (LabeledGraph, Workload, GraphStream, ExperimentConfig) {
    let mut cfg =
        ExperimentConfig::evaluation_defaults(dataset, Scale::Tiny, StreamOrder::BreadthFirst);
    cfg.k = 4;
    cfg.limit_per_query = 30_000;
    let graph = datasets::generate(dataset, cfg.scale, cfg.seed);
    let workload = workload_for(dataset);
    let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
    (graph, workload, stream, cfg)
}

fn loom_assignment(
    cfg: &ExperimentConfig,
    stream: &GraphStream,
    workload: &Workload,
) -> loom_core::partition::Assignment {
    let mut p = make_partitioner(System::Loom, cfg, stream, workload);
    loom_core::partition::partition_stream(p.as_mut(), stream);
    p.into_assignment()
}

#[test]
fn taper_refinement_helps_chain_structured_data() {
    // LUBM/ProvGen are the datasets where the single-edge proxy is
    // honest (Ablation C of `repro --experiment ablations`);
    // refinement must not hurt.
    for dataset in [DatasetKind::ProvGen, DatasetKind::Lubm100] {
        let (graph, workload, stream, cfg) = setup(dataset);
        let loom = loom_assignment(&cfg, &stream, &workload);
        let before = count_ipt(&graph, &loom, &workload, cfg.limit_per_query).weighted_ipt;
        let weights = TraversalWeights::from_workload(&workload);
        let refined = taper_refine(&graph, &loom, &weights, 8, 1.1);
        let after =
            count_ipt(&graph, &refined.assignment, &workload, cfg.limit_per_query).weighted_ipt;
        assert!(
            after <= before * 1.05,
            "{}: refinement hurt chains: {before:.0} -> {after:.0}",
            dataset.name()
        );
    }
}

#[test]
fn taper_respects_balance() {
    let (graph, workload, stream, cfg) = setup(DatasetKind::ProvGen);
    let loom = loom_assignment(&cfg, &stream, &workload);
    let weights = TraversalWeights::from_workload(&workload);
    let refined = taper_refine(&graph, &loom, &weights, 8, 1.1);
    let m = PartitionMetrics::measure(&graph, &refined.assignment);
    assert!(m.imbalance < 0.25, "imbalance {}", m.imbalance);
}

#[test]
fn restream_preserves_assignment_completeness() {
    let (graph, workload, stream, cfg) = setup(DatasetKind::Dblp);
    let loom = loom_assignment(&cfg, &stream, &workload);
    let re = restream_pass(&stream, &loom);
    for e in stream.iter() {
        assert!(re.partition_of(e.src).is_some());
        assert!(re.partition_of(e.dst).is_some());
    }
    let m = PartitionMetrics::measure(&graph, &re);
    assert!(m.imbalance < 0.25, "imbalance {}", m.imbalance);
}

#[test]
fn vertex_stream_baselines_beat_hash() {
    let (graph, workload, stream, cfg) = setup(DatasetKind::Lubm100);
    let arrivals = vertex_stream(&graph, StreamOrder::BreadthFirst, cfg.seed);
    let vldg = ldg_vertex_stream(&arrivals, cfg.k, graph.num_vertices());
    let vfennel = fennel_vertex_stream(&arrivals, cfg.k, graph.num_vertices(), graph.num_edges());
    let mut hash = make_partitioner(System::Hash, &cfg, &stream, &workload);
    loom_core::partition::partition_stream(hash.as_mut(), &stream);
    let hash_a = hash.into_assignment();

    let ipt = |a: &loom_core::partition::Assignment| {
        count_ipt(&graph, a, &workload, cfg.limit_per_query).weighted_ipt
    };
    let h = ipt(&hash_a);
    assert!(ipt(&vldg) < h, "vertex LDG >= Hash");
    assert!(ipt(&vfennel) < h, "vertex Fennel >= Hash");
    // The paper's §5.2 imbalance note: vertex-stream LDG balances far
    // tighter than the cap.
    let m = PartitionMetrics::measure(&graph, &vldg);
    assert!(m.imbalance < 0.06, "vertex LDG imbalance {}", m.imbalance);
}

#[test]
fn trie_decay_integrates_with_matching() {
    // Decayed-away motifs stop matching: build a matcher from a trie
    // whose old workload was decayed under fresh weight.
    use loom_core::graph::{EdgeId, Label, StreamEdge, VertexId};
    use loom_core::matcher::{EdgeFate, MotifMatcher};

    let rand = LabelRandomizer::new(4, DEFAULT_PRIME, 11);
    let mut trie = TpsTrie::build(&Workload::figure1_example(), &rand);
    // Drift entirely to q3 (the a-b-c-d path): now c-d edges matter.
    trie.decay(0.01);
    let fig1 = Workload::figure1_example();
    let (q3, _) = &fig1.queries()[2];
    trie.add_query(q3, 100.0, &rand);
    let motifs = trie.motifs(0.4);
    let mut matcher = MotifMatcher::new(motifs, rand);
    let cd = StreamEdge {
        id: EdgeId(0),
        src: VertexId(0),
        dst: VertexId(1),
        src_label: Label(2),
        dst_label: Label(3),
    };
    assert_eq!(
        matcher.on_edge(cd),
        EdgeFate::Buffered,
        "c-d must be a motif after the drift"
    );
}
