//! Query-serving scenario: measure what a *client* of the partitioned
//! store experiences — remote hops while executing the workload — with
//! `count_ipt`, and see how the §6 integrations (TAPER-style
//! refinement, restreaming) interact with Loom's placements.
//!
//! ```text
//! cargo run --release --example query_serving
//! ```

use loom_core::graph::{datasets, GraphStream};
use loom_core::partition::{restream_pass, taper_refine, Assignment, TraversalWeights};
use loom_core::prelude::*;
use loom_core::{make_partitioner, ExperimentConfig, System};

fn serve(
    name: &str,
    graph: &LabeledGraph,
    assignment: &Assignment,
    workload: &Workload,
    limit: usize,
) {
    let report = count_ipt(graph, assignment, workload, limit);
    let traversals: usize = report.per_query.iter().map(|q| q.traversals).sum();
    println!(
        "{:<18} {:>10.1} weighted ipt   {:>6.1}% of traversals remote   ({} matches served)",
        name,
        report.weighted_ipt,
        report.total_ipt() as f64 / traversals.max(1) as f64 * 100.0,
        report.total_matches()
    );
}

fn main() {
    let cfg = ExperimentConfig::evaluation_defaults(
        DatasetKind::Lubm100,
        Scale::Small,
        StreamOrder::BreadthFirst,
    );
    let graph = datasets::generate(cfg.dataset, cfg.scale, cfg.seed);
    let workload = workload_for(cfg.dataset);
    let stream = GraphStream::from_graph(&graph, cfg.order, cfg.seed);
    println!(
        "LUBM-like store: {} vertices, {} edges, k = {}; up to {} matches per query\n",
        graph.num_vertices(),
        graph.num_edges(),
        cfg.k,
        cfg.limit_per_query
    );
    let limit = cfg.limit_per_query;

    // The four systems, as the client sees them.
    for sys in System::ALL {
        let mut p = make_partitioner(sys, &cfg, &stream, &workload);
        loom_core::partition::partition_stream(p.as_mut(), &stream);
        serve(sys.name(), &graph, &p.into_assignment(), &workload, limit);
    }

    // §6 integrations on top of Loom.
    let mut p = make_partitioner(System::Loom, &cfg, &stream, &workload);
    loom_core::partition::partition_stream(p.as_mut(), &stream);
    let loom = p.into_assignment();

    let weights = TraversalWeights::from_workload(&workload);
    let refined = taper_refine(&graph, &loom, &weights, 8, 1.1);
    serve("Loom+TAPER", &graph, &refined.assignment, &workload, limit);

    let restreamed = restream_pass(&stream, &loom);
    serve("Loom+restream", &graph, &restreamed, &workload, limit);

    println!(
        "\nTAPER refines against single-edge cut, a treacherous proxy for\n\
         per-match ipt: compare its row with Loom's, and see Ablation C of\n\
         `repro --experiment ablations` for the other datasets."
    );
}
