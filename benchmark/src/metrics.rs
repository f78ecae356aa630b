//! The metric tables. `BENCHMARK.json` at the repo root declares the
//! same names, units, directions and bounds; `tests/smoke.rs` fails
//! when the two drift.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (`BENCHMARK.json`'s `bound`). Set from the spread of ten runs at
    /// ten seeds on the 2-core VM this was built on (README, "How
    /// steady"): pass times there move by up to ~10% between runs a
    /// minute apart, and the exact counts move with the input.
    pub bound: f64,
    /// A count the determinism contract pins: `compare` (same seed on
    /// both sides) demands it be identical.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("ingest_edges_per_s", "edges/s", Better::Higher, 0.25, false),
    e2e("loom_over_fennel_time", "ratio", Better::Lower, 0.25, false),
    e2e("weighted_ipt", "count", Better::Lower, 0.10, true),
    e2e("cut_pct", "%", Better::Lower, 0.08, true),
    e2e("max_load_pct", "%", Better::Lower, 0.04, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, false),
    e2e("recover_s", "s", Better::Lower, 0.25, false),
    e2e("query_p50_us", "us", Better::Lower, 0.10, false),
    e2e("query_p99_us", "us", Better::Lower, 0.25, false),
    e2e("read_qps", "1/s", Better::Higher, 0.10, false),
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Single-layer numbers from the traced run: spans around the calls
/// into each crate, and standalone replays of each crate's public API
/// on the workload's own input. Every workload reports every one: the
/// traced run also puts the WAL and the serving layer over inputs whose
/// own pass runs neither.
pub const PER_LAYER: &[PerLayer] = &[
    lo("loom-graph.text_parse_ns_per_edge", "ns"),
    lo("loom-graph.cursor_ns_per_edge", "ns"),
    lo("loom-graph.synthetic_ns_per_edge", "ns"),
    lo("loom-graph.generate_s", "s"),
    lo("loom-graph.stream_order_s", "s"),
    lo("loom-graph.text_skipped_lines", "count"),
    lo("loom-motif.trie_build_us", "us"),
    lo("loom-motif.trie_nodes", "count"),
    lo("loom-motif.motif_count", "count"),
    lo("loom-matcher.on_edge_ns_per_edge", "ns"),
    lo("loom-matcher.classify_ns_per_edge", "ns"),
    lo("loom-matcher.buffered_share", "ratio"),
    lo("loom-matcher.arena_live_cells", "count"),
    lo("loom-matcher.arena_dead_cells", "count"),
    lo("loom-matcher.arena_generations", "count"),
    lo("loom-partition.loom_on_batch_ns_per_edge", "ns"),
    lo("loom-partition.fennel_on_batch_ns_per_edge", "ns"),
    lo("loom-partition.ldg_on_batch_ns_per_edge", "ns"),
    lo("loom-partition.hash_on_batch_ns_per_edge", "ns"),
    lo("loom-partition.phase_matcher_share", "ratio"),
    lo("loom-partition.phase_alloc_share", "ratio"),
    lo("loom-partition.phase_window_share", "ratio"),
    lo("loom-partition.auctions", "count"),
    lo("loom-partition.fallback_auction_share", "ratio"),
    hi("loom-partition.bypassed_share", "ratio"),
    lo("loom-partition.adjacency_resident_entries", "count"),
    lo("loom-partition.adjacency_generations", "count"),
    hi("loom-partition.loom_t2_speedup", "ratio"),
    lo("loom-partition.loom_s2_slowdown", "ratio"),
    lo("loom-partition.save_state_ms", "ms"),
    lo("loom-partition.save_state_bytes", "bytes"),
    lo("loom-partition.to_assignment_ms", "ms"),
    lo("loom-partition.imbalance_pct", "%"),
    lo("loom-core.ingest_batch_p50_us", "us"),
    lo("loom-core.ingest_batch_p99_us", "us"),
    lo("loom-core.ingest_batch_max_ms", "ms"),
    lo("loom-core.engine_overhead_ns_per_edge", "ns"),
    lo("loom-core.checkpoint_ms_p50", "ms"),
    lo("loom-core.checkpoint_ms_max", "ms"),
    lo("loom-core.checkpoints_written", "count"),
    lo("loom-core.checkpoint_bytes_last", "bytes"),
    lo("loom-core.replayed_edges", "count"),
    lo("loom-core.publish_view_ms_at_250k", "ms"),
    lo("loom-core.publish_view_ms_at_500k", "ms"),
    lo("loom-core.publish_view_ms_at_1m", "ms"),
    lo("loom-core.views_published", "count"),
    lo("loom-core.view_lag_p99_edges", "edges"),
    lo("loom-core.serve_tax_ns_per_edge", "ns"),
    lo("loom-core.wal_tax_ns_per_edge", "ns"),
    lo("loom-wal.journal_append_ns_per_edge", "ns"),
    lo("loom-wal.journal_bytes_per_edge", "bytes"),
    lo("loom-wal.journal_flushes", "count"),
    lo("loom-wal.checkpoint_write_ms", "ms"),
    lo("loom-wal.scan_journal_ms", "ms"),
    lo("loom-wal.wal_bytes_per_edge", "bytes"),
    lo("loom-query.view_from_edges_ms", "ms"),
    lo("loom-query.part_ns", "ns"),
    lo("loom-query.stats_ns", "ns"),
    lo("loom-query.khop_us", "us"),
    lo("loom-query.match_us", "us"),
    lo("loom-query.count_ipt_s", "s"),
    lo("loom-query.loom_ipt_vs_hash_pct", "%"),
    lo("loom-runtime.line_rtt_us", "us"),
    lo("loom-runtime.server_mean_us", "us"),
    lo("loom-runtime.refused", "count"),
    lo("loom-runtime.epoch_load_ns", "ns"),
    lo("loom-runtime.epoch_publish_ns", "ns"),
    lo("loom-runtime.pool_dispatch_us", "us"),
    lo("trace_overhead_pct", "%"),
];

/// Values measured by one run, keyed by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let prev = self.0.insert(name, value);
        assert!(prev.is_none(), "metric {name} measured twice");
    }

    /// The `metrics` object of the result line, in table order. Errors
    /// name a declared metric the run did not measure (or measured as
    /// a non-number), and any measured name the table lacks.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(table.len());
        for (name, unit) in table {
            match self.0.get(name) {
                Some(v) if v.is_finite() => parts.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    crate::json::quote(name),
                    crate::json::num(*v),
                    crate::json::quote(unit)
                )),
                Some(v) => return Err(format!("metric {name} is not a number: {v}")),
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        if let Some(extra) = self.0.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in the table"));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}
