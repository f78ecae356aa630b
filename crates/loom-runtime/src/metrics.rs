//! Serving-side counters: queries served, refusals, and a log-bucketed
//! latency histogram cheap enough to update from every reader thread.
//!
//! The histogram keeps one `AtomicU64` per power-of-two microsecond
//! bucket (bucket *i* counts latencies in `[2^i, 2^(i+1))` µs, bucket 0
//! also absorbing sub-microsecond queries). Recording is a single
//! relaxed `fetch_add`; percentiles are reconstructed on demand by
//! walking the cumulative counts and reporting the *lower bound* of the
//! bucket the percentile falls in — a ≤2× approximation, which is all a
//! snapshot line or a QPS bench needs. No locks anywhere, so reader
//! threads never serialize on bookkeeping.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets: `2^39` µs ≈ 6.4 days caps
/// the top bucket, far beyond any plausible per-query latency.
const BUCKETS: usize = 40;

/// Lock-free serving counters shared between reader threads (who
/// record) and the ingest/snapshot side (who report).
#[derive(Debug)]
pub struct ServeMetrics {
    served: AtomicU64,
    refused: AtomicU64,
    latency_us_sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A point-in-time reading of [`ServeMetrics`], as embedded in engine
/// snapshots and bench reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries answered (executed by the handler).
    pub served: u64,
    /// Connections refused at the connection cap (`ERR busy`).
    pub refused: u64,
    /// Approximate median query latency in µs (bucket lower bound).
    pub p50_us: u64,
    /// Approximate 99th-percentile query latency in µs (bucket lower
    /// bound).
    pub p99_us: u64,
}

impl ServeMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ServeMetrics {
            served: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            latency_us_sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Record one answered query that took `us` microseconds.
    pub fn record(&self, us: u64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.latency_us_sum.fetch_add(us, Ordering::Relaxed);
        let bucket = (64 - u64::leading_zeros(us.max(1)) as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one connection refused at the connection cap.
    pub fn record_refusal(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries answered so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Connections refused so far.
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    /// Total microseconds spent answering queries (sum over `record`).
    pub fn latency_us_sum(&self) -> u64 {
        self.latency_us_sum.load(Ordering::Relaxed)
    }

    /// The latency value (µs, bucket lower bound) at quantile `q` in
    /// `[0, 1]`, or 0 if nothing was recorded yet.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // ceil(q * total), clamped to [1, total]: the rank of the
        // sample we want.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// Snapshot all counters at once.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            served: self.served(),
            refused: self.refused(),
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_report_zeros() {
        let m = ServeMetrics::new();
        let s = m.stats();
        assert_eq!(
            s,
            ServeStats {
                served: 0,
                refused: 0,
                p50_us: 0,
                p99_us: 0
            }
        );
    }

    #[test]
    fn counts_and_sum_accumulate() {
        let m = ServeMetrics::new();
        m.record(10);
        m.record(20);
        m.record_refusal();
        assert_eq!(m.served(), 2);
        assert_eq!(m.refused(), 1);
        assert_eq!(m.latency_us_sum(), 30);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let m = ServeMetrics::new();
        // 99 fast queries at ~8µs, one slow at ~4096µs.
        for _ in 0..99 {
            m.record(9); // bucket 3 = [8, 16)
        }
        m.record(5000); // bucket 12 = [4096, 8192)
        assert_eq!(m.quantile_us(0.50), 8);
        assert_eq!(m.quantile_us(0.98), 8);
        assert_eq!(m.quantile_us(1.0), 4096);
        let s = m.stats();
        assert_eq!(s.p50_us, 8);
        assert_eq!(s.p99_us, 8, "rank 99 of 100 is still a fast query");
        m.record(5000);
        assert_eq!(m.quantile_us(0.99), 4096, "rank 100 of 101 is slow");
    }

    #[test]
    fn sub_microsecond_and_huge_latencies_stay_in_range() {
        let m = ServeMetrics::new();
        m.record(0);
        assert_eq!(m.quantile_us(0.5), 0);
        m.record(u64::MAX);
        assert_eq!(m.quantile_us(1.0), 1u64 << 39, "clamped to top bucket");
    }
}
