//! Counters of the threaded transport's layers, read from their public
//! stats snapshots before and after a pass; shared by `paced_put`,
//! `incast` and `incast_lossy`.

use super::ratio;
use crate::report::Metric;
use rvma_core::{
    AsyncInitiator, AsyncNetwork, PoolStats, RingStatsSnapshot, RvmaEndpoint, StatsSnapshot,
};

#[derive(Clone, Copy)]
pub struct Counters {
    ep: StatsSnapshot,
    ring: RingStatsSnapshot,
    route_hits: u64,
    route_misses: u64,
    staged: u64,
    pool: PoolStats,
    transmitted: u64,
    dropped: u64,
    duplicated: u64,
    deferred: u64,
}

impl Counters {
    /// `pool` is the receive-buffer pool counters summed over the
    /// workload's windows.
    pub fn read(
        net: &AsyncNetwork,
        ep: &RvmaEndpoint,
        client: &AsyncInitiator,
        pool: PoolStats,
    ) -> Counters {
        let route = client.route_stats();
        let faults = net.fault_stats();
        let f = |g: fn(&rvma_core::FaultStats) -> u64| faults.as_deref().map_or(0, g);
        Counters {
            ep: ep.stats(),
            ring: net.queue_stats(),
            route_hits: route.hits,
            route_misses: route.misses,
            staged: client.staged_bytes(),
            pool,
            transmitted: f(rvma_core::FaultStats::transmitted),
            dropped: f(rvma_core::FaultStats::dropped),
            duplicated: f(rvma_core::FaultStats::duplicated),
            deferred: f(rvma_core::FaultStats::deferred),
        }
    }

    /// NACKs the endpoint sent since `before`.
    pub fn nacks_since(&self, before: &Counters) -> u64 {
        self.ep.nacks - before.ep.nacks
    }

    /// Per-layer metrics for the change from `before` to `self`, over
    /// `ops` completed operations carrying `bytes` payload bytes.
    pub fn layer_metrics(&self, before: &Counters, ops: u64, bytes: u64) -> Vec<Metric> {
        let (a, b) = (self, before);
        let ops_f = ops as f64;
        let d = |x: u64, y: u64| x.saturating_sub(y) as f64;
        let frags = d(a.ep.fragments_accepted, b.ep.fragments_accepted);
        let transmitted = d(a.transmitted, b.transmitted);
        let pool_hit = d(a.pool.hits + a.pool.inline, b.pool.hits + b.pool.inline);
        let pool_all = pool_hit + d(a.pool.misses, b.pool.misses);
        let lut_miss = d(a.ep.lut_misses, b.ep.lut_misses);
        let routes_hit = d(a.route_hits, b.route_hits);
        let n = ops;
        vec![
            Metric::layer(
                "transport_threaded.route_hit_ratio",
                ratio(routes_hit, routes_hit + d(a.route_misses, b.route_misses)),
                n,
            ),
            Metric::layer(
                "ring.park_wakeups_per_op",
                ratio(d(a.ring.park_wakeups, b.ring.park_wakeups), ops_f),
                n,
            ),
            Metric::layer("ring.max_depth", a.ring.max_depth as f64, n),
            Metric::layer(
                "ring.full_stalls",
                d(a.ring.full_stalls, b.ring.full_stalls),
                n,
            ),
            Metric::layer(
                "notify.wakes_per_op",
                ratio(d(a.ep.notify_wakes, b.ep.notify_wakes), ops_f),
                n,
            ),
            Metric::layer(
                "notify.spurious_polls",
                d(a.ep.spurious_polls, b.ep.spurious_polls),
                n,
            ),
            Metric::layer("pool.hit_ratio", ratio(pool_hit, pool_all), n),
            Metric::layer("endpoint.fragments_per_op", ratio(frags, ops_f), n),
            Metric::layer(
                "endpoint.copies_per_byte",
                ratio(
                    d(a.staged, b.staged) + d(a.ep.bytes_copied, b.ep.bytes_copied),
                    bytes as f64,
                ),
                n,
            ),
            Metric::layer(
                "endpoint.lut_miss_ratio",
                ratio(lut_miss, lut_miss + d(a.ep.lut_hits, b.ep.lut_hits)),
                n,
            ),
            Metric::layer("endpoint.nacks", d(a.ep.nacks, b.ep.nacks), n),
            Metric::layer(
                "endpoint.duplicates_dropped",
                d(a.ep.duplicates_dropped, b.ep.duplicates_dropped),
                n,
            ),
            Metric::layer("retry.transmits_per_fragment", ratio(transmitted, frags), n),
            Metric::layer(
                "retry.dropped_rate",
                ratio(d(a.dropped, b.dropped), transmitted),
                n,
            ),
            Metric::layer(
                "retry.duplicated_rate",
                ratio(d(a.duplicated, b.duplicated), transmitted),
                n,
            ),
            Metric::layer(
                "retry.deferred_rate",
                ratio(d(a.deferred, b.deferred), transmitted),
                n,
            ),
        ]
    }
}

/// Pool counters summed over several pools.
pub fn sum_pools(pools: impl Iterator<Item = PoolStats>) -> PoolStats {
    pools.fold(PoolStats::default(), |acc, p| PoolStats {
        hits: acc.hits + p.hits,
        misses: acc.misses + p.misses,
        inline: acc.inline + p.inline,
        shelved: acc.shelved + p.shelved,
    })
}
