//! KV-store motif: closed-loop GET/PUT traffic with zipfian keys.
//!
//! A client/server workload in the style of the paper's "public internet
//! client-server situations": the first `servers` nodes hold the key space
//! (key *k* lives on server `k % servers`, addressed by mailbox tag = *k*),
//! the remaining nodes are clients running a closed loop of `ops` one-sided
//! operations each. GETs are issued via [`TermApi::get`] (initiator-side
//! completion after the full round trip); PUTs via [`TermApi::send`]
//! (completion when the NIC has drained the send — fire-and-forget
//! durability, the cheap RVMA path). Keys are drawn from a zipfian
//! distribution so hot keys concentrate load on a few server mailboxes,
//! which is exactly where RDMA's per-channel handshakes and RTR credits
//! hurt and RVMA's post-once buckets do not.
//!
//! Clients draw keys from a private SplitMix64 stream seeded by
//! `(cfg.seed, node)` — independent of the engine RNG, so a motif's key
//! sequence is identical at every shard and thread count.

use crate::runner::MOTIF_DONE_HIST;
use rvma_nic::{HostLogic, RecvInfo, TermApi};

/// KV workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Total nodes; the first `servers` serve, the rest run clients.
    pub nodes: u32,
    /// Server count (must be ≥ 1 and < `nodes`).
    pub servers: u32,
    /// Closed-loop operations per client.
    pub ops: u32,
    /// Fraction of operations that are GETs, in `[0, 1]`.
    pub read_ratio: f64,
    /// Value size in bytes (both GET responses and PUT payloads).
    pub value_bytes: u64,
    /// Key-space size.
    pub keys: u64,
    /// Zipf exponent (0 = uniform; ~1 = classic web skew).
    pub zipf_s: f64,
    /// Workload seed for the clients' private key/op streams.
    pub seed: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            nodes: 16,
            servers: 4,
            ops: 32,
            read_ratio: 0.9,
            value_bytes: 1024,
            keys: 1024,
            zipf_s: 0.99,
            seed: 1,
        }
    }
}

impl KvConfig {
    /// Number of client nodes.
    pub fn clients(&self) -> u32 {
        self.nodes - self.servers
    }

    /// Total operations across all clients.
    pub fn total_ops(&self) -> u64 {
        self.clients() as u64 * self.ops as u64
    }
}

/// SplitMix64: tiny, seedable, and plenty for workload draws.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian sampler over ranks `0..n`: rank *r* has weight `1/(r+1)^s`.
/// Sampling is a binary search over the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the CDF for `n` ranks with exponent `s`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty key space");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Map a uniform draw `u ∈ [0, 1)` to a rank.
    pub fn rank(&self, u: f64) -> u64 {
        self.cdf.partition_point(|&c| c <= u) as u64
    }
}

/// Per-node KV behaviour: server or client depending on the node index.
pub struct KvNode {
    cfg: KvConfig,
    node: u32,
    rng: SplitMix64,
    zipf: Zipf,
    issued: u32,
    completed: u32,
}

impl KvNode {
    /// Behaviour for `node` under `cfg`.
    pub fn new(cfg: KvConfig, node: u32) -> Self {
        assert!(cfg.servers >= 1, "need at least one server");
        assert!(cfg.servers < cfg.nodes, "need at least one client");
        let rng = SplitMix64::new(cfg.seed.wrapping_mul(0x0101_0101).wrapping_add(node as u64));
        let zipf = Zipf::new(cfg.keys, cfg.zipf_s);
        KvNode {
            cfg,
            node,
            rng,
            zipf,
            issued: 0,
            completed: 0,
        }
    }

    fn is_server(&self) -> bool {
        self.node < self.cfg.servers
    }

    fn issue_next(&mut self, api: &mut TermApi<'_, '_>) {
        if self.issued == self.cfg.ops {
            return;
        }
        self.issued += 1;
        let key = self.zipf.rank(self.rng.next_f64());
        let server = (key % self.cfg.servers as u64) as u32;
        if self.rng.next_f64() < self.cfg.read_ratio {
            api.count("kv.gets");
            api.get(server, key, self.cfg.value_bytes);
        } else {
            api.count("kv.puts");
            api.send(server, key, self.cfg.value_bytes);
        }
    }

    fn op_done(&mut self, api: &mut TermApi<'_, '_>) {
        self.completed += 1;
        if self.completed == self.cfg.ops {
            let now = api.now();
            api.record_time(MOTIF_DONE_HIST, now);
            api.count("motif.nodes_done");
        } else {
            self.issue_next(api);
        }
    }
}

impl HostLogic for KvNode {
    fn on_start(&mut self, api: &mut TermApi<'_, '_>) {
        if self.is_server() {
            // Servers are passive: post-once buckets, no application work.
            let now = api.now();
            api.record_time(MOTIF_DONE_HIST, now);
            api.count("motif.nodes_done");
            return;
        }
        self.issue_next(api);
    }

    fn on_recv(&mut self, _msg: RecvInfo, api: &mut TermApi<'_, '_>) {
        debug_assert!(self.is_server(), "only servers receive PUTs");
        api.count("kv.served_puts");
    }

    fn on_send_complete(&mut self, _msg_id: u64, api: &mut TermApi<'_, '_>) {
        if !self.is_server() {
            self.op_done(api);
        }
    }

    fn on_get_complete(&mut self, _msg_id: u64, api: &mut TermApi<'_, '_>) {
        self.op_done(api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_motif;
    use rvma_net::fabric::FabricConfig;
    use rvma_net::router::RoutingKind;
    use rvma_net::topology::star;
    use rvma_nic::{NicConfig, Protocol};
    use rvma_sim::SimConfig;

    #[test]
    fn zipf_cdf_is_monotone_and_skewed() {
        let z = Zipf::new(100, 0.99);
        assert!(z.cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        // Rank 0 alone should absorb far more than uniform mass.
        assert!(z.cdf[0] > 5.0 / 100.0);
        assert_eq!(z.rank(0.0), 0);
        assert!(z.rank(0.999_999) >= 90);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            let u = (r as f64 + 0.5) / 10.0;
            assert_eq!(z.rank(u), r);
        }
    }

    #[test]
    fn splitmix_streams_are_seed_deterministic() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut c = SplitMix64::new(1);
        let mut d = SplitMix64::new(1);
        for _ in 0..8 {
            assert_eq!(c.next_u64(), d.next_u64());
        }
    }

    fn run(cfg: &KvConfig, protocol: Protocol) -> crate::MotifResult {
        let spec = star(cfg.nodes, RoutingKind::Adaptive);
        let c = *cfg;
        run_motif(
            &spec,
            &FabricConfig::at_gbps(100),
            NicConfig::default(),
            protocol,
            7,
            SimConfig::single_shard(),
            move |n| Box::new(KvNode::new(c, n)) as _,
        )
    }

    #[test]
    fn kv_completes_and_accounts_ops() {
        let cfg = KvConfig::default();
        for protocol in [Protocol::Rvma, Protocol::Rdma] {
            let r = run(&cfg, protocol);
            assert_eq!(r.nodes_done, cfg.nodes as u64);
        }
    }

    #[test]
    fn read_ratio_extremes() {
        let all_reads = KvConfig {
            read_ratio: 1.0,
            ..KvConfig::default()
        };
        let spec = star(all_reads.nodes, RoutingKind::Adaptive);
        let c = all_reads;
        let mut engine: rvma_sim::Engine<rvma_net::packet::NetEvent> = rvma_sim::Engine::new(7);
        let cluster = rvma_nic::build_cluster(
            &mut engine,
            &spec,
            &FabricConfig::at_gbps(100),
            NicConfig::default(),
            Protocol::Rvma,
            move |n| Box::new(KvNode::new(c, n)) as _,
        );
        engine.run_to_completion();
        assert_eq!(
            engine.stats().counter_value("motif.nodes_done"),
            cluster.nodes() as u64
        );
        assert_eq!(
            engine.stats().counter_value("kv.gets"),
            all_reads.total_ops()
        );
        assert_eq!(engine.stats().counter_value("kv.puts"), 0);

        let all_writes = KvConfig {
            read_ratio: 0.0,
            ..KvConfig::default()
        };
        let c = all_writes;
        let mut engine: rvma_sim::Engine<rvma_net::packet::NetEvent> = rvma_sim::Engine::new(7);
        rvma_nic::build_cluster(
            &mut engine,
            &spec,
            &FabricConfig::at_gbps(100),
            NicConfig::default(),
            Protocol::Rvma,
            move |n| Box::new(KvNode::new(c, n)) as _,
        );
        engine.run_to_completion();
        assert_eq!(
            engine.stats().counter_value("kv.puts"),
            all_writes.total_ops()
        );
        assert_eq!(engine.stats().counter_value("kv.gets"), 0);
    }

    #[test]
    fn same_seed_same_makespan() {
        let cfg = KvConfig::default();
        let a = run(&cfg, Protocol::Rvma);
        let b = run(&cfg, Protocol::Rvma);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
    }
}
