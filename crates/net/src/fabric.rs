//! Fabric assembly: turn a [`TopologySpec`] into engine components.
//!
//! A topology module produces a `TopologySpec` — pure wiring data plus a
//! router. `build_fabric` instantiates one [`Switch`] component per spec
//! switch and reserves component ids for the terminals (NICs), which the
//! caller must add immediately afterwards, in terminal order. Switch ports
//! that lead to terminals are wired against those reserved ids.

use crate::link::LinkParams;
use crate::packet::NetEvent;
use crate::router::Router;
use crate::switch::{OutPort, Switch};
use rvma_sim::{Bandwidth, ComponentId, Engine, SimTime};
use std::sync::Arc;

/// Pure description of a topology instance: wiring + routing.
pub struct TopologySpec {
    /// Human-readable name, e.g. `dragonfly(a=8,p=4,h=4)`.
    pub name: String,
    /// Number of terminals (NIC attachment points).
    pub terminals: u32,
    /// Number of switches.
    pub switches: u32,
    /// Per switch: `(term_base, term_count)` — terminals
    /// `[term_base, term_base+term_count)` attach to ports `[0, term_count)`.
    pub switch_terms: Vec<(u32, u32)>,
    /// Per switch: neighbor switch ids in canonical port order; the link to
    /// `switch_links[s][n]` uses port `term_count + n`.
    pub switch_links: Vec<Vec<u32>>,
    /// The routing algorithm (knows the same canonical port order).
    pub router: Arc<dyn Router>,
}

impl TopologySpec {
    /// The switch a terminal attaches to.
    pub fn terminal_switch(&self, t: u32) -> u32 {
        for (s, &(base, count)) in self.switch_terms.iter().enumerate() {
            if t >= base && t < base + count {
                return s as u32;
            }
        }
        panic!("terminal {t} not attached to any switch");
    }

    /// Sanity-check the wiring: every inter-switch link must be symmetric
    /// (as many links s→n as n→s) and every terminal attached exactly once.
    pub fn validate(&self) -> Result<(), String> {
        if self.switch_terms.len() != self.switches as usize {
            return Err("switch_terms length mismatch".into());
        }
        if self.switch_links.len() != self.switches as usize {
            return Err("switch_links length mismatch".into());
        }
        let mut covered = vec![0u32; self.terminals as usize];
        for &(base, count) in &self.switch_terms {
            for t in base..base + count {
                let slot = covered
                    .get_mut(t as usize)
                    .ok_or_else(|| format!("terminal {t} out of range"))?;
                *slot += 1;
            }
        }
        if let Some(t) = covered.iter().position(|&c| c != 1) {
            return Err(format!("terminal {t} attached {} times", covered[t]));
        }
        for (s, links) in self.switch_links.iter().enumerate() {
            for &n in links {
                if n >= self.switches {
                    return Err(format!("switch {s} links to nonexistent switch {n}"));
                }
                let fwd = links.iter().filter(|&&x| x == n).count();
                let back = self.switch_links[n as usize]
                    .iter()
                    .filter(|&&x| x == s as u32)
                    .count();
                if fwd != back {
                    return Err(format!(
                        "asymmetric wiring between switches {s} and {n}: {fwd} vs {back}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Link-speed and switch-timing configuration for a fabric build.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Inter-switch (and terminal) link bandwidth.
    pub link_bandwidth: Bandwidth,
    /// Per-link propagation latency.
    pub link_latency: SimTime,
    /// Per-hop switch traversal latency.
    pub switch_latency: SimTime,
}

impl FabricConfig {
    /// Typical HPC parameters at a given link rate: 100 ns cables/SerDes,
    /// 100 ns switch traversal.
    pub fn at_gbps(gbps: u64) -> Self {
        FabricConfig {
            link_bandwidth: Bandwidth::from_gbps(gbps),
            link_latency: SimTime::from_ns(100),
            switch_latency: SimTime::from_ns(100),
        }
    }

    /// Crossbar rate: 50% above link rate (paper Sec. V-B).
    pub fn xbar_bandwidth(&self) -> Bandwidth {
        self.link_bandwidth.scale(3, 2)
    }

    /// The fabric's *lookahead*: the minimum latency of any cross-component
    /// event. Every packet hop (terminal→switch, switch→switch,
    /// switch→terminal) pays at least one link propagation delay, and all
    /// other NIC/host events are self-scheduled, so the engine's
    /// conservative window (`SimConfig::window`) may be as wide as this.
    pub fn lookahead(&self) -> SimTime {
        self.link_latency
    }
}

/// Handle to an assembled fabric.
pub struct Fabric {
    /// Component ids of the switches, by spec switch index.
    pub switch_cids: Vec<ComponentId>,
    /// Reserved component ids for the terminals, by terminal index. The
    /// caller **must** add exactly one component per terminal, in order,
    /// immediately after `build_fabric` (verify with
    /// [`Fabric::assert_terminals_added`]).
    pub terminal_cids: Vec<ComponentId>,
    /// Per-terminal injection target: the attached switch's component id.
    pub terminal_attach: Vec<ComponentId>,
    /// The link every terminal injects on (same rate as fabric links).
    pub injection_link: LinkParams,
    /// Topology name (for reports).
    pub name: String,
}

impl Fabric {
    /// Panic unless the caller added the promised terminal components.
    pub fn assert_terminals_added(&self, engine: &Engine<NetEvent>) {
        let last = self.terminal_cids.last().map(|c| c.as_usize()).unwrap_or(0);
        assert!(
            engine.component_count() > last,
            "terminal components were not added after build_fabric"
        );
    }
}

/// Instantiate the fabric's switches in `engine`.
///
/// # Panics
/// Panics if the spec fails validation.
pub fn build_fabric(
    engine: &mut Engine<NetEvent>,
    spec: &TopologySpec,
    cfg: &FabricConfig,
) -> Fabric {
    spec.validate().expect("invalid topology spec");
    let base = engine.component_count();
    let switch_cids: Vec<ComponentId> = (0..spec.switches as usize)
        .map(|i| ComponentId::from_raw(base + i))
        .collect();
    let term_base = base + spec.switches as usize;
    let terminal_cids: Vec<ComponentId> = (0..spec.terminals as usize)
        .map(|i| ComponentId::from_raw(term_base + i))
        .collect();

    let link = LinkParams {
        bandwidth: cfg.link_bandwidth,
        latency: cfg.link_latency,
    };
    let xbar = cfg.xbar_bandwidth();

    let mut terminal_attach = vec![ComponentId::from_raw(0); spec.terminals as usize];
    for s in 0..spec.switches as usize {
        let (tb, tc) = spec.switch_terms[s];
        let mut ports = Vec::with_capacity(tc as usize + spec.switch_links[s].len());
        for t in tb..tb + tc {
            ports.push(OutPort {
                to: terminal_cids[t as usize],
                link,
                next_free: SimTime::ZERO,
            });
            terminal_attach[t as usize] = switch_cids[s];
        }
        for &n in &spec.switch_links[s] {
            ports.push(OutPort {
                to: switch_cids[n as usize],
                link,
                next_free: SimTime::ZERO,
            });
        }
        let cid = engine.add_component(Switch::new(
            s as u32,
            tb,
            tc,
            ports,
            spec.router.clone(),
            cfg.switch_latency,
            xbar,
        ));
        debug_assert_eq!(cid, switch_cids[s]);
    }

    Fabric {
        switch_cids,
        terminal_cids,
        terminal_attach,
        injection_link: link,
        name: spec.name.clone(),
    }
}

/// Topology-aware component→shard map for the engine, assuming the
/// fabric occupies component ids `0..switches + terminals` (switches first,
/// then terminals — the layout `build_fabric` produces in a fresh engine).
///
/// Switches split into `shards` contiguous blocks — topology modules number
/// neighbors contiguously (torus x-major order, fat-tree pods, dragonfly
/// groups), so block-contiguous assignment co-locates most inter-switch
/// links. Each terminal lands in its attached switch's shard, keeping the
/// injection path and the NIC's self-events shard-local.
pub fn partition_fabric(spec: &TopologySpec, shards: usize) -> Vec<usize> {
    let shards = shards.max(1).min(spec.switches.max(1) as usize);
    let nsw = spec.switches.max(1) as usize;
    let switch_shard = |s: usize| s * shards / nsw;
    let mut map = Vec::with_capacity((spec.switches + spec.terminals) as usize);
    for s in 0..spec.switches as usize {
        map.push(switch_shard(s));
    }
    for t in 0..spec.terminals {
        map.push(switch_shard(spec.terminal_switch(t) as usize));
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::router::Router;
    use crate::switch::PortView;
    use rvma_sim::SimRng;

    struct Dummy;
    impl Router for Dummy {
        fn route(&self, _s: u32, _p: &mut Packet, _v: &PortView<'_>, _r: &mut SimRng) -> usize {
            0
        }
        fn ordered(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "dummy"
        }
    }

    fn two_switch_spec() -> TopologySpec {
        TopologySpec {
            name: "pair".into(),
            terminals: 4,
            switches: 2,
            switch_terms: vec![(0, 2), (2, 2)],
            switch_links: vec![vec![1], vec![0]],
            router: Arc::new(Dummy),
        }
    }

    #[test]
    fn validate_accepts_symmetric_wiring() {
        assert!(two_switch_spec().validate().is_ok());
    }

    #[test]
    fn validate_rejects_asymmetry() {
        let mut s = two_switch_spec();
        s.switch_links[1].clear();
        assert!(s.validate().unwrap_err().contains("asymmetric"));
    }

    #[test]
    fn validate_rejects_unattached_terminal() {
        let mut s = two_switch_spec();
        s.switch_terms[1] = (2, 1); // terminal 3 unattached
        assert!(s.validate().unwrap_err().contains("attached 0 times"));
    }

    #[test]
    fn validate_rejects_dangling_link() {
        let mut s = two_switch_spec();
        s.switch_links[0][0] = 9;
        assert!(s.validate().unwrap_err().contains("nonexistent"));
    }

    #[test]
    fn terminal_switch_lookup() {
        let s = two_switch_spec();
        assert_eq!(s.terminal_switch(0), 0);
        assert_eq!(s.terminal_switch(3), 1);
    }

    #[test]
    fn build_reserves_terminal_ids() {
        let mut eng: Engine<NetEvent> = Engine::new(0);
        let spec = two_switch_spec();
        let fabric = build_fabric(&mut eng, &spec, &FabricConfig::at_gbps(100));
        assert_eq!(eng.component_count(), 2); // switches only so far
        assert_eq!(fabric.switch_cids.len(), 2);
        assert_eq!(fabric.terminal_cids.len(), 4);
        assert_eq!(fabric.terminal_cids[0].as_usize(), 2);
        assert_eq!(fabric.terminal_attach[2], fabric.switch_cids[1]);
        assert_eq!(fabric.name, "pair");
    }

    #[test]
    fn xbar_is_fifty_percent_faster() {
        let cfg = FabricConfig::at_gbps(400);
        assert_eq!(cfg.xbar_bandwidth(), Bandwidth::from_gbps(600));
    }

    #[test]
    fn lookahead_is_link_latency() {
        let cfg = FabricConfig::at_gbps(100);
        assert_eq!(cfg.lookahead(), SimTime::from_ns(100));
    }

    #[test]
    fn partition_colocates_terminals_with_switches() {
        let spec = two_switch_spec();
        let map = partition_fabric(&spec, 2);
        // Layout: switches 0..2, then terminals 2..6.
        assert_eq!(map.len(), 6);
        assert_eq!(&map[..2], &[0, 1]);
        for t in 0..4u32 {
            let sw = spec.terminal_switch(t) as usize;
            assert_eq!(map[2 + t as usize], map[sw]);
        }
        // More shards than switches clamps; every entry stays in range.
        let wide = partition_fabric(&spec, 16);
        assert!(wide.iter().all(|&s| s < 2));
    }

    #[test]
    fn build_into_parallel_engine() {
        use rvma_sim::SimConfig;
        let mut eng: Engine<NetEvent> = Engine::with_config(0, SimConfig::default());
        let spec = two_switch_spec();
        let fabric = build_fabric(&mut eng, &spec, &FabricConfig::at_gbps(100));
        assert_eq!(eng.component_count(), 2);
        assert_eq!(fabric.terminal_cids.len(), 4);
    }
}
