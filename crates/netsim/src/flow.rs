//! Flows, jobs and max-min fair bandwidth sharing.
//!
//! Varys is a *flow-level* simulator: packets are not modelled; instead
//! every active flow gets a rate from progressive-filling max-min fair
//! allocation over its path (the standard fluid model used by the
//! simulators the paper builds on [29, 30]), and flow completion times
//! follow from integrating those rates between events.

use crate::topology::{LinkId, Topology};
use hermes_tcam::SimTime;
use std::collections::BTreeMap;

/// Flow identifier.
pub type FlowId = usize;
/// Job identifier.
pub type JobId = usize;

/// A flow in flight.
#[derive(Clone, Debug)]
pub struct ActiveFlow {
    /// Identifier.
    pub id: FlowId,
    /// Owning job (for JCT accounting).
    pub job: JobId,
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dst: usize,
    /// Bytes left to transfer.
    pub remaining_bytes: f64,
    /// Current allocated rate, bits/s.
    pub rate_bps: f64,
    /// Current path (link ids from src to dst).
    pub path: Vec<LinkId>,
    /// When the flow started (for FCT).
    pub started: SimTime,
    /// Bumped on every rate/path change; invalidates stale completion
    /// events in the queue.
    pub version: u64,
}

/// The set of active flows plus the allocator.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    // BTreeMap: deterministic iteration order makes whole simulations
    // reproducible bit-for-bit given a seed.
    flows: BTreeMap<FlowId, ActiveFlow>,
    scratch: MaxMinScratch,
}

/// The allocator's working state, cleared rather than reallocated on every
/// call; a call touches only the links that carry a flow. Flows are
/// addressed by slot: their rank in ascending [`FlowId`] order.
#[derive(Clone, Debug, Default)]
struct MaxMinScratch {
    /// Per link: capacity not yet handed to frozen flows.
    residual: Vec<f64>,
    /// Per link: how many unfrozen flows cross it.
    unfrozen: Vec<usize>,
    /// Per link: the slots of the flows crossing it, ascending.
    link_flows: Vec<Vec<usize>>,
    /// Links that still carry an unfrozen flow, ascending.
    active: Vec<LinkId>,
    /// Every flow's distinct path links, back to back.
    flow_links: Vec<LinkId>,
    /// Per slot: its range in `flow_links`.
    flow_span: Vec<(usize, usize)>,
    /// Per slot: the allocated rate, final once `frozen`.
    rate: Vec<f64>,
    /// Per slot: whether the rate is fixed.
    frozen: Vec<bool>,
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` when no flows are active.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Adds a flow.
    pub fn insert(&mut self, flow: ActiveFlow) {
        self.flows.insert(flow.id, flow);
    }

    /// Removes a flow (on completion).
    pub fn remove(&mut self, id: FlowId) -> Option<ActiveFlow> {
        self.flows.remove(&id)
    }

    /// Borrows a flow.
    pub fn get(&self, id: FlowId) -> Option<&ActiveFlow> {
        self.flows.get(&id)
    }

    /// Mutably borrows a flow.
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut ActiveFlow> {
        self.flows.get_mut(&id)
    }

    /// Iterates over the active flows.
    pub fn iter(&self) -> impl Iterator<Item = &ActiveFlow> {
        self.flows.values()
    }

    /// Advances every flow's `remaining_bytes` by `dt` seconds at its
    /// current rate (call before any rate change).
    pub fn advance(&mut self, dt_s: f64) {
        if dt_s <= 0.0 {
            return;
        }
        for f in self.flows.values_mut() {
            f.remaining_bytes = (f.remaining_bytes - f.rate_bps * dt_s / 8.0).max(0.0);
        }
    }

    /// Progressive-filling max-min fair allocation. Returns the ids of
    /// flows whose rate changed (their completion events need
    /// rescheduling), ascending. Every flow's `version` is bumped on change.
    ///
    /// A flow counts once on each distinct link of its path. The result is
    /// a pure function of the flow set: the bottleneck is the first link in
    /// ascending [`LinkId`] order with the minimal fair share, and its flows
    /// freeze (subtracting from residuals) in ascending [`FlowId`] order.
    pub fn allocate_max_min(&mut self, topo: &Topology) -> Vec<FlowId> {
        let links = topo.links();
        let MaxMinScratch {
            residual,
            unfrozen,
            link_flows,
            active,
            flow_links,
            flow_span,
            rate,
            frozen,
        } = &mut self.scratch;
        if link_flows.len() < links.len() {
            residual.resize(links.len(), 0.0);
            unfrozen.resize(links.len(), 0);
            link_flows.resize_with(links.len(), Vec::new);
        }
        for &l in flow_links.iter() {
            link_flows[l].clear();
        }
        active.clear();
        flow_links.clear();
        flow_span.clear();
        rate.clear();
        frozen.clear();

        let mut unfrozen_flows = 0usize;
        for (slot, f) in self.flows.values().enumerate() {
            let start = flow_links.len();
            for &l in &f.path {
                let on_link = &mut link_flows[l];
                if on_link.last() == Some(&slot) {
                    continue; // the path repeats this link
                }
                if on_link.is_empty() {
                    active.push(l);
                    residual[l] = links[l].capacity_bps;
                    unfrozen[l] = 0;
                }
                on_link.push(slot);
                unfrozen[l] += 1;
                flow_links.push(l);
            }
            flow_span.push((start, flow_links.len()));
            // Flows with empty paths (same-host transfers) run at a nominal
            // local rate.
            rate.push(if f.path.is_empty() { 100e9 } else { 0.0 });
            frozen.push(f.path.is_empty());
            unfrozen_flows += usize::from(!f.path.is_empty());
        }
        active.sort_unstable();

        while unfrozen_flows > 0 {
            // The bottleneck link: minimal fair share among links carrying
            // unfrozen flows. Links with none left drop out of the scan.
            let mut best: Option<(f64, LinkId)> = None;
            active.retain(|&l| {
                let n = unfrozen[l];
                if n == 0 {
                    return false;
                }
                let share = residual[l] / n as f64;
                if best.map(|(s, _)| share < s).unwrap_or(true) {
                    best = Some((share, l));
                }
                true
            });
            let Some((share, bottleneck)) = best else {
                break;
            };
            // Freeze every unfrozen flow on the bottleneck at `share`.
            for &slot in &link_flows[bottleneck] {
                if frozen[slot] {
                    continue;
                }
                frozen[slot] = true;
                rate[slot] = share.max(0.0);
                unfrozen_flows -= 1;
                let (start, end) = flow_span[slot];
                for &l in &flow_links[start..end] {
                    residual[l] = (residual[l] - share).max(0.0);
                    unfrozen[l] -= 1;
                }
            }
        }

        // Apply, reporting changes.
        let mut changed = Vec::new();
        for (f, &new_rate) in self.flows.values_mut().zip(rate.iter()) {
            if (new_rate - f.rate_bps).abs() > 1e-6 {
                f.rate_bps = new_rate;
                f.version += 1;
                changed.push(f.id);
            }
        }
        changed
    }

    /// Utilization (allocated/capacity) per link under current rates.
    pub fn link_utilization(&self, topo: &Topology) -> Vec<f64> {
        let mut load = vec![0.0; topo.links().len()];
        for f in self.flows.values() {
            for &l in &f.path {
                load[l] += f.rate_bps;
            }
        }
        load.iter()
            .zip(topo.links())
            .map(|(&l, link)| l / link.capacity_bps)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_util::rng::rngs::StdRng;
    use hermes_util::rng::SeedableRng;

    fn flow(id: FlowId, src: usize, dst: usize, path: Vec<LinkId>) -> ActiveFlow {
        ActiveFlow {
            id,
            job: 0,
            src,
            dst,
            remaining_bytes: 1e9,
            rate_bps: 0.0,
            path,
            started: SimTime::ZERO,
            version: 0,
        }
    }

    #[test]
    fn single_flow_gets_full_bottleneck() {
        let topo = Topology::single_switch(2, 10e9);
        let mut rng = StdRng::seed_from_u64(1);
        let path = topo.random_shortest_path(0, 1, None, &mut rng).unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 1, path));
        let changed = ft.allocate_max_min(&topo);
        assert_eq!(changed, vec![1]);
        assert!((ft.get(1).unwrap().rate_bps - 10e9).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let topo = Topology::single_switch(3, 10e9);
        let mut rng = StdRng::seed_from_u64(1);
        // Both flows converge on host 2's access link.
        let p1 = topo.random_shortest_path(0, 2, None, &mut rng).unwrap();
        let p2 = topo.random_shortest_path(1, 2, None, &mut rng).unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 2, p1));
        ft.insert(flow(2, 1, 2, p2));
        ft.allocate_max_min(&topo);
        assert!((ft.get(1).unwrap().rate_bps - 5e9).abs() < 1.0);
        assert!((ft.get(2).unwrap().rate_bps - 5e9).abs() < 1.0);
    }

    #[test]
    fn max_min_not_just_equal_split() {
        // Two identical flows on a tiny fat tree: equal shares and no link
        // over capacity (conservation check).
        let topo = Topology::fat_tree(2, 10e9);
        let hosts = topo.hosts();
        let mut rng = StdRng::seed_from_u64(2);
        let p_long = topo
            .random_shortest_path(hosts[0], hosts[1], None, &mut rng)
            .unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, hosts[0], hosts[1], p_long.clone()));
        ft.insert(flow(2, hosts[0], hosts[1], p_long));
        ft.allocate_max_min(&topo);
        let util = ft.link_utilization(&topo);
        for u in util {
            assert!(u <= 1.0 + 1e-9, "over-allocated link: {u}");
        }
        assert!((ft.get(1).unwrap().rate_bps - ft.get(2).unwrap().rate_bps).abs() < 1.0);
    }

    #[test]
    fn advance_decreases_remaining() {
        let topo = Topology::single_switch(2, 8e9);
        let mut rng = StdRng::seed_from_u64(1);
        let path = topo.random_shortest_path(0, 1, None, &mut rng).unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 1, path));
        ft.allocate_max_min(&topo);
        // 8 Gb/s = 1 GB/s: after 0.5 s, 0.5 GB remains.
        ft.advance(0.5);
        let rem = ft.get(1).unwrap().remaining_bytes;
        assert!((rem - 0.5e9).abs() < 1e3, "remaining {rem}");
        // Advancing far past completion clamps at zero.
        ft.advance(100.0);
        assert_eq!(ft.get(1).unwrap().remaining_bytes, 0.0);
    }

    #[test]
    fn version_bumps_only_on_change() {
        let topo = Topology::single_switch(3, 10e9);
        let mut rng = StdRng::seed_from_u64(1);
        let p1 = topo.random_shortest_path(0, 2, None, &mut rng).unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 2, p1));
        ft.allocate_max_min(&topo);
        let v1 = ft.get(1).unwrap().version;
        // Re-allocating with no change keeps the version.
        let changed = ft.allocate_max_min(&topo);
        assert!(changed.is_empty());
        assert_eq!(ft.get(1).unwrap().version, v1);
    }

    #[test]
    fn empty_path_flows_run_locally() {
        let topo = Topology::single_switch(2, 10e9);
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 0, Vec::new()));
        ft.allocate_max_min(&topo);
        assert!(ft.get(1).unwrap().rate_bps > 10e9);
    }

    #[test]
    fn repeated_link_counts_once() {
        // A path may repeat a link (host -> edge -> host over one cable);
        // the flow still takes one share of it.
        let topo = Topology::fat_tree(4, 10e9);
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 0, vec![0, 0]));
        ft.insert(flow(2, 0, 0, vec![0]));
        assert_eq!(ft.allocate_max_min(&topo), vec![1, 2]);
        assert_eq!(ft.get(1).unwrap().rate_bps, 5e9);
        assert_eq!(ft.get(2).unwrap().rate_bps, 5e9);
    }

    #[test]
    fn fat_tree_cross_section_shared() {
        let topo = Topology::fat_tree(4, 10e9);
        let hosts = topo.hosts();
        let mut rng = StdRng::seed_from_u64(9);
        let mut ft = FlowTable::new();
        // Four flows from distinct sources in pod 0 to distinct hosts in
        // pod 3: plenty of core capacity, each should get its access rate.
        for i in 0..4 {
            let src = hosts[i];
            let dst = hosts[hosts.len() - 1 - i];
            let p = topo.random_shortest_path(src, dst, None, &mut rng).unwrap();
            ft.insert(flow(i, src, dst, p));
        }
        ft.allocate_max_min(&topo);
        let util = ft.link_utilization(&topo);
        for u in util {
            assert!(u <= 1.0 + 1e-9);
        }
        for i in 0..4 {
            assert!(ft.get(i).unwrap().rate_bps > 0.0);
        }
    }
}
