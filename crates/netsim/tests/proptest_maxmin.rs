//! Property-based tests for the max-min fair allocator: feasibility, work
//! conservation, and max-min optimality (no flow can be raised without
//! lowering a flow that is no better off). Two oracles pin the fast paths
//! bit for bit: a from-scratch progressive-filling allocator over
//! `BTreeMap`s, and shortest-path sampling that runs a fresh BFS per call.
//! Runs under the in-tree `hermes_util::check!` harness with pinned default
//! seeds.

use hermes_netsim::flow::{ActiveFlow, FlowId, FlowTable};
use hermes_netsim::prelude::*;
use hermes_netsim::topology::{LinkId, NodeId, NodeKind};
use hermes_tcam::SimTime;
use hermes_util::check::{arb, range, vec_of, zip2, zip3};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Reference allocator: progressive filling rebuilt from scratch over
/// every link, with `BTreeMap` sets. Paths must not repeat a link.
fn reference_allocate_max_min(
    flows: &mut BTreeMap<FlowId, ActiveFlow>,
    topo: &Topology,
) -> Vec<FlowId> {
    // Residual capacity and unfrozen flow count per link.
    let mut residual: Vec<f64> = topo.links().iter().map(|l| l.capacity_bps).collect();
    let mut link_flows: Vec<Vec<FlowId>> = vec![Vec::new(); topo.links().len()];
    let mut unfrozen: BTreeMap<FlowId, ()> = BTreeMap::new();
    for f in flows.values() {
        for &l in &f.path {
            link_flows[l].push(f.id);
        }
        if !f.path.is_empty() {
            unfrozen.insert(f.id, ());
        }
    }
    let mut rates: BTreeMap<FlowId, f64> = BTreeMap::new();
    // Flows with empty paths (same-host transfers) run at a nominal
    // local rate.
    for f in flows.values() {
        if f.path.is_empty() {
            rates.insert(f.id, 100e9);
        }
    }
    let mut unfrozen_per_link: Vec<usize> = link_flows.iter().map(|v| v.len()).collect();

    while !unfrozen.is_empty() {
        // The bottleneck link: minimal fair share among links carrying
        // unfrozen flows.
        let mut best: Option<(f64, LinkId)> = None;
        for (lid, &n) in unfrozen_per_link.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let share = residual[lid] / n as f64;
            if best.map(|(s, _)| share < s).unwrap_or(true) {
                best = Some((share, lid));
            }
        }
        let Some((share, bottleneck)) = best else {
            break;
        };
        // Freeze every unfrozen flow on the bottleneck at `share`.
        let to_freeze: Vec<FlowId> = link_flows[bottleneck]
            .iter()
            .copied()
            .filter(|id| unfrozen.contains_key(id))
            .collect();
        for id in to_freeze {
            rates.insert(id, share.max(0.0));
            unfrozen.remove(&id);
            let flow = &flows[&id];
            for &l in &flow.path {
                residual[l] = (residual[l] - share).max(0.0);
                unfrozen_per_link[l] -= 1;
            }
        }
    }

    // Apply, reporting changes.
    let mut changed = Vec::new();
    for f in flows.values_mut() {
        let new_rate = rates.get(&f.id).copied().unwrap_or(0.0);
        if (new_rate - f.rate_bps).abs() > 1e-6 {
            f.rate_bps = new_rate;
            f.version += 1;
            changed.push(f.id);
        }
    }
    changed
}

/// Reference path sampler: a fresh BFS per call and a collected candidate
/// list per hop.
fn reference_random_shortest_path<R: Rng>(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    avoid: Option<LinkId>,
    rng: &mut R,
) -> Option<Vec<LinkId>> {
    if src == dst {
        return Some(Vec::new());
    }
    let dist = topo.distances_to(dst);
    if dist[src] == usize::MAX {
        return None;
    }
    let mut path = Vec::with_capacity(dist[src]);
    let mut cur = src;
    while cur != dst {
        let mut candidates: Vec<LinkId> = topo
            .incident(cur)
            .iter()
            .copied()
            .filter(|&lid| {
                let next = topo.links()[lid].other(cur);
                // Never transit through a host.
                (topo.kind(next) == NodeKind::Switch || next == dst) && dist[next] == dist[cur] - 1
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        if let Some(bad) = avoid {
            let filtered: Vec<LinkId> = candidates.iter().copied().filter(|&l| l != bad).collect();
            if !filtered.is_empty() {
                candidates = filtered;
            }
        }
        let pick = candidates[rng.gen_range(0..candidates.len())];
        path.push(pick);
        cur = topo.links()[pick].other(cur);
    }
    Some(path)
}

/// The topologies the oracle properties cover.
fn topologies() -> [Topology; 4] {
    [
        Topology::fat_tree(4, 10e9),
        Topology::fat_tree(8, 10e9),
        Topology::abilene(),
        Topology::geant(),
    ]
}

/// Asserts the table and the reference mirror hold bit-identical flows.
fn assert_same_flows(ft: &FlowTable, mirror: &BTreeMap<FlowId, ActiveFlow>, topo: &Topology) {
    assert_eq!(ft.len(), mirror.len(), "{}: flow count", topo.name);
    for (f, g) in ft.iter().zip(mirror.values()) {
        assert_eq!(f.id, g.id, "{}: flow ids", topo.name);
        assert_eq!(
            f.rate_bps.to_bits(),
            g.rate_bps.to_bits(),
            "{}: flow {} rate {} vs reference {}",
            topo.name,
            f.id,
            f.rate_bps,
            g.rate_bps
        );
        assert_eq!(f.version, g.version, "{}: flow {} version", topo.name, f.id);
    }
}

fn build(topo: &Topology, pairs: &[(usize, usize)], seed: u64) -> FlowTable {
    let hosts = topo.hosts();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ft = FlowTable::new();
    for (i, (s, d)) in pairs.iter().enumerate() {
        let src = hosts[s % hosts.len()];
        let mut dst = hosts[d % hosts.len()];
        if dst == src {
            dst = hosts[(s + 1) % hosts.len()];
        }
        let path = topo
            .random_shortest_path(src, dst, None, &mut rng)
            .unwrap_or_default();
        ft.insert(ActiveFlow {
            id: i,
            job: i,
            src,
            dst,
            remaining_bytes: 1e12,
            rate_bps: 0.0,
            path,
            started: SimTime::ZERO,
            version: 0,
        });
    }
    ft
}

hermes_util::check! {
    #![cases = 256]

    /// Feasibility + work conservation + max-min optimality on a fat tree.
    fn max_min_is_fair_and_feasible(
        pairs in vec_of(zip2(arb::<usize>(), arb::<usize>()), 1..40),
        seed in arb::<u64>(),
    ) {
        let topo = Topology::fat_tree(4, 10e9);
        let mut ft = build(&topo, &pairs, seed);
        ft.allocate_max_min(&topo);

        // Feasibility: no link over capacity.
        let mut load = vec![0.0f64; topo.links().len()];
        for f in ft.iter() {
            assert!(f.rate_bps > 0.0, "flow {} starved", f.id);
            for &l in &f.path {
                load[l] += f.rate_bps;
            }
        }
        for (l, link) in topo.links().iter().enumerate() {
            assert!(load[l] <= link.capacity_bps * (1.0 + 1e-9), "link {l} overloaded");
        }

        // Every flow is bottlenecked: some link on its path is saturated
        // where the flow's rate is maximal among the link's flows — the
        // max-min optimality certificate.
        for f in ft.iter() {
            if f.path.is_empty() {
                continue;
            }
            let mut certified = false;
            for &l in &f.path {
                let saturated = load[l] >= topo.links()[l].capacity_bps * (1.0 - 1e-6);
                if !saturated {
                    continue;
                }
                let max_on_link = ft
                    .iter()
                    .filter(|g| g.path.contains(&l))
                    .map(|g| g.rate_bps)
                    .fold(0.0f64, f64::max);
                if f.rate_bps >= max_on_link * (1.0 - 1e-6) {
                    certified = true;
                    break;
                }
            }
            assert!(certified, "flow {} has no bottleneck certificate", f.id);
        }
    }

    /// Determinism: the same flow set allocates identically every time.
    fn allocation_is_deterministic(
        pairs in vec_of(zip2(arb::<usize>(), arb::<usize>()), 1..20),
        seed in arb::<u64>(),
    ) {
        let topo = Topology::fat_tree(4, 10e9);
        let mut a = build(&topo, &pairs, seed);
        let mut b = build(&topo, &pairs, seed);
        a.allocate_max_min(&topo);
        b.allocate_max_min(&topo);
        for f in a.iter() {
            assert_eq!(f.rate_bps, b.get(f.id).unwrap().rate_bps);
        }
    }

    /// Paths sampled from any topology are simple (no repeated node) and
    /// connect src to dst.
    fn sampled_paths_are_simple(sds in zip3(arb::<usize>(), arb::<usize>(), arb::<u64>())) {
        let (s, d, seed) = sds;
        for topo in [Topology::fat_tree(4, 1e9), Topology::abilene(), Topology::geant()] {
            let hosts = topo.hosts();
            let src = hosts[s % hosts.len()];
            let dst = hosts[d % hosts.len()];
            if src == dst {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let path = topo.random_shortest_path(src, dst, None, &mut rng).unwrap();
            let mut cur = src;
            let mut visited = std::collections::HashSet::from([src]);
            for &l in &path {
                cur = topo.links()[l].other(cur);
                assert!(visited.insert(cur), "{}: node revisited", topo.name);
            }
            assert_eq!(cur, dst);
        }
    }

    /// The allocator matches the reference bit for bit over random
    /// sequences of flow arrivals, completions and reroutes: every rate,
    /// every version and every change list.
    fn allocator_matches_reference(
        ops in vec_of(zip3(range(0u8..3), arb::<usize>(), arb::<usize>()), 1..60),
        seed in arb::<u64>(),
    ) {
        for topo in topologies() {
            let hosts = topo.hosts();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ft = FlowTable::new();
            let mut mirror: BTreeMap<FlowId, ActiveFlow> = BTreeMap::new();
            let mut next_id = 0;
            for &(op, a, b) in &ops {
                let live: Vec<FlowId> = mirror.keys().copied().collect();
                match op {
                    // Arrival; src == dst gives an empty, same-host path.
                    0 => {
                        let (src, dst) = (hosts[a % hosts.len()], hosts[b % hosts.len()]);
                        let path = topo.random_shortest_path(src, dst, None, &mut rng).unwrap();
                        let flow = ActiveFlow {
                            id: next_id,
                            job: 0,
                            src,
                            dst,
                            remaining_bytes: 1e9,
                            rate_bps: 0.0,
                            path,
                            started: SimTime::ZERO,
                            version: 0,
                        };
                        next_id += 1;
                        mirror.insert(flow.id, flow.clone());
                        ft.insert(flow);
                    }
                    // Completion.
                    1 if !live.is_empty() => {
                        let id = live[a % live.len()];
                        assert!(ft.remove(id).is_some());
                        mirror.remove(&id);
                    }
                    // Reroute around one link of the current path.
                    2 if !live.is_empty() => {
                        let f = &mirror[&live[a % live.len()]];
                        let avoid = (!f.path.is_empty()).then(|| f.path[b % f.path.len()]);
                        let path = topo
                            .random_shortest_path(f.src, f.dst, avoid, &mut rng)
                            .unwrap();
                        let id = f.id;
                        ft.get_mut(id).unwrap().path = path.clone();
                        mirror.get_mut(&id).unwrap().path = path;
                    }
                    _ => {}
                }
                let changed = ft.allocate_max_min(&topo);
                let expected = reference_allocate_max_min(&mut mirror, &topo);
                assert_eq!(changed, expected, "{}: changed lists", topo.name);
                assert_same_flows(&ft, &mirror, &topo);
            }
        }
    }

    /// Cached shortest-path sampling returns the BFS-per-call path and
    /// leaves the RNG at the same next draw, with and without `avoid`.
    fn cached_paths_match_bfs_per_call(
        calls in vec_of(zip3(arb::<usize>(), arb::<usize>(), arb::<usize>()), 1..20),
        seed in arb::<u64>(),
    ) {
        for topo in topologies() {
            let mut fast = StdRng::seed_from_u64(seed);
            let mut slow = StdRng::seed_from_u64(seed);
            for &(s, d, sel) in &calls {
                // Any endpoints, switches included.
                let (src, dst) = (s % topo.node_count(), d % topo.node_count());
                let incident = topo.incident(src);
                let avoid = match sel % 3 {
                    0 => None,
                    1 => Some(sel / 3 % topo.links().len()),
                    // A first-hop link: avoided where there is another
                    // choice, used anyway from a host.
                    _ => Some(incident[sel / 3 % incident.len()]),
                };
                assert_eq!(
                    topo.random_shortest_path(src, dst, avoid, &mut fast),
                    reference_random_shortest_path(&topo, src, dst, avoid, &mut slow),
                    "{}: {src} -> {dst} avoiding {avoid:?}",
                    topo.name
                );
                assert_eq!(fast.gen::<u64>(), slow.gen::<u64>(), "{}: rng diverged", topo.name);
            }
        }
    }
}
