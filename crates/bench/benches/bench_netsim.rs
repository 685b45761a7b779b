//! Micro-benchmarks for the Varys simulator substrate: max-min fair
//! allocation, shortest-path sampling and a small end-to-end simulation —
//! the costs that bound experiment turnaround time.

use hermes_netsim::flow::{ActiveFlow, FlowTable};
use hermes_netsim::prelude::*;
use hermes_tcam::SimTime;
use hermes_util::bench::Bench;
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use hermes_workloads::facebook::FacebookWorkload;
use std::hint::black_box;

fn flow_table_on(topo: &Topology, flows: usize, seed: u64) -> FlowTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let hosts = topo.hosts();
    let mut ft = FlowTable::new();
    for i in 0..flows {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let mut dst = hosts[rng.gen_range(0..hosts.len())];
        if dst == src {
            dst = hosts[(src + 1) % hosts.len()];
        }
        let path = topo
            .random_shortest_path(src, dst, None, &mut rng)
            .unwrap_or_default();
        ft.insert(ActiveFlow {
            id: i,
            job: i,
            src,
            dst,
            remaining_bytes: 1e9,
            rate_bps: 0.0,
            path,
            started: SimTime::ZERO,
            version: 0,
        });
    }
    ft
}

fn bench_max_min() {
    let b = Bench::new("max_min_allocation").samples(20);
    let topo = Topology::fat_tree(8, 10e9);
    for flows in [50usize, 200, 800] {
        let base = flow_table_on(&topo, flows, 7);
        b.run_batched(
            &flows.to_string(),
            || base.clone(),
            |mut ft| black_box(ft.allocate_max_min(&topo).len()),
        );
    }
    // The fabric regime: a handful of live flows on a small fat tree. A
    // fresh clone per sample pays the first call's buffer growth; the warm
    // case reallocates one table, as the simulator does on every event.
    let topo = Topology::fat_tree(4, 10e9);
    let base = flow_table_on(&topo, 8, 7);
    b.run_batched(
        "fat_tree4_8",
        || base.clone(),
        |mut ft| black_box(ft.allocate_max_min(&topo).len()),
    );
    let mut warm = base.clone();
    b.run("fat_tree4_8_warm", || {
        black_box(warm.allocate_max_min(&topo).len())
    });
}

fn bench_paths() {
    let topo = Topology::fat_tree(16, 40e9);
    let hosts = topo.hosts();
    let mut rng = StdRng::seed_from_u64(11);
    Bench::new("fat_tree16_random_shortest_path").run("", || {
        let s = hosts[rng.gen_range(0..hosts.len())];
        let d = hosts[rng.gen_range(0..hosts.len())];
        black_box(topo.random_shortest_path(s, d, None, &mut rng))
    });
}

fn bench_end_to_end() {
    let jobs = FacebookWorkload {
        jobs: 30,
        hosts: 16,
        duration_s: 3.0,
        seed: 5,
    }
    .generate();
    Bench::new("varys_end_to_end")
        .samples(10)
        .run("fat_tree4_30jobs_ideal", || {
            let topo = Topology::fat_tree(4, 10e9);
            let mut sim = Varys::new(topo, VarysConfig::default());
            sim.register_jobs(&jobs);
            black_box(sim.run(300.0))
        });
}

fn main() {
    bench_max_min();
    bench_paths();
    bench_end_to_end();
}
