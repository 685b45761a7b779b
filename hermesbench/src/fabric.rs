//! `fabric`: Varys on a fat tree with Hermes on every switch behind the
//! fleet controller (worker lanes, weighted lane scheduling, transaction
//! coalescing, the TE-driven rebalancer) and a crash schedule cycling
//! wipe, partial and disconnect crashes. Facebook jobs run to completion.
//!
//! Host time here is the fluid-flow model; the control plane is a few
//! percent of it. This is the only workload where fleet transactions,
//! rollback and crash resync run.

use crate::run::{Pass, Workload};
use crate::stats::percentile;
use crate::trace;
use hermes_core::prelude::*;
use hermes_netsim::prelude::*;
use hermes_netsim::sim::CrashProfile;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SwitchModel};
use hermes_util::bench::Stopwatch;
use hermes_workloads::facebook::{FacebookWorkload, JobSpec};

/// Salt for the job trace.
const FABRIC_JOBS_SALT: u64 = 0x6661_6272_6963_6a62;
/// Salt for the simulator's own stream (placement, crash victims).
const FABRIC_SIM_SALT: u64 = 0x6661_6272_6963_7369;

/// Fat-tree arity.
pub const K: usize = 4;
/// Link speed.
pub const LINK_BPS: f64 = 10e9;
/// Facebook jobs drawn per seed; passes take a prefix of them.
pub const POOL_JOBS: usize = 4_000;
/// Mean gap between job arrivals in sim seconds (keeps the fleet's
/// control channels below saturation, so queues drain).
pub const ARRIVAL_GAP_S: f64 = 0.25;
/// Widest job kept, in flows: a single 32×32 shuffle would otherwise be a
/// third of a pass and make one seed's work unlike another's.
pub const MAX_JOB_FLOWS: usize = 16;
/// Flows per pass: jobs are taken in arrival order until this many flows
/// are registered (the last job may overshoot by less than
/// [`MAX_JOB_FLOWS`]).
pub const FLOWS: usize = 9_000;
/// Insertion-latency guarantee.
pub const GUARANTEE_MS: f64 = 5.0;
/// Rules preloaded per switch.
pub const BASE_RULES: usize = 200;
/// Worker lanes of the fleet.
pub const LANES: usize = 4;

/// Generated inputs.
#[derive(Clone, Debug)]
pub struct Input {
    jobs: Vec<JobSpec>,
    flows: usize,
    config: VarysConfig,
    horizon_s: f64,
}

/// The workload.
pub struct Fabric;

impl Workload for Fabric {
    type Input = Input;

    fn generate(seed: u64) -> Input {
        let hosts = K * K * K / 4;
        let mut jobs = Vec::new();
        let mut flows = 0;
        let pool = FacebookWorkload {
            jobs: POOL_JOBS,
            hosts,
            duration_s: POOL_JOBS as f64 * ARRIVAL_GAP_S,
            seed: seed ^ FABRIC_JOBS_SALT,
        }
        .generate();
        for job in pool.into_iter().filter(|j| j.flows.len() <= MAX_JOB_FLOWS) {
            if flows >= FLOWS {
                break;
            }
            flows += job.flows.len();
            jobs.push(JobSpec {
                id: jobs.len(),
                ..job
            });
        }
        let last_arrival = jobs.last().map_or(0.0, |j| j.arrival_s);
        let horizon_s = last_arrival * 20.0 + 600.0;
        let config = VarysConfig {
            switch: SwitchKind::Hermes(
                SwitchModel::pica8_p3290(),
                HermesConfig::with_guarantee(SimDuration::from_ms(GUARANTEE_MS)),
            ),
            congestion_threshold: 0.5,
            base_rules_per_switch: BASE_RULES,
            max_reroutes_per_tick: 10_000,
            te_interval_s: 0.5,
            crash: Some(CrashProfile::default()),
            lanes: LANES,
            sched: LaneSched::Weighted,
            rebalance: Some(RebalancePolicy::default()),
            seed: seed ^ FABRIC_SIM_SALT,
            ..VarysConfig::default()
        };
        Input {
            jobs,
            flows,
            config,
            horizon_s,
        }
    }

    fn pass(input: &Input) -> Pass {
        let mut pass = Pass::default();
        let mut clock = Stopwatch::start();
        let mut sim = {
            let _span = trace::enter("netsim.new");
            let mut sim = Varys::new(Topology::fat_tree(K, LINK_BPS), input.config.clone());
            sim.register_jobs(&input.jobs);
            sim
        };
        pass.setup = clock.lap();
        {
            let _call = trace::enter("bench.call");
            let _span = trace::enter("netsim.run");
            sim.run(input.horizon_s);
        }
        pass.run = clock.lap();

        let done = sim.metrics.fct_s.len();
        pass.units = done as u64;
        pass.attempted = input.flows as u64;
        if done != input.flows {
            pass.failures
                .push(format!("{done} of {} flows completed", input.flows));
        }
        // After quiescence every member holds exactly its preloaded rules:
        // each flow's path rules were removed when the flow completed. Rule
        // ids are handed out in order, preloads first, so every id the run
        // can have used lies below `id_end`.
        let switches = sim.fleet().switch_ids();
        let id_end = 2 * (sim.metrics.installs + (switches.len() * BASE_RULES) as u64);
        for (n, sw) in switches.iter().enumerate() {
            pass.attempted += 1;
            let plane = sim.fleet().plane(*sw);
            let base = (n * BASE_RULES) as u64..((n + 1) * BASE_RULES) as u64;
            let held = |id: u64| plane.contains_rule(RuleId(id)) == Some(true);
            let missing = base.clone().filter(|&id| !held(id)).count();
            let extra = (0..id_end)
                .filter(|id| !base.contains(id) && held(*id))
                .count();
            if missing + extra > 0 || plane.is_down() || plane.occupancy() != BASE_RULES {
                pass.failures.push(format!(
                    "switch {sw}: {missing} preloaded rules missing, {extra} flow rules left, \
                     {} entries, down={}",
                    plane.occupancy(),
                    plane.is_down()
                ));
            }
        }

        let rit = sim.metrics.rit_ms.values().to_vec();
        let over = rit.iter().filter(|&&v| v > GUARANTEE_MS).count();
        let m = &mut pass.modeled;
        if let Some(v) = percentile(&rit, 0.50) {
            m.insert("rit_ms_p50", v);
        }
        if let Some(v) = percentile(&rit, 0.99) {
            m.insert("rit_ms_p99", v);
        }
        if !rit.is_empty() {
            m.insert("violation_frac", over as f64 / rit.len() as f64);
        }
        m.insert("rit_samples", rit.len() as f64);
        let fct_ms: Vec<f64> = sim.metrics.fct_s.values().iter().map(|s| s * 1e3).collect();
        m.insert("fct_ms_p50", percentile(&fct_ms, 0.50).unwrap_or(0.0));
        m.insert("fct_ms_p99", percentile(&fct_ms, 0.99).unwrap_or(0.0));
        m.insert(
            "jct_s_p50",
            percentile(sim.metrics.jct_s.values(), 0.50).unwrap_or(0.0),
        );
        m.insert("netsim.crashes_modeled", sim.metrics.crashes as f64);
        pass
    }

    fn layer_extras(
        pass: &Pass,
        spans: &[trace::Span],
        _telemetry: &hermes_util::json::Json,
    ) -> std::collections::BTreeMap<&'static str, f64> {
        let sum_ns = |name: &str| trace::durations_ns(spans, name).iter().sum::<f64>();
        let run_s = sum_ns("netsim.run") / 1e9;
        std::collections::BTreeMap::from([
            ("netsim.new_ms", sum_ns("netsim.new") / 1e6),
            ("netsim.run_s", run_s),
            (
                "netsim.run_us_per_flow",
                run_s * 1e6 / pass.units.max(1) as f64,
            ),
        ])
    }
}
