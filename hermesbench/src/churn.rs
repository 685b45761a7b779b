//! `guarantee-churn`: one Hermes switch (Pica8 P-3290, 5 ms guarantee)
//! under a level-occupancy stream of inserts, deletes and modifies.
//!
//! Setup preloads the main table to [`PRELOAD_FRAC`] occupancy. The stream
//! then pairs every MicroBench-shaped insert (about 30% wider,
//! lower-priority covers; random priorities) with a delete of an older
//! rule, and mixes in [`MODIFY_FRAC`] action-only modifies. Actions arrive
//! Poisson in sim time at [`LOAD`] × `max_supported_rate()`, pass through
//! the serial control-channel queue one per call, and the Rule Manager
//! ticks every 100 ms of sim time. No lookups are timed, no fleet, no
//! netsim: this is the agent's own work.

use crate::agent::{Admission, Agent};
use crate::run::{Pass, Workload};
use crate::stats::percentile;
use crate::trace;
use hermes_baselines::{ControlPlane, CpQueue};
use hermes_core::prelude::*;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel};
use hermes_util::bench::Stopwatch;
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use hermes_workloads::microbench::{MicroBench, PriorityMode};
use std::collections::BTreeMap;

/// Salt for the rule-shape stream.
const CHURN_RULES_SALT: u64 = 0x6368_7572_6e5f_7275;
/// Salt for the action-mix and arrival stream.
const CHURN_MIX_SALT: u64 = 0x6368_7572_6e5f_6d78;
/// Salt for the oracle probe packets.
const CHURN_PROBE_SALT: u64 = 0x6368_7572_6e5f_7062;

/// Insertion-latency guarantee.
pub const GUARANTEE_MS: f64 = 5.0;
/// Main-table occupancy after setup.
pub const PRELOAD_FRAC: f64 = 0.75;
/// Offered action rate as a fraction of `max_supported_rate()`.
pub const LOAD: f64 = 0.8;
/// Actions per pass.
pub const ACTIONS: usize = 80_000;
/// Share of actions that are modifies.
pub const MODIFY_FRAC: f64 = 0.2;
/// Share of inserts that are wider covers of an earlier rule.
pub const OVERLAP: f64 = 0.3;
/// Rule Manager tick period.
pub const TICK_MS: f64 = 100.0;
/// Packets checked against the flat oracle after each pass.
pub const PROBES: usize = 2_000;
/// How much the end-of-stream backlog may grow when the stream doubles
/// before the queue counts as overloaded.
pub const BACKLOG_SLACK_MS: f64 = 10.0 * GUARANTEE_MS;

/// The expected answer for one probe packet: the highest matching
/// priority and every action a rule at that priority carries (`None`:
/// no rule matches, the packet goes to the controller).
pub type Expect = Option<(Priority, Vec<Action>)>;

/// Generated inputs.
#[derive(Clone, Debug)]
pub struct Input {
    model: SwitchModel,
    config: HermesConfig,
    preload: Vec<Rule>,
    /// Twice the pass length; passes use the first [`ACTIONS`].
    actions: Vec<(SimTime, ControlAction)>,
    /// Logical rules after the first [`ACTIONS`] actions, by id.
    expected: Vec<Rule>,
    probes: Vec<(u128, Expect)>,
}

/// The workload.
pub struct Churn;

fn config() -> HermesConfig {
    HermesConfig::with_guarantee(SimDuration::from_ms(GUARANTEE_MS))
}

/// Flat highest-priority oracle over a rule set.
pub fn oracle(rules: &[Rule], packet: u128) -> Expect {
    let top = rules
        .iter()
        .filter(|r| r.key.matches(packet))
        .map(|r| r.priority)
        .max()?;
    let actions = rules
        .iter()
        .filter(|r| r.priority == top && r.key.matches(packet))
        .map(|r| r.action)
        .collect();
    Some((top, actions))
}

/// A packet whose destination lies inside `prefix` (host bits random).
pub fn packet_in(prefix: Ipv4Prefix, host: u32) -> u128 {
    let addr = prefix.addr() | (host & !prefix.netmask());
    u128::from(addr) << hermes_rules::fields::DST_SHIFT
}

impl Workload for Churn {
    type Input = Input;

    fn generate(seed: u64) -> Input {
        let model = SwitchModel::pica8_p3290();
        // INVARIANT: a 5 ms guarantee is feasible on the Pica8 model (its
        // per-op base cost is 0.3 ms); the unit tests of hermes-core pin it.
        let probe = HermesSwitch::new(model.clone(), config()).expect("INVARIANT: feasible config");
        let main_cap = model.capacity - probe.shadow_capacity();
        let preload_n = (main_cap as f64 * PRELOAD_FRAC) as usize;
        let rate = LOAD * probe.max_supported_rate();

        let total = 2 * ACTIONS;
        let rules: Vec<Rule> = MicroBench {
            arrival_rate: 1.0,
            overlap_rate: OVERLAP,
            priorities: PriorityMode::Random { lo: 10, hi: 1000 },
            count: preload_n + total,
            seed: seed ^ CHURN_RULES_SALT,
        }
        .generate()
        .into_iter()
        .filter_map(|t| match t.action {
            ControlAction::Insert(r) => Some(r),
            _ => None,
        })
        .collect();
        let preload = rules[..preload_n].to_vec();

        let mut rng = StdRng::seed_from_u64(seed ^ CHURN_MIX_SALT);
        let mut live: BTreeMap<RuleId, Rule> = preload.iter().map(|r| (r.id, *r)).collect();
        let mut ids: Vec<RuleId> = preload.iter().map(|r| r.id).collect();
        let mut fresh = rules[preload_n..].iter();
        let mut just_inserted: Option<RuleId> = None;
        let mut actions = Vec::with_capacity(total);
        let mut expected = Vec::new();
        let mut t = 0.0f64;
        for k in 0..total {
            if k == ACTIONS {
                expected = live.values().copied().collect();
            }
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / rate;
            let pick_older = |rng: &mut StdRng, ids: &[RuleId]| loop {
                let i = rng.gen_range(0..ids.len());
                if Some(ids[i]) != just_inserted {
                    break i;
                }
            };
            let action = if rng.gen_bool(MODIFY_FRAC) {
                let id = ids[rng.gen_range(0..ids.len())];
                let port = rng.gen_range(1..48u32);
                if let Some(r) = live.get_mut(&id) {
                    r.action = Action::Forward(port);
                }
                ControlAction::Modify {
                    id,
                    action: Some(Action::Forward(port)),
                    priority: None,
                }
            } else if just_inserted.is_some() {
                let i = pick_older(&mut rng, &ids);
                let id = ids.swap_remove(i);
                live.remove(&id);
                just_inserted = None;
                ControlAction::Delete(id)
            } else {
                // INVARIANT: MicroBench generated preload_n + 2·ACTIONS
                // rules and the stream inserts at most 2·ACTIONS of them.
                let r = *fresh.next().expect("INVARIANT: enough generated rules");
                live.insert(r.id, r);
                ids.push(r.id);
                just_inserted = Some(r.id);
                ControlAction::Insert(r)
            };
            actions.push((SimTime::from_secs(t), action));
        }

        let mut prng = StdRng::seed_from_u64(seed ^ CHURN_PROBE_SALT);
        let probes = (0..PROBES)
            .map(|i| {
                let packet = if i % 2 == 0 {
                    let r = expected[prng.gen_range(0..expected.len())];
                    let prefix = hermes_rules::fields::FlowMatch::dst_prefix_of_key(&r.key)
                        .unwrap_or(Ipv4Prefix::DEFAULT);
                    packet_in(prefix, prng.gen())
                } else {
                    packet_in(Ipv4Prefix::new(0b01 << 30, 2), prng.gen())
                };
                (packet, oracle(&expected, packet))
            })
            .collect();
        Input {
            model,
            config: config(),
            preload,
            actions,
            expected,
            probes,
        }
    }

    fn pass(input: &Input) -> Pass {
        stream(input, ACTIONS, true)
    }

    fn guards(input: &Input, first: &Pass) -> Vec<String> {
        let double = stream(input, 2 * ACTIONS, false);
        let key = "baselines.backlog_end_ms";
        let (b1, b2) = (
            first.modeled.get(key).copied().unwrap_or(f64::NAN),
            double.modeled.get(key).copied().unwrap_or(f64::NAN),
        );
        if b2 <= b1 + BACKLOG_SLACK_MS {
            Vec::new()
        } else {
            vec![format!(
                "control queue overloaded: backlog at end grows from {b1} ms to {b2} ms when the stream doubles"
            )]
        }
    }
}

fn refused(route: Route) -> bool {
    matches!(
        route,
        Route::MainOverRate | Route::MainShadowFull | Route::Deferred
    )
}

/// Runs the first `n` actions from a fresh switch. `check` compares the
/// final state with the generated expectation (only valid at `ACTIONS`).
fn stream(input: &Input, n: usize, check: bool) -> Pass {
    let mut pass = Pass::default();
    let mut clock = Stopwatch::start();
    let setup_span = trace::enter("core.setup");
    let mut switch = match HermesSwitch::new(input.model.clone(), input.config.clone()) {
        Ok(s) => s,
        Err(e) => {
            pass.failures.push(format!("switch construction: {e}"));
            return pass;
        }
    };
    for (r, res) in input
        .preload
        .iter()
        .zip(switch.admit_batch(&input.preload, SimTime::ZERO))
    {
        if let Err(e) = res {
            pass.failures.push(format!("preload of rule {}: {e}", r.id));
        }
    }
    switch.migrate(SimTime::ZERO);
    switch.end_warmup();
    drop(setup_span);
    pass.setup = clock.lap();

    let guarantee = SimDuration::from_ms(GUARANTEE_MS);
    let tick = SimDuration::from_ms(TICK_MS);
    let mut queue = CpQueue::new(Agent::new(switch, Admission::PerOp));
    let mut rit_ms = Vec::with_capacity(n);
    let mut wait_ms = Vec::with_capacity(n);
    let (mut guaranteed, mut violated) = (0u64, 0u64);
    let mut next_tick = SimTime::ZERO + tick;
    for (at, action) in &input.actions[..n] {
        while next_tick <= *at {
            queue.plane_mut().tick(next_tick);
            next_tick += tick;
        }
        let (start, out) = {
            let _call = trace::enter("bench.call");
            let _span = trace::enter("baselines.submit");
            queue.submit(std::slice::from_ref(action), *at)
        };
        wait_ms.push(start.since(*at).as_ms());
        let res = queue.plane_mut().log.pop();
        match (action, res) {
            (ControlAction::Insert(_), Some(Ok(rep))) => {
                let rit = CpQueue::<Agent>::rit(*at, start, &out.ops[0]);
                rit_ms.push(rit.as_ms());
                if let ReportDetail::Insert {
                    route,
                    guaranteed: true,
                    ..
                } = rep.detail
                {
                    guaranteed += 1;
                    if rit > guarantee || refused(route) {
                        violated += 1;
                    }
                }
            }
            (_, Some(Ok(_))) => {}
            (a, Some(Err(e))) => {
                if a.is_insert() {
                    guaranteed += 1;
                    violated += 1;
                }
                pass.failures.push(format!("{a:?}: {e}"));
            }
            (a, None) => pass.failures.push(format!("{a:?}: no result logged")),
        }
    }
    pass.run = clock.lap();
    pass.units = n as u64;
    pass.attempted = n as u64;

    let last_arrival = input.actions[n - 1].0;
    let backlog = queue.busy_until().since(last_arrival).as_ms();
    let m = &mut pass.modeled;
    if let Some(v) = percentile(&rit_ms, 0.50) {
        m.insert("rit_ms_p50", v);
    }
    if let Some(v) = percentile(&rit_ms, 0.99) {
        m.insert("rit_ms_p99", v);
    }
    if guaranteed > 0 {
        m.insert("violation_frac", violated as f64 / guaranteed as f64);
    }
    m.insert("rit_samples", rit_ms.len() as f64);
    m.insert(
        "baselines.queue_wait_ms_p99",
        percentile(&wait_ms, 0.99).unwrap_or(0.0),
    );
    m.insert("baselines.backlog_end_ms", backlog);

    if check {
        let switch = &queue.plane().switch;
        let mut logical = switch.logical_rules();
        logical.sort_by_key(|r| r.id);
        pass.attempted += 1;
        if logical != input.expected {
            pass.failures.push(format!(
                "logical rules differ from the benchmark's model ({} vs {} rules)",
                logical.len(),
                input.expected.len()
            ));
        }
        for (packet, expect) in &input.probes {
            pass.attempted += 1;
            let got = switch.peek(*packet).rule();
            let ok = match (expect, got) {
                (None, None) => true,
                (Some((prio, actions)), Some(r)) => {
                    r.priority == *prio && actions.contains(&r.action)
                }
                _ => false,
            };
            if !ok {
                pass.failures.push(format!(
                    "probe {packet:#x}: got {got:?}, expected {expect:?}"
                ));
            }
        }
    }
    pass
}
