//! `bgp-fib`: one Hermes switch carrying a BGP FIB.
//!
//! Setup pushes a prefix pool sized to fill most of the main table through
//! `Rib::preload` → `Fib::compile` → the switch. The pass replays a
//! `BgpTrace` (1,500 updates/s bursts over a 20 updates/s base): each
//! [`WINDOW_MS`] sim-time window's updates go through the RIB and FIB
//! compiler, and the window's FIB actions enter the serial control queue
//! as one batch whose inserts are admitted through `admit_batch`. Every
//! FIB action is followed by [`LOOKUPS_PER_ACTION`] lookups of packets
//! drawn from live and withdrawn prefixes, each checked against a
//! longest-prefix-match reference.

use crate::agent::{Admission, Agent};
use crate::run::{Pass, Workload};
use crate::stats::percentile;
use crate::trace;
use hermes_baselines::{ControlPlane, CpQueue};
use hermes_bgp::prelude::*;
use hermes_core::prelude::*;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel};
use hermes_util::bench::Stopwatch;
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use hermes_workloads::bgptrace::{BgpTrace, TimedUpdate};
use std::collections::BTreeMap;

/// Salt for the BGP trace.
const FIB_TRACE_SALT: u64 = 0x6669_625f_7472_6163;
/// Salt for the lookup packets.
const FIB_PROBE_SALT: u64 = 0x6669_625f_7072_6f62;

/// Insertion-latency guarantee.
pub const GUARANTEE_MS: f64 = 5.0;
/// Prefix pool size (the main table holds about 2,000 entries).
pub const POOL: usize = 1_600;
/// BGP peers.
pub const PEERS: usize = 4;
/// Trace length in sim seconds.
pub const TRACE_S: f64 = 3_000.0;
/// Burst episodes per 100 s of trace: many short bursts, so one seed's
/// burst volume stays close to another's.
pub const BURSTS_PER_100S: f64 = 30.0;
/// Mean burst length.
pub const BURST_LEN_S: f64 = 0.05;
/// Batching window.
pub const WINDOW_MS: f64 = 10.0;
/// Lookups after every FIB action.
pub const LOOKUPS_PER_ACTION: usize = 8;
/// Rule Manager tick period.
pub const TICK_MS: f64 = 100.0;

/// One batching window: its closing instant, the updates it holds and the
/// lookups (packet, expected egress port) that follow its FIB actions.
#[derive(Clone, Debug)]
struct Window {
    close: SimTime,
    updates: std::ops::Range<usize>,
    lookups: Vec<(u128, Option<u32>)>,
}

/// Generated inputs.
#[derive(Clone, Debug)]
pub struct Input {
    preload: Vec<(Ipv4Prefix, BgpRoute)>,
    updates: Vec<TimedUpdate>,
    windows: Vec<Window>,
    expected_fib_len: usize,
}

/// The workload.
pub struct BgpFib;

fn trace_config(seed: u64) -> BgpTrace {
    BgpTrace {
        prefixes: POOL,
        peers: PEERS,
        base_rate: 20.0,
        burst_rate: 1500.0,
        bursts_per_100s: BURSTS_PER_100S,
        burst_len_s: BURST_LEN_S,
        duration_s: TRACE_S,
        seed: seed ^ FIB_TRACE_SALT,
        ..BgpTrace::default()
    }
}

/// Longest-prefix-match reference over `(len, network) → port`.
#[derive(Clone, Debug, Default)]
pub struct LpmReference {
    routes: BTreeMap<(u8, u32), u32>,
}

impl LpmReference {
    /// Applies one FIB delta.
    pub fn apply(&mut self, delta: FibDelta) {
        match delta {
            FibDelta::Add { prefix, port } => {
                self.routes.insert((prefix.len(), prefix.addr()), port);
            }
            FibDelta::Replace {
                prefix, new_port, ..
            } => {
                self.routes.insert((prefix.len(), prefix.addr()), new_port);
            }
            FibDelta::Remove { prefix } => {
                self.routes.remove(&(prefix.len(), prefix.addr()));
            }
        }
    }

    /// The egress port of the longest installed prefix covering `addr`.
    pub fn lookup(&self, addr: u32) -> Option<u32> {
        (0..=32u8).rev().find_map(|len| {
            let net = Ipv4Prefix::new(addr, len).addr();
            self.routes.get(&(len, net)).copied()
        })
    }

    /// Installed prefixes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` when nothing is installed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

fn home_route(idx: usize) -> BgpRoute {
    let peer = (idx % PEERS) as u32;
    BgpRoute {
        local_pref: 100,
        as_path_len: 3,
        med: 0,
        peer: PeerId(peer),
        next_hop_port: peer + 1,
    }
}

impl Workload for BgpFib {
    type Input = Input;

    fn generate(seed: u64) -> Input {
        let cfg = trace_config(seed);
        let pool = cfg.prefix_pool();
        let preload: Vec<(Ipv4Prefix, BgpRoute)> = pool
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, home_route(i)))
            .collect();
        let updates = cfg.generate();

        let mut rib = Rib::new();
        let mut reference = LpmReference::default();
        for d in rib.preload(preload.iter().copied()) {
            reference.apply(d);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ FIB_PROBE_SALT);
        let window = SimDuration::from_ms(WINDOW_MS);
        let mut windows = Vec::new();
        let mut i = 0;
        while i < updates.len() {
            // The window holding update i closes at the next multiple of
            // WINDOW_MS after its arrival.
            let k = updates[i].at.as_nanos() / window.as_nanos() + 1;
            let close = SimTime::from_nanos(k * window.as_nanos());
            let start = i;
            let mut actions = 0;
            while i < updates.len() && updates[i].at < close {
                if let Some(d) = rib.process(updates[i].update) {
                    reference.apply(d);
                    actions += 1;
                }
                i += 1;
            }
            let lookups = (0..actions * LOOKUPS_PER_ACTION)
                .map(|_| {
                    let prefix = pool[rng.gen_range(0..pool.len())];
                    let host: u32 = rng.gen();
                    let addr = prefix.addr() | (host & !prefix.netmask());
                    (
                        crate::churn::packet_in(prefix, host),
                        reference.lookup(addr),
                    )
                })
                .collect();
            windows.push(Window {
                close,
                updates: start..i,
                lookups,
            });
        }
        Input {
            preload,
            updates,
            windows,
            expected_fib_len: reference.len(),
        }
    }

    fn pass(input: &Input) -> Pass {
        let mut pass = Pass::default();
        let mut clock = Stopwatch::start();
        let mut rib = Rib::new();
        let mut fib = Fib::new();
        let setup_span = trace::enter("core.setup");
        let config = HermesConfig::with_guarantee(SimDuration::from_ms(GUARANTEE_MS));
        let mut switch = match HermesSwitch::new(SwitchModel::pica8_p3290(), config) {
            Ok(s) => s,
            Err(e) => {
                pass.failures.push(format!("switch construction: {e}"));
                return pass;
            }
        };
        // A prefix listed twice in the pool compiles to an insert and then
        // a modify: inserts go in as one batch, the rest one by one.
        let actions: Vec<ControlAction> = {
            let _span = trace::enter("bgp.preload");
            rib.preload(input.preload.iter().copied())
                .into_iter()
                .map(|d| fib.compile(d))
                .collect()
        };
        let inserts: Vec<Rule> = actions
            .iter()
            .filter_map(|a| match a {
                ControlAction::Insert(r) => Some(*r),
                _ => None,
            })
            .collect();
        let results = switch
            .admit_batch(&inserts, SimTime::ZERO)
            .into_iter()
            .chain(
                actions
                    .iter()
                    .filter(|a| !a.is_insert())
                    .map(|a| switch.submit(a, SimTime::ZERO))
                    .collect::<Vec<_>>(),
            );
        for res in results {
            if let Err(e) = res {
                pass.failures.push(format!("preload: {e}"));
            }
        }
        switch.migrate(SimTime::ZERO);
        switch.end_warmup();
        drop(setup_span);
        pass.setup = clock.lap();

        let guarantee = SimDuration::from_ms(GUARANTEE_MS);
        let tick = SimDuration::from_ms(TICK_MS);
        let mut queue = CpQueue::new(Agent::new(switch, Admission::Batched));
        let mut rit_ms = Vec::new();
        let mut wait_ms = Vec::new();
        let (mut guaranteed, mut violated, mut fib_actions, mut lookups) = (0u64, 0u64, 0u64, 0u64);
        let mut next_tick = SimTime::ZERO + tick;
        let mut actions: Vec<ControlAction> = Vec::new();
        let mut arrivals: Vec<SimTime> = Vec::new();
        for w in &input.windows {
            while next_tick <= w.close {
                queue.plane_mut().tick(next_tick);
                next_tick += tick;
            }
            actions.clear();
            arrivals.clear();
            let call = trace::enter("bench.call");
            for u in &input.updates[w.updates.clone()] {
                let delta = {
                    let _span = trace::enter("bgp.rib_process");
                    rib.process(u.update)
                };
                if let Some(d) = delta {
                    let _span = trace::enter("bgp.fib_compile");
                    actions.push(fib.compile(d));
                    arrivals.push(u.at);
                }
            }
            let (start, out) = {
                let _span = trace::enter("baselines.submit");
                queue.submit(&actions, w.close)
            };
            drop(call);
            fib_actions += actions.len() as u64;
            let log = std::mem::take(&mut queue.plane_mut().log);
            for (((action, at), op), res) in actions.iter().zip(&arrivals).zip(&out.ops).zip(log) {
                wait_ms.push(start.since(*at).as_ms());
                match res {
                    Ok(rep) => {
                        if let ReportDetail::Insert {
                            route,
                            guaranteed: g,
                            ..
                        } = rep.detail
                        {
                            let rit = CpQueue::<Agent>::rit(*at, start, op);
                            rit_ms.push(rit.as_ms());
                            if g {
                                guaranteed += 1;
                                if rit > guarantee
                                    || matches!(
                                        route,
                                        Route::MainOverRate
                                            | Route::MainShadowFull
                                            | Route::Deferred
                                    )
                                {
                                    violated += 1;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        if action.is_insert() {
                            guaranteed += 1;
                            violated += 1;
                        }
                        pass.failures.push(format!("{action:?}: {e}"));
                    }
                }
            }
            let switch = &mut queue.plane_mut().switch;
            for (packet, expect) in &w.lookups {
                let got = {
                    let _span = trace::enter("core.lookup");
                    switch.lookup(*packet)
                };
                lookups += 1;
                let port = match got.action() {
                    Some(Action::Forward(p)) => Some(p),
                    _ => None,
                };
                if port != *expect {
                    pass.failures.push(format!(
                        "lookup {packet:#x}: port {port:?}, LPM says {expect:?}"
                    ));
                }
            }
        }
        pass.run = clock.lap();
        pass.units = fib_actions + lookups;
        pass.attempted = fib_actions + lookups + 1;

        let switch = &queue.plane().switch;
        if fib.len() != input.expected_fib_len || switch.logical_len() != fib.len() {
            pass.failures.push(format!(
                "FIB size {} (reference {}) but the switch holds {} logical rules",
                fib.len(),
                input.expected_fib_len,
                switch.logical_len()
            ));
        }
        let last_arrival = input.updates.last().map_or(SimTime::ZERO, |u| u.at);
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
        m.insert(
            "baselines.backlog_end_ms",
            queue.busy_until().since(last_arrival).as_ms(),
        );
        m.insert("bgp.fib_actions", fib_actions as f64);
        m.insert(
            "bgp.suppressed_frac",
            1.0 - fib_actions as f64 / input.updates.len().max(1) as f64,
        );
        pass
    }

    fn layer_extras(
        _pass: &Pass,
        spans: &[trace::Span],
        _telemetry: &hermes_util::json::Json,
    ) -> BTreeMap<&'static str, f64> {
        let pct = |name: &str| {
            percentile(&trace::durations_ns(spans, name), 0.50).map_or(0.0, |v| v / 1e3)
        };
        BTreeMap::from([
            ("bgp.rib_process_us_p50", pct("bgp.rib_process")),
            ("bgp.fib_compile_us_p50", pct("bgp.fib_compile")),
            (
                "bgp.preload_ms",
                trace::durations_ns(spans, "bgp.preload")
                    .iter()
                    .sum::<f64>()
                    / 1e6,
            ),
        ])
    }
}
