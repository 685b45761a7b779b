//! Metric names, units and the result line.
//!
//! Every workload prints every metric of its mode: the end-to-end set
//! without tracing, the per-layer set with it. `BENCHMARK.json` at the
//! repository root lists the same names (a test keeps them in step).

use hermes_util::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. All are host measurements of the
/// untraced run; the times are scaled to the nominal host speed (see
/// [`crate::run::reference_kernel_ms`]). The modeled numbers (`rit_ms_*`, `violation_frac`,
/// `fct_ms_*`, `jct_s_p50`) are exact per seed but not steady across seeds
/// on every workload, so they are reported by the traced run instead (see
/// the README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Counts read from
/// telemetry keep their `registry.txt` names.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Modeled: simulated time and guarantee outcomes, exact per seed.
    ("rit_ms_p50", "ms"),
    ("rit_ms_p99", "ms"),
    ("violation_frac", "frac"),
    ("rit_samples", "count"),
    ("fct_ms_p50", "ms"),
    ("fct_ms_p99", "ms"),
    ("jct_s_p50", "s"),
    // Host: unscaled end-to-end times, the reference kernel, and the
    // top-level calls the benchmark makes.
    ("raw.throughput_per_s", "1/s"),
    ("raw.setup_s", "s"),
    ("reference_ms", "ms"),
    ("call_us_p50", "us"),
    ("call_us_p99", "us"),
    ("call_samples", "count"),
    ("trace_overhead_frac", "frac"),
    // Self time per layer (span minus children).
    ("bench.self_ms", "ms"),
    ("baselines.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("bgp.self_ms", "ms"),
    ("netsim.self_ms", "ms"),
    // core
    ("core.insert_us_p50", "us"),
    ("core.insert_us_p99", "us"),
    ("core.insert_calls", "count"),
    ("core.delete_us_p50", "us"),
    ("core.modify_us_p50", "us"),
    ("core.tick_ms_sum", "ms"),
    ("core.tick_calls", "count"),
    ("core.admit_batch_us_p50", "us"),
    ("core.admit_batch_us_p99", "us"),
    ("core.admit_batch_calls", "count"),
    ("core.lookup_ns_p50", "ns"),
    ("core.lookup_calls", "count"),
    ("core.setup_ms", "ms"),
    // core sub-layers
    ("partition.calls", "count"),
    ("partition.cuts", "count"),
    ("partition.pieces_p99", "count"),
    ("gatekeeper.shadow_frac", "frac"),
    ("gatekeeper.route_main_over_rate", "count"),
    ("gatekeeper.route_main_shadow_full", "count"),
    ("gatekeeper.route_main_too_fragmented", "count"),
    ("gatekeeper.shadow_insert_ms_p99", "ms"),
    ("manager.migrations", "count"),
    ("manager.migration_batch_p50", "count"),
    ("manager.migration_ms_p99", "ms"),
    ("resync.completed", "count"),
    ("resync.reinstalled", "count"),
    ("resync.guarantee_gap_ms", "ms"),
    // tcam
    ("tcam.ops", "count"),
    ("tcam.shifts", "count"),
    ("tcam.shifts_per_op", "count"),
    ("tcam.op_ms_p99", "ms"),
    ("tcam.batch_ops", "count"),
    ("tcam.batch_saved_shift_frac", "frac"),
    // baselines (the serial control-channel queue)
    ("baselines.queue_wait_ms_p99", "ms"),
    ("baselines.backlog_end_ms", "ms"),
    // bgp
    ("bgp.rib_process_us_p50", "us"),
    ("bgp.fib_compile_us_p50", "us"),
    ("bgp.preload_ms", "ms"),
    ("bgp.fib_actions", "count"),
    ("bgp.suppressed_frac", "frac"),
    // fleet
    ("fleet.txns", "count"),
    ("fleet.commit_frac", "frac"),
    ("fleet.txn_rollbacks", "count"),
    ("fleet.path_degraded", "count"),
    ("fleet.ops", "count"),
    ("fleet.submits", "count"),
    ("fleet.txn_coalesced_pieces", "count"),
    ("fleet.dispatch_wait_ms_p99", "ms"),
    ("fleet.sched.steals", "count"),
    ("fleet.rebalance.rules_moved", "count"),
    // netsim
    ("netsim.new_ms", "ms"),
    ("netsim.run_s", "s"),
    ("netsim.run_us_per_flow", "us"),
    ("netsim.active_flows_max", "count"),
    ("netsim.flows_completed", "count"),
    ("netsim.rule_installs", "count"),
    ("netsim.reroutes", "count"),
    ("netsim.te_ticks", "count"),
    ("netsim.crashes", "count"),
    // workloads
    ("workloads.gen_ms", "ms"),
];

/// `true` when `name` is a legal metric name: starts with a letter or
/// digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .copied()
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// The benchmark's last stdout line.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output check and guard passed.
    pub correct: bool,
    /// Top-level operations attempted over the measured passes.
    pub attempted: u64,
    /// Of those, calls that returned an error or a wrong answer.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Renders the one-line JSON result. Values keep every digit
    /// (shortest round-trip formatting); units come from the name tables.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(&name, &value)| {
            let unit = unit_of(name).unwrap_or("count");
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(i128::from(self.attempted))),
            ("failed", Json::Int(i128::from(self.failed))),
            ("metrics", Json::obj(metrics)),
        ])
    }
}
