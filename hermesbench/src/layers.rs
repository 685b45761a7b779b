//! Per-layer metrics of a traced pass: host-time spans the benchmark
//! recorded around its own calls, plus sim-time telemetry counts.
//!
//! A metric the workload never exercises reads 0, and so does a
//! percentile with fewer than [`crate::stats::MIN_BEYOND`] samples beyond
//! it; the `*_calls` / `*_samples` counts next to them say which case
//! holds.

use crate::metrics::PER_LAYER;
use crate::run::Pass;
use crate::stats::{beyond, percentile, MIN_BEYOND};
use crate::trace::{durations_ns, self_time_by_layer, Span};
use hermes_util::json::Json;
use std::collections::BTreeMap;

/// Nearest-rank percentile of a span family in the given unit (ns
/// divisor), 0 when the guard refuses it.
fn span_pct(spans: &[Span], name: &str, p: f64, per_unit_ns: f64) -> f64 {
    percentile(&durations_ns(spans, name), p).map_or(0.0, |v| v / per_unit_ns)
}

fn counter(t: &Json, name: &str) -> f64 {
    t.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A telemetry histogram quantile (`p50`/`p99` as exported), 0 when the
/// histogram is missing or too small for the guard.
fn hist(t: &Json, name: &str, key: &str, p: f64) -> f64 {
    let Some(h) = t.get("histograms").and_then(|h| h.get(name)) else {
        return 0.0;
    };
    let n = h.get("count").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    if beyond(n, p) < MIN_BEYOND {
        return 0.0;
    }
    h.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics every workload derives the same way.
pub fn generic(pass: &Pass, spans: &[Span], t: &Json) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let calls = durations_ns(spans, "bench.call");
    m.insert("call_us_p50", span_pct(spans, "bench.call", 0.50, 1e3));
    m.insert("call_us_p99", span_pct(spans, "bench.call", 0.99, 1e3));
    m.insert("call_samples", calls.len() as f64);

    let selfs = self_time_by_layer(spans);
    for (layer, metric) in [
        ("bench", "bench.self_ms"),
        ("baselines", "baselines.self_ms"),
        ("core", "core.self_ms"),
        ("bgp", "bgp.self_ms"),
        ("netsim", "netsim.self_ms"),
    ] {
        m.insert(metric, selfs.get(layer).copied().unwrap_or(0) as f64 / 1e6);
    }

    m.insert(
        "core.insert_us_p50",
        span_pct(spans, "core.insert", 0.50, 1e3),
    );
    m.insert(
        "core.insert_us_p99",
        span_pct(spans, "core.insert", 0.99, 1e3),
    );
    m.insert(
        "core.insert_calls",
        durations_ns(spans, "core.insert").len() as f64,
    );
    m.insert(
        "core.delete_us_p50",
        span_pct(spans, "core.delete", 0.50, 1e3),
    );
    m.insert(
        "core.modify_us_p50",
        span_pct(spans, "core.modify", 0.50, 1e3),
    );
    let ticks = durations_ns(spans, "core.tick");
    m.insert("core.tick_ms_sum", ticks.iter().sum::<f64>() / 1e6);
    m.insert("core.tick_calls", ticks.len() as f64);
    m.insert(
        "core.admit_batch_us_p50",
        span_pct(spans, "core.admit_batch", 0.50, 1e3),
    );
    m.insert(
        "core.admit_batch_us_p99",
        span_pct(spans, "core.admit_batch", 0.99, 1e3),
    );
    m.insert(
        "core.admit_batch_calls",
        durations_ns(spans, "core.admit_batch").len() as f64,
    );
    m.insert(
        "core.lookup_ns_p50",
        span_pct(spans, "core.lookup", 0.50, 1.0),
    );
    m.insert(
        "core.lookup_calls",
        durations_ns(spans, "core.lookup").len() as f64,
    );
    m.insert(
        "core.setup_ms",
        durations_ns(spans, "core.setup").iter().sum::<f64>() / 1e6,
    );

    m.insert("partition.calls", counter(t, "partition.calls"));
    m.insert("partition.cuts", counter(t, "partition.cuts"));
    m.insert(
        "partition.pieces_p99",
        hist(t, "partition.pieces", "p99", 0.99),
    );

    let routes: f64 = [
        "gatekeeper.route_shadow",
        "gatekeeper.route_main_unmatched",
        "gatekeeper.route_main_low_priority",
        "gatekeeper.route_main_over_rate",
        "gatekeeper.route_main_too_fragmented",
        "gatekeeper.route_main_shadow_full",
        "gatekeeper.route_redundant",
        "gatekeeper.route_deferred",
    ]
    .iter()
    .map(|n| counter(t, n))
    .sum();
    m.insert(
        "gatekeeper.shadow_frac",
        ratio(counter(t, "gatekeeper.route_shadow"), routes),
    );
    for name in [
        "gatekeeper.route_main_over_rate",
        "gatekeeper.route_main_shadow_full",
        "gatekeeper.route_main_too_fragmented",
        "manager.migrations",
        "resync.completed",
        "resync.reinstalled",
        "tcam.ops",
        "tcam.shifts",
        "tcam.batch_ops",
        "fleet.txns",
        "fleet.txn_rollbacks",
        "fleet.path_degraded",
        "fleet.ops",
        "fleet.submits",
        "fleet.txn_coalesced_pieces",
        "fleet.sched.steals",
        "fleet.rebalance.rules_moved",
        "netsim.flows_completed",
        "netsim.rule_installs",
        "netsim.reroutes",
        "netsim.crashes",
    ] {
        m.insert(name, counter(t, name));
    }
    m.insert(
        "gatekeeper.shadow_insert_ms_p99",
        hist(t, "gatekeeper.shadow_insert_ns", "p99", 0.99) / 1e6,
    );
    m.insert(
        "manager.migration_batch_p50",
        hist(t, "manager.migration_batch", "p50", 0.50),
    );
    m.insert(
        "manager.migration_ms_p99",
        hist(t, "manager.migration_ns", "p99", 0.99) / 1e6,
    );
    m.insert(
        "resync.guarantee_gap_ms",
        counter(t, "resync.guarantee_gap_ns") / 1e6,
    );
    m.insert(
        "tcam.shifts_per_op",
        ratio(counter(t, "tcam.shifts"), counter(t, "tcam.ops")),
    );
    m.insert("tcam.op_ms_p99", hist(t, "tcam.op_ns", "p99", 0.99) / 1e6);
    let saved = counter(t, "tcam.batch_saved_shifts");
    m.insert(
        "tcam.batch_saved_shift_frac",
        ratio(saved, saved + counter(t, "tcam.batch_shifts")),
    );
    m.insert(
        "fleet.commit_frac",
        ratio(counter(t, "fleet.txn_commits"), counter(t, "fleet.txns")),
    );
    m.insert(
        "fleet.dispatch_wait_ms_p99",
        hist(t, "fleet.dispatch_wait_ns", "p99", 0.99) / 1e6,
    );
    m.insert("netsim.te_ticks", span_rollup_count(t, "netsim", "te_tick"));
    m.insert(
        "netsim.active_flows_max",
        series_max(t, "netsim.active_flows"),
    );

    // Modeled per-layer numbers the workload computed itself.
    for (&k, &v) in &pass.modeled {
        if PER_LAYER.iter().any(|&(n, _)| n == k) {
            m.insert(k, v);
        }
    }
    m
}

fn span_rollup_count(t: &Json, subsystem: &str, name: &str) -> f64 {
    t.get("spans")
        .and_then(Json::as_arr)
        .and_then(|spans| {
            spans.iter().find(|s| {
                s.get("subsystem").and_then(Json::as_str) == Some(subsystem)
                    && s.get("name").and_then(Json::as_str) == Some(name)
            })
        })
        .and_then(|s| s.get("count"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn series_max(t: &Json, name: &str) -> f64 {
    t.get("series")
        .and_then(|s| s.get(name))
        .and_then(|s| s.get("points"))
        .and_then(Json::as_arr)
        .map(|pts| {
            pts.iter()
                .filter_map(|p| p.as_arr().and_then(|xy| xy.get(1)).and_then(Json::as_f64))
                .fold(0.0, f64::max)
        })
        .unwrap_or(0.0)
}

/// Completes the per-layer map with a 0 for every listed metric the
/// workload does not exercise, and drops anything unlisted.
pub fn fill(m: &mut BTreeMap<&'static str, f64>) {
    for &(name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    m.retain(|k, _| PER_LAYER.iter().any(|&(n, _)| n == *k));
}
