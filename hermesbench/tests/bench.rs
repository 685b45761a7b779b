//! Unit checks of the benchmark's own machinery: percentile selection,
//! span self time, metric names, and agreement between `BENCHMARK.json`
//! and what a run prints.

use hermes_util::json::Json;
use hermesbench::metrics::{unit_of, valid_name, END_TO_END, PER_LAYER};
use hermesbench::run::{run, Pass, Settings, Workload};
use hermesbench::stats::{beyond, median, percentile};
use hermesbench::trace::{self, self_time_by_layer, Span};
use hermesbench::WORKLOADS;
use std::collections::BTreeMap;
use std::time::Duration;

#[test]
fn percentile_needs_ten_samples_beyond_its_rank() {
    // Nearest rank of p50 over 21 samples is index 10: ten lie above it.
    let v: Vec<f64> = (0..21).map(f64::from).collect();
    assert_eq!(beyond(21, 0.5), 10);
    assert_eq!(percentile(&v, 0.5), Some(10.0));
    assert_eq!(
        percentile(&v[..20], 0.5),
        None,
        "20 samples leave 9 above p50"
    );
    // A p99 needs 952 samples: rank round(0.99 × 951) = 941 leaves ten above.
    assert_eq!((beyond(951, 0.99), beyond(952, 0.99)), (9, 10));
    let big: Vec<f64> = (0..952).rev().map(f64::from).collect();
    assert_eq!(
        percentile(&big, 0.99),
        Some(941.0),
        "input order does not matter"
    );
    assert!(percentile(&big[..951], 0.99).is_none());
    assert_eq!(beyond(0, 0.5), 0);
}

#[test]
fn median_is_a_measured_value() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(
        median(&[4.0, 1.0, 3.0, 2.0]),
        2.0,
        "lower middle for even counts"
    );
    assert!(median(&[]).is_nan());
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = [
        span("bench.call", 0, 100, None),
        span("baselines.submit", 10, 90, Some(0)),
        span("core.insert", 20, 60, Some(1)),
        span("core.tick", 60, 70, Some(1)),
        span("bench.call", 200, 230, None),
    ];
    let selfs = self_time_by_layer(&spans);
    assert_eq!(selfs["bench"], 20 + 30);
    assert_eq!(selfs["baselines"], 80 - 50);
    assert_eq!(selfs["core"], 40 + 10);
    assert_eq!(
        selfs.values().sum::<u64>(),
        100 + 30,
        "self times tile the root spans"
    );
}

#[test]
fn recorder_nests_and_stays_inert_when_disarmed() {
    drop(trace::enter("bench.call"));
    assert!(
        trace::finish().is_empty(),
        "disarmed recorder keeps nothing"
    );
    trace::start();
    {
        let _outer = trace::enter("bench.call");
        let _inner = trace::enter("core.insert");
    }
    let _sibling = trace::enter("core.tick");
    drop(_sibling);
    let spans = trace::finish();
    let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        names,
        vec![
            ("bench.call", None),
            ("core.insert", Some(0)),
            ("core.tick", None)
        ]
    );
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(trace::to_tsv(&spans).lines().count() == 4);
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(seen.insert(*name), "{name} listed twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} of {name}"
        );
    }
    for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    assert!(valid_name("fleet.sched.steals") && valid_name("0-a_b.c"));
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_knows() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// A workload whose pass costs nothing, to check what the runner prints.
struct Tiny;

impl Workload for Tiny {
    type Input = u64;

    fn generate(seed: u64) -> u64 {
        seed
    }

    fn pass(input: &u64) -> Pass {
        let _call = trace::enter("bench.call");
        Pass {
            setup: Duration::from_micros(3),
            run: Duration::from_micros(7),
            units: 10,
            attempted: 10,
            failures: Vec::new(),
            modeled: BTreeMap::from([("rit_samples", *input as f64)]),
        }
    }
}

fn printed(trace: bool) -> (bool, Vec<(String, String)>) {
    let (outcome, _) = run::<Tiny>(Settings {
        seed: 4,
        seconds: 1,
        trace,
    });
    let doc = Json::parse(&outcome.to_json().to_string()).expect("result line parses");
    let names = match doc.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect(),
        _ => Vec::new(),
    };
    (outcome.correct, names)
}

#[test]
fn printed_names_match_benchmark_json() {
    let doc = benchmark_json();
    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    let (correct, untraced) = printed(false);
    assert!(correct);
    assert_eq!(sorted(untraced), sorted(listed(&doc, "end_to_end")));
    let (correct, traced) = printed(true);
    assert!(correct);
    assert_eq!(sorted(traced), sorted(listed(&doc, "per_layer")));
    assert_eq!(unit_of("throughput_per_s"), Some("1/s"));
}
