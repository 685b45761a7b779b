//! The run procedure shared by every workload.
//!
//! 1. Generate the inputs from the seed (timed apart, `workloads.gen_ms`).
//! 2. One untimed warm-up pass.
//! 3. `passes` untraced passes. Each rebuilds its state from scratch from
//!    the same inputs, so every pass does identical work; host metrics are
//!    medians over passes.
//! 4. With `--trace 1`, the same number of traced passes: telemetry armed,
//!    host-time spans recorded. They give the per-layer metrics and must
//!    reproduce every modeled number of the untraced passes exactly.
//!
//! The pass count comes from `--seconds` alone (two passes per nominal
//! second), never from a clock, so `attempted` is fixed by the arguments.

use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::{self, Span};
use hermes_util::bench::Stopwatch;
use hermes_util::json::Json;
use std::collections::BTreeMap;
use std::time::Duration;

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host time to build the starting state (inputs already generated).
    pub setup: Duration,
    /// Host time of the measured region.
    pub run: Duration,
    /// Units of work completed in the measured region.
    pub units: u64,
    /// Top-level operations attempted.
    pub attempted: u64,
    /// One line per failed call or wrong answer.
    pub failures: Vec<String>,
    /// Deterministic numbers: modeled metrics and work-identity counts.
    /// Every pass of one seed must produce the same map, bit for bit.
    pub modeled: BTreeMap<&'static str, f64>,
}

/// A seeded workload.
pub trait Workload {
    /// Generated inputs; a pass sees nothing else.
    type Input;

    /// Builds the inputs for a seed. Not timed as part of any pass.
    fn generate(seed: u64) -> Self::Input;

    /// Runs one pass from scratch.
    fn pass(input: &Self::Input) -> Pass;

    /// Validity guards over the inputs beyond a single pass; each returned
    /// line marks the run not correct. Runs once, untimed.
    fn guards(_input: &Self::Input, _first: &Pass) -> Vec<String> {
        Vec::new()
    }

    /// Per-layer metrics this workload derives from a traced pass beyond
    /// the generic span and telemetry ones.
    fn layer_extras(
        _pass: &Pass,
        _spans: &[Span],
        _telemetry: &Json,
    ) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
}

/// Command-line settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Nominal measuring time; sets the pass count.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
}

impl Settings {
    /// Measured passes: two per nominal second (every workload sizes its
    /// pass to about half a second on a 2.0 GHz Xeon core), at least 5 so
    /// a median has company.
    pub fn passes(&self) -> usize {
        (2 * self.seconds as usize).max(5)
    }
}

/// Peak resident set (VmHWM) of this process in MiB, if readable.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs a workload and returns the result line plus the last traced pass's
/// spans (empty without tracing).
pub fn run<W: Workload>(settings: Settings) -> (Outcome, Vec<Span>) {
    let mut problems: Vec<String> = Vec::new();
    let gen_clock = Stopwatch::start();
    let input = W::generate(settings.seed);
    let gen_ms = gen_clock.elapsed().as_secs_f64() * 1e3;

    let warm = W::pass(&input);
    problems.extend(W::guards(&input, &warm));

    let passes = settings.passes();
    let (n_untraced, n_traced) = if settings.trace {
        (passes.div_ceil(2), passes / 2)
    } else {
        (passes, 0)
    };
    // The reference kernel runs between passes, so each pass has a speed
    // reading of the host just before and just after it.
    let mut reference_ms = vec![reference_kernel_ms()];
    let mut untraced = Vec::with_capacity(n_untraced);
    for _ in 0..n_untraced {
        untraced.push(W::pass(&input));
        reference_ms.push(reference_kernel_ms());
    }
    let rss = peak_rss_mib();

    let mut traced: Vec<(Pass, Vec<Span>, Json)> = Vec::new();
    if settings.trace {
        hermes_telemetry::set_enabled(true);
        for _ in 0..n_traced {
            hermes_telemetry::reset();
            trace::start();
            let p = W::pass(&input);
            let spans = trace::finish();
            traced.push((p, spans, hermes_telemetry::snapshot()));
        }
        hermes_telemetry::set_enabled(false);
    }

    // Determinism guard: every pass, traced or not, models the same world.
    for (i, p) in untraced
        .iter()
        .chain(traced.iter().map(|t| &t.0))
        .enumerate()
    {
        if p.modeled != warm.modeled {
            problems.push(format!(
                "pass {i}: modeled numbers differ from the warm-up pass"
            ));
        }
        if p.attempted != warm.attempted {
            problems.push(format!(
                "pass {i}: attempted {} != {}",
                p.attempted, warm.attempted
            ));
        }
    }
    for (i, t) in traced.iter().enumerate().skip(1) {
        if counts_of(&t.2) != counts_of(&traced[0].2) {
            problems.push(format!(
                "traced pass {i}: telemetry counts differ from traced pass 0"
            ));
        }
    }

    let mut out = Outcome::default();
    let measured = untraced.iter().chain(traced.iter().map(|t| &t.0));
    for p in measured {
        out.attempted += p.attempted;
        out.failed += p.failures.len() as u64;
        for f in p.failures.iter().take(3) {
            problems.push(f.clone());
        }
    }

    eprintln!(
        "hermesbench: untraced pass run ms {:?}; setup ms {:?}; reference ms {:?}",
        untraced
            .iter()
            .map(|p| (p.run.as_secs_f64() * 1e3).round())
            .collect::<Vec<_>>(),
        untraced
            .iter()
            .map(|p| (p.setup.as_secs_f64() * 1e4).round() / 10.0)
            .collect::<Vec<_>>(),
        reference_ms
            .iter()
            .map(|r| (r * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    eprintln!("hermesbench: modeled {:?}", warm.modeled);
    // Host times scaled to the nominal host speed: each pass's set-up and
    // run time, times NOMINAL_REFERENCE_MS over the mean of the reference
    // kernel's readings on either side of the pass.
    let scale: Vec<f64> = reference_ms
        .windows(2)
        .map(|r| NOMINAL_REFERENCE_MS * 2.0 / (r[0] + r[1]))
        .collect();
    let scaled = |time: fn(&Pass) -> Duration| {
        let times: Vec<f64> = untraced
            .iter()
            .zip(&scale)
            .map(|(p, k)| time(p).as_secs_f64() * k)
            .collect();
        median(&times)
    };
    let raw = |time: fn(&Pass) -> Duration| {
        median(
            &untraced
                .iter()
                .map(|p| time(p).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let run_s = raw(|p| p.run);
    if let Some((pass, spans, telemetry)) = traced.last() {
        let traced_run_s = median(
            &traced
                .iter()
                .map(|t| t.0.run.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let mut layer = crate::layers::generic(pass, spans, telemetry);
        layer.extend(W::layer_extras(pass, spans, telemetry));
        layer.insert("workloads.gen_ms", gen_ms);
        layer.insert("raw.throughput_per_s", warm.units as f64 / run_s);
        layer.insert("raw.setup_s", raw(|p| p.setup));
        layer.insert("reference_ms", median(&reference_ms));
        layer.insert("trace_overhead_frac", 1.0 - run_s / traced_run_s);
        crate::layers::fill(&mut layer);
        out.metrics = layer;
    } else {
        let run_s = scaled(|p| p.run);
        out.metrics
            .insert("throughput_per_s", warm.units as f64 / run_s);
        out.metrics.insert("setup_s", scaled(|p| p.setup));
        out.metrics.insert("peak_rss_mib", rss.unwrap_or(f64::NAN));
    }
    for (name, v) in &out.metrics {
        if !v.is_finite() {
            problems.push(format!("{name}: not a finite number"));
        }
    }
    for p in &problems {
        eprintln!("hermesbench: {p}");
    }
    out.correct = problems.is_empty() && out.failed == 0;
    let spans = traced.pop().map(|t| t.1).unwrap_or_default();
    (out, spans)
}

/// Every telemetry counter and histogram sample count of a snapshot: the
/// work-identity numbers that must repeat across passes.
fn counts_of(snapshot: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(Json::Obj(pairs)) = snapshot.get("counters") {
        out.extend(
            pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))),
        );
    }
    if let Some(Json::Obj(pairs)) = snapshot.get("histograms") {
        out.extend(
            pairs
                .iter()
                .filter_map(|(k, v)| Some((format!("{k}#count"), v.get("count")?.as_f64()?))),
        );
    }
    out
}

/// The reference kernel's time on the host the workloads were sized on
/// (one 2.0 GHz Xeon core of a 2-core VM, undisturbed). End-to-end host
/// times are reported as if the kernel had taken this long.
pub const NOMINAL_REFERENCE_MS: f64 = 50.0;

/// Salt for the reference kernel's key stream.
const REFERENCE_SALT: u64 = 0x7265_665f_6b65_726e;

/// Times a fixed piece of host work that uses none of the code under
/// test: ordered-map churn over 16 Ki keys, insert/remove shifting in a
/// 2,000-entry vector, and a dependent float chain — the same kinds of
/// work the agent and the simulator do. Its time moves with the host's
/// speed (other tenants, frequency), not with this repository's code, so
/// host times scaled by it are steady across host slowdowns that last
/// seconds to minutes.
pub fn reference_kernel_ms() -> f64 {
    use hermes_util::rng::rngs::StdRng;
    use hermes_util::rng::{Rng, SeedableRng};
    let clock = Stopwatch::start();
    let mut rng = StdRng::seed_from_u64(REFERENCE_SALT);
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut shifts: Vec<u64> = Vec::with_capacity(2_048);
    let (mut acc, mut chain) = (0u64, 1.0f64);
    for i in 0..200_000u64 {
        let key: u64 = rng.gen_range(0..65_536u64);
        if map.insert(key, i).is_none() && map.len() > 16_384 {
            if let Some((&oldest, _)) = map.iter().next() {
                map.remove(&oldest);
            }
        }
        shifts.insert(rng.gen_range(0..=shifts.len()), key);
        if shifts.len() > 2_000 {
            acc = acc.wrapping_add(shifts.remove(rng.gen_range(0..shifts.len())));
        }
        chain = (chain * 1.000_001 + (key as f64).sqrt()).ln_1p();
    }
    std::hint::black_box((acc, chain));
    clock.elapsed().as_secs_f64() * 1e3
}
