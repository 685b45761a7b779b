//! `hermesbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on stderr and, as the last stdout line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 0 when
//! the run completed (even if a check failed: `correct` says so) and 2 on
//! bad arguments.

#![forbid(unsafe_code)]

use hermesbench::run::{run, Settings};
use hermesbench::{churn, fabric, fib, trace, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => settings.seed = num()?,
            "--seconds" => settings.seconds = num()?,
            "--trace" => settings.trace = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok((workload, settings))
}

/// Where the traced run's spans go: the build directory, which is
/// ignored by git and owned by the benchmark.
fn spans_path(workload: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| "hermesbench/target".into());
    dir.join(format!("hermesbench-spans-{workload}.tsv"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, settings) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("hermesbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, spans) = match workload.as_str() {
        "guarantee-churn" => run::<churn::Churn>(settings),
        "bgp-fib" => run::<fib::BgpFib>(settings),
        _ => run::<fabric::Fabric>(settings),
    };
    if !spans.is_empty() {
        let path = spans_path(&workload);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace::to_tsv(&spans)));
        if let Err(e) = written {
            eprintln!("hermesbench: could not write {}: {e}", path.display());
        }
    }
    println!("{}", outcome.to_json().to_string());
    ExitCode::SUCCESS
}
