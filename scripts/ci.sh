#!/usr/bin/env bash
# Hermetic CI for the Hermes reproduction workspace.
#
# Policy (README.md "Hermetic build"): the workspace has ZERO external
# crate dependencies — everything that would come from crates.io lives in
# crates/util. Every cargo invocation below therefore runs with
# `--offline`; if a network fetch would be needed, CI must fail.
#
# The pipeline is a sequence of named stages. Run them all (the default)
# or a comma-separated subset:
#
#     CI_STAGES=lint,test scripts/ci.sh
#
# Each stage prints its elapsed wall-clock time on completion. Stage
# order matters: later stages assume earlier ones' artifacts (e.g.
# `perfgate` reuses the release binaries `build`/`bins` produced), so a
# subset run may rebuild more than the full pipeline would.
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(build lint clippy test bins bench chaos telemetry perfgate matrix_smoke)

stage_build() {
    cargo build --release --offline --workspace
}

stage_lint() {
    # One blocking stage: the analyzer (R1-R6 token rules, R7-R10 flow
    # rules, S1 suppressions -- DESIGN.md §9) runs against the committed
    # debt ratchet; only a per-rule count INCREASE over
    # bench_baselines/lint_baseline.json fails. R4 subsumes the old
    # `cargo metadata | python3` lockfile guard. The JSON report is then
    # schema-checked so the hermes-lint-report/2 document cannot drift.
    local lint_json
    lint_json="$(mktemp)"
    cargo run --release --offline -q -p hermes-lint -- --workspace \
        --json "$lint_json" --baseline bench_baselines/lint_baseline.json
    python3 - "$lint_json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "hermes-lint-report/2", doc.get("schema")
required = ["schema", "files_scanned", "clean", "rules", "findings", "suppressions"]
missing = [k for k in required if k not in doc]
assert not missing, "missing report keys: %s" % missing
assert doc["files_scanned"] > 50, doc["files_scanned"]
assert [r["id"] for r in doc["rules"]] == [
    "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "S1"]
# The ratchet already gated on counts; re-assert against the committed
# budgets so the binary's verdict and the report cannot disagree.
budgets = json.load(open("bench_baselines/lint_baseline.json"))["rules"]
over = [(r["id"], r["findings"], budgets.get(r["id"], 0))
        for r in doc["rules"] if r["findings"] > budgets.get(r["id"], 0)]
assert not over, "rules over their ratchet budget: %s" % over
bare = [s for s in doc["suppressions"] if not s["reason"].strip()]
assert not bare, "suppressions without reasons: %s" % bare
print("ok: %d finding(s) within ratchet over %d files, %d reasoned suppression(s)"
      % (len(doc["findings"]), doc["files_scanned"], len(doc["suppressions"])))
PY
    rm -f "$lint_json"
}

stage_clippy() {
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

stage_test() {
    cargo test -q --offline --workspace
    # The benchmark is its own cargo workspace: test it too, so a core API
    # change that breaks it fails here rather than in a benchmark run.
    cargo test --offline -q --manifest-path hermesbench/Cargo.toml
}

stage_bins() {
    cargo build --release --offline -p hermes-bench --bins
}

stage_bench() {
    cargo build --release --offline --workspace --benches
    local b out
    for b in bench_tcam bench_rules bench_hermes bench_netsim; do
        out=/dev/null
        # bench_netsim's rows stay in the log, so the allocator's per-call
        # time is visible on every run (reported, not gated).
        if [ "$b" = bench_netsim ]; then out=/dev/stdout; fi
        HERMES_BENCH_FAST=1 HERMES_BENCH_SAMPLES=2 HERMES_BENCH_WARMUP_MS=1 \
            cargo bench --offline -q -p hermes-bench --bench "$b" >"$out"
    done
}

stage_chaos() {
    # The oracle chaos properties: random workloads under random fault plans
    # (transient and crash-class) must recover to flat-table equivalence
    # (DESIGN.md §7, §12).
    cargo test -q --offline -p hermes-core --test oracle chaos
    # One full experiment under a pinned fault seed: must exit 0 (no panics
    # reachable from device faults) and reproduce byte-for-byte.
    local chaos_out chaos_out2
    chaos_out="$(mktemp)" chaos_out2="$(mktemp)"
    HERMES_FAULT_SEED=42 ./target/release/exp_fig12 > "$chaos_out"
    HERMES_FAULT_SEED=42 ./target/release/exp_fig12 > "$chaos_out2"
    cmp "$chaos_out" "$chaos_out2" \
      || { echo "chaos run not deterministic under HERMES_FAULT_SEED"; exit 1; }
    # Same discipline for the crash storm: armed crash plans must recover
    # (the binary asserts >=1 completed resync per mode) and replay
    # byte-for-byte from the seed.
    HERMES_FAULT_SEED=42 ./target/release/exp_crash > "$chaos_out"
    HERMES_FAULT_SEED=42 ./target/release/exp_crash > "$chaos_out2"
    cmp "$chaos_out" "$chaos_out2" \
      || { echo "crash storm not deterministic under HERMES_FAULT_SEED"; exit 1; }
    rm -f "$chaos_out" "$chaos_out2"
    echo "ok: chaos suite + seeded experiments deterministic"
}

stage_telemetry() {
    # A traced, fault-seeded exp_fig9 run must emit a well-formed
    # hermes-bench-report/1 document (DESIGN.md "Observability") with at
    # least six subsystems contributing, and a repeat run with the same
    # seeds must reproduce it byte-for-byte.
    local bench_dir
    bench_dir="$(mktemp -d)"
    HERMES_TRACE=1 HERMES_FAULT_SEED=7 HERMES_GIT_REV=ci \
        ./target/release/exp_fig9 --out "$bench_dir/a.json" >/dev/null
    HERMES_TRACE=1 HERMES_FAULT_SEED=7 HERMES_GIT_REV=ci \
        ./target/release/exp_fig9 --out "$bench_dir/b.json" >/dev/null
    cmp "$bench_dir/a.json" "$bench_dir/b.json" \
      || { echo "telemetry report not deterministic under HERMES_FAULT_SEED"; exit 1; }
    python3 - "$bench_dir/a.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "hermes-bench-report/1", doc.get("schema")
required = ["schema", "experiment", "git_rev", "telemetry_enabled", "meta",
            "counters", "gauges", "histograms", "series", "spans", "trace"]
missing = [k for k in required if k not in doc]
assert not missing, "missing report keys: %s" % missing
assert doc["experiment"] == "fig9"
assert doc["telemetry_enabled"] is True
subsystems = set()
for section in ("counters", "gauges", "histograms", "series"):
    subsystems.update(name.split(".")[0] for name in doc[section])
subsystems.update(span["subsystem"] for span in doc["spans"])
assert len(subsystems) >= 6, "only %s contributed" % sorted(subsystems)
print("ok: schema-valid, deterministic, subsystems: %s" % ", ".join(sorted(subsystems)))
PY
    rm -rf "$bench_dir"
}

stage_perfgate() {
    # Regenerate the gated experiments under the pinned environment
    # (bench_baselines/README.md) and compare their counters — exact
    # match — against the committed baselines. Wall-clock is ignored;
    # counter drift means behaviour changed and must be either fixed or
    # explicitly re-baselined via scripts/refresh_baselines.sh.
    cargo build --release --offline -q -p hermes-bench \
        --bin exp_fig9 --bin exp_tcam_micro --bin exp_scale --bin exp_crash \
        --bin exp_fleet
    local fresh_dir
    fresh_dir="$(mktemp -d)"
    local exp
    for exp in fig9 tcam_micro scale crash fleet; do
        HERMES_TRACE=1 HERMES_FAULT_SEED=7 HERMES_GIT_REV=baseline \
            "./target/release/exp_${exp}" --out "$fresh_dir/BENCH_${exp}.json" >/dev/null
    done
    python3 scripts/perfgate.py bench_baselines "$fresh_dir"
    rm -rf "$fresh_dir"
}

stage_matrix_smoke() {
    # Tier-2/3 perf gate: hermes-harness runs the gated scenarios from
    # the committed matrix — the four fast smokes (N=3 seeded reps each)
    # plus the full chaos-suite (N=5, fault plans armed), promoted from
    # ad-hoc coverage into the gated tier. The merged
    # hermes-matrix-report/1 summary is schema-validated, then BOTH
    # tolerance-band comparisons are BLOCKING: wall-clock medians against
    # bench_baselines/wallclock.json and peak-RSS medians against
    # bench_baselines/rss.json. A band breach fails CI and must be either
    # fixed or re-baselined via scripts/refresh_baselines.sh (DESIGN.md
    # §11).
    cargo build --release --offline -q -p hermes-harness --bin hermes-harness
    cargo build --release --offline -q -p hermes-bench \
        --bin exp_tcam_micro --bin exp_fig12 --bin exp_crash --bin exp_fleet
    local smoke_dir
    smoke_dir="$(mktemp -d)"
    ./target/release/hermes-harness \
        --matrix scenarios/matrix.toml \
        --bin-dir target/release \
        --out "$smoke_dir" \
        --scenarios smoke-tcam,smoke-chaos,smoke-crash,smoke-fleet,chaos-suite
    python3 - "$smoke_dir/matrix_report.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "hermes-matrix-report/1", doc.get("schema")
assert doc["kind"] == "full", doc.get("kind")
names = {sc["name"] for sc in doc["scenarios"]}
assert names == {"smoke-tcam", "smoke-chaos", "smoke-crash", "smoke-fleet",
                 "chaos-suite"}, names
for sc in doc["scenarios"]:
    assert sc["clean_reps"] == sc["runs"], (sc["name"], sc["errors"])
    assert sc["measured"]["wall_ms"]["p50"] > 0, sc["name"]
    assert sc["measured"]["max_rss_bytes"]["p50"] > 0, sc["name"]
    assert sc["merged"]["reports"] == sc["runs"], sc["name"]
print("ok: matrix report schema-valid, %d scenario(s) clean" % len(names))
PY
    python3 scripts/perfgate.py wallclock \
        bench_baselines/wallclock.json "$smoke_dir/matrix_report.json"
    python3 scripts/perfgate.py rss \
        bench_baselines/rss.json "$smoke_dir/matrix_report.json"
    rm -rf "$smoke_dir"
}

wanted() {
    local stage=$1
    [[ -z "${CI_STAGES:-}" ]] && return 0
    local s
    IFS=',' read -ra sel <<< "$CI_STAGES"
    for s in "${sel[@]}"; do
        [[ "$s" == "$stage" ]] && return 0
    done
    return 1
}

# Reject typoed stage names up front instead of silently skipping them.
if [[ -n "${CI_STAGES:-}" ]]; then
    IFS=',' read -ra sel <<< "$CI_STAGES"
    for s in "${sel[@]}"; do
        known=0
        for k in "${ALL_STAGES[@]}"; do [[ "$s" == "$k" ]] && known=1; done
        [[ $known == 1 ]] || { echo "unknown CI stage '$s' (known: ${ALL_STAGES[*]})"; exit 2; }
    done
fi

# Per-stage summary, printed on EVERY exit path (including a failing
# stage, thanks to `set -e` + the EXIT trap): one row per stage that ran
# with its verdict and wall-clock seconds, then the first failing stage
# by name so a red run can be triaged without scrolling.
SUM_NAME=()
SUM_STATUS=()
SUM_SECS=()
CURRENT_STAGE=""
CURRENT_T0=0

print_summary() {
    local code=$?
    trap - EXIT
    if [[ -n "$CURRENT_STAGE" ]]; then
        # The trap fired mid-stage: that stage is the failure.
        SUM_NAME+=("$CURRENT_STAGE")
        SUM_STATUS+=("FAIL")
        SUM_SECS+=($((SECONDS - CURRENT_T0)))
    fi
    if [[ ${#SUM_NAME[@]} -gt 0 ]]; then
        echo
        echo "== stage summary =="
        printf '%-14s %-6s %6s\n' stage result secs
        printf '%-14s %-6s %6s\n' ------------ ------ -----
        local i first_fail=""
        for i in "${!SUM_NAME[@]}"; do
            printf '%-14s %-6s %6s\n' "${SUM_NAME[$i]}" "${SUM_STATUS[$i]}" "${SUM_SECS[$i]}"
            [[ "${SUM_STATUS[$i]}" == FAIL && -z "$first_fail" ]] && first_fail="${SUM_NAME[$i]}"
        done
        if [[ -n "$first_fail" ]]; then
            echo "first failing stage: $first_fail"
        fi
    fi
    exit "$code"
}
trap print_summary EXIT

ran=0
for stage in "${ALL_STAGES[@]}"; do
    wanted "$stage" || continue
    echo "== $stage =="
    CURRENT_STAGE="$stage"
    CURRENT_T0=$SECONDS
    "stage_$stage"
    SUM_NAME+=("$stage")
    SUM_STATUS+=("ok")
    SUM_SECS+=($((SECONDS - CURRENT_T0)))
    CURRENT_STAGE=""
    echo "-- $stage done in $((SECONDS - CURRENT_T0))s --"
    ran=$((ran + 1))
done

echo "== ci green ($ran stage(s)) =="
