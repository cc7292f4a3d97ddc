#!/usr/bin/env bash
# Full local CI gate for the dsv workspace. Runs everything the tier-1
# verify runs, plus formatting, lints, the full workspace test matrix,
# bench/example compilation, bench smoke runs with JSON schema gates
# (including the e17 overlap-speedup gate, the e18 fleet keys x
# throughput gate, the e19 quiet-stream delta-shrink gate, and — in
# remote-feature jobs — the e20 pipelined-remote speedup gate), and
# rustdoc. Fails fast on
# the first broken step, and prints a per-step wall-clock summary at the
# end (also emitted to $GITHUB_STEP_SUMMARY under Actions) so gate-time
# regressions are visible in PRs.
#
# This script is the single source of truth for the gate; the GitHub
# workflow (.github/workflows/ci.yml) just checks out, installs a
# toolchain, and runs it — once per feature-matrix job:
#
#   ./ci.sh                            # default features
#   DSV_FEATURES=async-ingest ./ci.sh  # the async-ingest feature seam
#   DSV_FEATURES=remote ./ci.sh        # distributed shards + failover
#   DSV_FEATURES=async-ingest,remote ./ci.sh  # both seams combined
#
# DSV_STEP_BUDGET_SECS=<n> (default off) fails an otherwise-green run if
# any single step took longer than n seconds — the per-step wall clocks
# are also written to target/ci/ci_times.json for machine consumption.
set -euo pipefail
cd "$(dirname "$0")"

# Cargo feature flags for this run (the workflow matrix sets
# DSV_FEATURES; empty means default features, commas combine seams). The
# dsv facade forwards each feature to the member crates that implement it.
# Possibly-empty arrays are expanded with the ${arr[@]+"${arr[@]}"}
# idiom throughout: plain "${arr[@]}" on an empty array trips set -u on
# bash < 4.4 (e.g. the stock macOS /bin/bash 3.2). The %N in the timing
# code is GNU date; BSD date degrades it to whole seconds, gracefully.
FEATURE_FLAGS=()
# dsv-bench mirrors the facade's feature names (each forwarding to its
# dsv-engine/<feature> seam), so `-p dsv-bench` commands take
# DSV_FEATURES verbatim — feature resolution stays identical to the
# workspace-wide steps (no mid-gate feature flip, no redundant rebuild,
# and the bench/schema gates actually exercise the matrix job's
# configuration), while feature-gated bench targets (e20's
# required-features = ["remote"]) appear exactly when their seam is on.
BENCH_FEATURE_FLAGS=()
if [ -n "${DSV_FEATURES:-}" ]; then
    FEATURE_FLAGS=(--features "$DSV_FEATURES")
    BENCH_FEATURE_FLAGS=(--features "$DSV_FEATURES")
fi

# ---------------------------------------------------------------------------
# Per-step wall-clock timing. `step` closes the previous step; the EXIT
# trap closes the last one and prints the summary table (markdown to
# $GITHUB_STEP_SUMMARY when set), including on failure so a hung or slow
# step is visible in the log that killed the run.
# ---------------------------------------------------------------------------
STEP_NAMES=()
STEP_SECS=()
CUR_STEP=""
CUR_START=0
SCRIPT_START=$(date +%s.%N)

finish_step() {
    if [ -n "$CUR_STEP" ]; then
        STEP_NAMES+=("$CUR_STEP")
        STEP_SECS+=("$(echo "$(date +%s.%N) $CUR_START" | awk '{printf "%.1f", $1 - $2}')")
        CUR_STEP=""
    fi
}

step() {
    finish_step
    CUR_STEP="$*"
    CUR_START=$(date +%s.%N)
    printf '\n=== %s ===\n' "$*"
}

print_timings() {
    rc=$?
    finish_step
    total=$(echo "$(date +%s.%N) $SCRIPT_START" | awk '{printf "%.1f", $1 - $2}')
    printf '\n=== step timings (features: %s) ===\n' "${DSV_FEATURES:-default}"
    for i in ${STEP_NAMES[@]+"${!STEP_NAMES[@]}"}; do
        printf '%8ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
    done
    printf '%8ss  TOTAL%s\n' "$total" "$([ "$rc" -ne 0 ] && echo ' (FAILED)')"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        {
            printf '### ci.sh step timings (features: %s)\n\n' "${DSV_FEATURES:-default}"
            printf '| step | seconds |\n|---|---:|\n'
            for i in ${STEP_NAMES[@]+"${!STEP_NAMES[@]}"}; do
                printf '| %s | %s |\n' "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}"
            done
            printf '| **TOTAL%s** | **%s** |\n' "$([ "$rc" -ne 0 ] && echo ' (failed)')" "$total"
        } >> "$GITHUB_STEP_SUMMARY"
    fi
    # Machine-readable mirror of the table (step names are fixed strings
    # with no JSON-special characters). Written even on failure, so a
    # timing regression that kills the run still leaves its evidence.
    mkdir -p target/ci
    {
        printf '{"features": "%s", "failed": %s, "total_secs": %s, "steps": [' \
            "${DSV_FEATURES:-default}" "$([ "$rc" -ne 0 ] && echo true || echo false)" "$total"
        sep=""
        for i in ${STEP_NAMES[@]+"${!STEP_NAMES[@]}"}; do
            printf '%s{"name": "%s", "secs": %s}' "$sep" "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}"
            sep=", "
        done
        printf ']}\n'
    } > target/ci/ci_times.json
    # Optional per-step wall-clock budget: an otherwise-green run fails
    # if any single step exceeded DSV_STEP_BUDGET_SECS (default off), so
    # gate-time regressions break the build instead of creeping.
    if [ "$rc" -eq 0 ] && [ -n "${DSV_STEP_BUDGET_SECS:-}" ]; then
        for i in ${STEP_NAMES[@]+"${!STEP_NAMES[@]}"}; do
            if awk -v s="${STEP_SECS[$i]}" -v b="$DSV_STEP_BUDGET_SECS" \
                'BEGIN { exit !(s > b) }'; then
                printf 'ci.sh: STEP BUDGET EXCEEDED — "%s" took %ss (budget %ss)\n' \
                    "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}" "$DSV_STEP_BUDGET_SECS" >&2
                exit 1
            fi
        done
    fi
}
trap print_timings EXIT

# Resolve a dsv-bench bench binary through cargo itself (stale-proof:
# `ls -t target/.../name-*` picks outdated hashes after renames or
# toolchain bumps; the JSON compiler messages name the fresh artifact).
# The match is anchored to the exact target name — compiler-artifact
# lines only, `"name":"<target>",` with its closing delimiter — so a
# future bench named e.g. `e17_pipeline_ext` can never shadow
# `e17_pipeline` however the message fields are ordered.
# Never fails (so `set -e` can't kill the script before the caller's
# not-found diagnostic): a broken target yields an empty string and the
# compile error is replayed on stderr.
bench_bin() {
    if ! out=$(cargo bench --no-run --message-format=json -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bench "$1" 2>/tmp/bench_bin.err); then
        cat /tmp/bench_bin.err >&2
        return 0
    fi
    printf '%s' "$out" \
        | grep '"reason":"compiler-artifact"' \
        | grep "\"name\":\"$1\"[,}]" \
        | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' \
        | tail -1 \
        || true
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo build --release"
cargo build --release ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}

step "cargo build --no-default-features (feature-seam floor)"
# The workspace has no default features today; this keeps it that way —
# a dependency accidentally made non-optional or a cfg leak outside its
# feature gate fails here instead of rotting until someone flips flags.
cargo build --no-default-features

step "cargo clippy --workspace --all-targets (-D warnings)"
cargo clippy --workspace --all-targets ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"} -- -D warnings

step "cargo test --workspace -q (superset of the tier-1 'cargo test -q')"
cargo test --workspace -q ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}

if [ -z "${DSV_FEATURES:-}" ]; then
    step "perfbench tests (benchmark arithmetic + a tiny pass of every workload)"
    # The repository benchmark is its own package (perfbench/, with its
    # own lockfile and target dir). Its tests check the statistics the
    # benchmark reports and run every workload end to end at a tiny
    # scale, through run_pipelined, RemoteEngine and the fleet public
    # APIs. It enables the remote seam itself, so it does not depend on
    # the matrix features; the default-features job runs it once.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
fi

step "cargo build --release --examples"
cargo build --release --examples ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}

step "run 9 of the 11 examples (API regressions in non-test binaries fail here)"
# checkpoint_restore runs in its own gate step below; remote_failover is
# gated on the remote feature. pipelined_monitor asserts run_pipelined's
# bit-identity to run_parted and that fast feeds finish in a laggy
# feed's shadow, fleet_monitor asserts per-key fleet estimates are
# bit-identical to standalone trackers, and delta_checkpoint asserts the
# quiet-stream >= 10x shrink plus bit-identical mid-chain resume, so all
# three are gates in their own right.
for ex in quickstart compare_trackers network_monitor history_audit inventory_audit sharded_monitor pipelined_monitor fleet_monitor delta_checkpoint; do
    printf -- '-- example %s\n' "$ex"
    cargo run -q --release ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"} --example "$ex" > /dev/null
done

step "checkpoint/resume smoke gate (example checkpoint_restore)"
# Runs half the stream, checkpoints at a batch boundary, drops the
# engine, resumes from the serialized bytes onto a different worker
# count, and asserts the final estimates and CommStats ledgers are
# bit-identical to the straight-through run. Its asserts make it a gate
# (enforced like the e16 throughput gate); the full per-kind matrix
# lives in tests/engine_checkpoint.rs.
cargo run -q --release ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"} --example checkpoint_restore

case " ${DSV_FEATURES:-} " in *remote*)
    step "remote failover smoke gate (example remote_failover, 10th example)"
    # Spawns two dsv-shard-server worker processes behind a Unix-domain
    # socket (TCP loopback off unix), SIGKILLs one mid-stream, and asserts
    # the coordinator respawns the slot, restores from the last
    # auto-checkpoint, replays the gap, and ends bit-identical to the
    # in-process engine. The example's asserts make it a gate; the full
    # kind × transport × fault matrix lives in tests/remote_equivalence.rs
    # and tests/failover_injection.rs (run in the workspace-test step of
    # this matrix job via required-features).
    cargo run -q --release ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"} --example remote_failover > /dev/null
    ;;
esac

step "cargo bench --no-run (compile all 22 bench targets)"
# Workspace-wide compile of every bench target, plus an explicit
# `-p dsv-bench` pass so feature-gated targets (e20_remote, behind
# dsv-bench's `remote` mirror feature) compile in the matrix jobs whose
# seam they need — the facade-level --features flag doesn't reach
# dsv-bench's own feature list.
cargo bench --no-run --workspace ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}
cargo bench --no-run -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"}

step "1s smoke run of one e* bench binary"
# The e* binaries are full experiments; a 1-second slice is enough to
# catch panics on their startup path. timeout exit 124 (alarm fired
# while the bench was still happily running) counts as success.
e11_bin=$(bench_bin e11_single_site)
[ -n "$e11_bin" ] || { echo "e11 bench binary not found"; exit 1; }
rc=0
timeout 1s "$e11_bin" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 124 ]; then
    echo "bench smoke run failed with exit code $rc"
    exit 1
fi

step "e16 throughput smoke + consolidation gate + BENCH json schema gate"
# Full e16 sweep in --smoke mode (400k updates) writing machine-readable
# results, then the schema gate: non-empty stream/row tables, finite
# positive throughput numbers. The binary itself enforces the
# consolidation gate (S=8 monotone consolidated/parted >= 1.3x) on full
# runs before writing any JSON; bench_schema re-enforces the recorded
# gate on the committed BENCH_e16.json (full 10M run), so the artifact
# can neither regress below the floor nor weaken it.
e16_bin=$(bench_bin e16_throughput)
[ -n "$e16_bin" ] || { echo "e16 bench binary not found"; exit 1; }
mkdir -p target/ci
"$e16_bin" --smoke --out target/ci/BENCH_e16.json > /dev/null
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e16.json
if [ -f BENCH_e16.json ]; then
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e16.json
fi

step "e17 pipeline smoke + overlap gate + BENCH json schema gate"
# The pipelined-ingestion experiment in --smoke mode. The binary itself
# enforces the overlap gate (slow-feed speedup >= 1.25x, smoke runs
# included — the overlap is production concurrency, which needs no
# second core) and asserts pipelined/sync bit-identity before any
# timing; bench_schema then re-enforces the recorded gate on both the
# fresh artifact and the committed full run, so a regression can't hide
# in either.
e17_bin=$(bench_bin e17_pipeline)
[ -n "$e17_bin" ] || { echo "e17 bench binary not found"; exit 1; }
"$e17_bin" --smoke --out target/ci/BENCH_e17.json > /dev/null
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e17.json
if [ -f BENCH_e17.json ]; then
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e17.json
fi

step "e18 fleet smoke + BENCH json schema + keys x throughput gate"
# The keyed-fleet scale experiment in --smoke mode (64k keys): exercises
# the cold-insert and steady phases, the per-key epsilon audits, and the
# standalone-twin bit-identity asserts. The scale gate itself (>= 1M
# live keys at >= 1e7 updates/sec) binds on full runs; bench_schema
# re-enforces it on the committed BENCH_e18.json, so the tracked
# artifact can neither regress nor weaken its own gates.
e18_bin=$(bench_bin e18_fleet)
[ -n "$e18_bin" ] || { echo "e18 bench binary not found"; exit 1; }
"$e18_bin" --smoke --out target/ci/BENCH_e18.json > /dev/null
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e18.json
if [ -f BENCH_e18.json ]; then
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e18.json
fi

step "e19 incremental-checkpoint smoke + BENCH json schema + shrink gate"
# The delta-encoded checkpoint store experiment in --smoke mode (24
# boundaries per scenario): materializes every retained boundary and
# asserts bit-identity before any byte count is believed. The >= 10x
# quiet-stream shrink gate is structural (an encoding property, not a
# machine-speed one), so the binary enforces it on smoke runs too — no
# JSON is written on failure — and bench_schema re-enforces it on both
# the fresh artifact and the committed BENCH_e19.json.
e19_bin=$(bench_bin e19_checkpoint)
[ -n "$e19_bin" ] || { echo "e19 bench binary not found"; exit 1; }
"$e19_bin" --smoke --out target/ci/BENCH_e19.json > /dev/null
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e19.json
if [ -f BENCH_e19.json ]; then
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e19.json
fi

case " ${DSV_FEATURES:-} " in *remote*)
    step "e20 remote-ingestion smoke + BENCH json schema + pipelining gate"
    # The socket-tax experiment in --smoke mode: RemoteEngine throughput
    # across rounds_per_frame {1,4,16} x {uds,tcp} x {threads,processes},
    # every run audited bit-identical to the in-process engine before its
    # timing is believed. The binary enforces the >= 1.3x pipelined-over-
    # sync gate on the TCP/processes combo (round-trip elimination is
    # protocol-structural, so it binds on smoke too) before writing any
    # JSON; bench_schema re-enforces it — plus the frames-fall-as-rpf-
    # rises amortization signature — on the fresh artifact and on the
    # committed BENCH_e20.json. DSV_SHARD_SERVER_BIN pins the worker
    # binary to the artifact this very gate just built.
    e20_bin=$(bench_bin e20_remote)
    [ -n "$e20_bin" ] || { echo "e20 bench binary not found"; exit 1; }
    DSV_SHARD_SERVER_BIN=target/release/dsv-shard-server \
        "$e20_bin" --smoke --out target/ci/BENCH_e20.json > /dev/null
    cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- target/ci/BENCH_e20.json
    if [ -f BENCH_e20.json ]; then
        cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- BENCH_e20.json
    fi
    ;;
esac

step "bench_schema --all (every committed BENCH_*.json)"
# Safety net over the per-experiment steps above: glob-validate every
# committed artifact at the repo root in one pass, so a newly added
# BENCH_*.json is schema- and gate-checked from the moment it lands even
# if its dedicated ci.sh step is forgotten.
cargo run -q --release -p dsv-bench ${BENCH_FEATURE_FLAGS[@]+"${BENCH_FEATURE_FLAGS[@]}"} --bin bench_schema -- --all

step "cargo doc --no-deps --workspace (warning-free)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace ${FEATURE_FLAGS[@]+"${FEATURE_FLAGS[@]}"}

printf '\nCI green.\n'
