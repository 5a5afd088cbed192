#!/usr/bin/env bash
# Repo-wide hygiene + correctness gate. Everything runs offline.
#
#   fmt    — no diffs allowed
#   clippy — workspace lints (Cargo.toml [workspace.lints]) as hard errors,
#            across every target (libs, bins, tests, benches, examples)
#   test   — the full workspace suite; note `--workspace`: a bare
#            `cargo test` at the root only tests the facade package
#   repeat — opt-in (CHECK_REPEAT=n): the full workspace suite n more
#            times, stopping at the first failing pass. A flaky test fails
#            here; a lost wakeup in the det scheduler hangs here
#   model  — opt-in (CHECK_MODEL=1): the concurrency lint (scripts/lint.sh:
#            relaxed-ok tags, std-primitive bans, recovery no-panic scan)
#            plus the bounded interleaving explorer over every model_* test
#            (DESIGN.md §11). MODEL_BUDGET overrides the per-scenario
#            schedule budget (default 256); each exploration echoes its
#            schedule/truncation counts
#   gate   — opt-in phases of the one `gate` binary (crates/bench/src/bin/
#            gate.rs), run after a single release build as one `gate` call
#            that regenerates the paper goldens at most three times:
#              CHECK_BENCH=1    wallclock: golden preflight, the timed 32:4
#                               suite, and the wall-clock regression check
#                               against the committed BENCH_wallclock.json
#              CHECK_SOAK=1     soak: empty-plan golden identity + fault matrix
#              CHECK_OBS=1      obs: charge-free identity, Figure-7 sums,
#                               span audit, Chrome-trace lint
#              CHECK_SERVICE=1  service: KvService + BankOltp gates
#              CHECK_SCALING=1  scaling: the 8x4/16x8 directory ladder
#              CHECK_DETPAR=1   detpar: det-engine worker identity
#              CHECK_XBACKEND=1 xbackend: mc/rdma/cxl round-trip gates
#            CASHMERE_JOBS bounds cell-level parallelism; see `gate`'s
#            module docs for every phase's checks
set -euo pipefail
cd "$(dirname "$0")/.."

repeat="${CHECK_REPEAT:-0}"
if [[ ! "$repeat" =~ ^[0-9]+$ ]]; then
    echo "CHECK_REPEAT must be a non-negative integer, got '$repeat'" >&2
    exit 2
fi

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo test --workspace --offline -q

for ((pass = 1; pass <= repeat; pass++)); do
    echo "repeat: workspace suite pass $pass/$repeat"
    cargo test --workspace --offline -q
done

if [[ "${CHECK_MODEL:-0}" == "1" ]]; then
    scripts/lint.sh
    echo "model: exploring interleavings (MODEL_BUDGET=${MODEL_BUDGET:-256} schedules per scenario)"
    MODEL_BUDGET="${MODEL_BUDGET:-256}" \
        cargo test --workspace --offline -q model_ -- --nocapture
fi

phases=()
[[ "${CHECK_BENCH:-0}" == "1" ]] && phases+=(wallclock)
[[ "${CHECK_SOAK:-0}" == "1" ]] && phases+=(soak)
[[ "${CHECK_OBS:-0}" == "1" ]] && phases+=(obs)
[[ "${CHECK_SERVICE:-0}" == "1" ]] && phases+=(service)
[[ "${CHECK_SCALING:-0}" == "1" ]] && phases+=(scaling)
[[ "${CHECK_DETPAR:-0}" == "1" ]] && phases+=(detpar)
[[ "${CHECK_XBACKEND:-0}" == "1" ]] && phases+=(xbackend)
if (( ${#phases[@]} > 0 )); then
    cargo build --release -p cashmere-bench --offline
    target/release/gate "${phases[@]}"
fi
