#!/usr/bin/env bash
# CI gate: build, tests, lints, format, and a sanitizer smoke run.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1 suite)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> perfbench build + unit tests (a workspace of its own)"
# perfbench reads the simulator's public types; this keeps a change to
# them from surfacing only in the benchmark pipeline.
cargo test --offline --locked -q --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> committed figure artifacts regenerate byte for byte (figures all, fig8 --csv, shapecheck)"
FIG=$(mktemp -d)
cargo run --release -q -p ompx-bench --bin figures -- all >"$FIG/figures_all.txt"
cargo run --release -q -p ompx-bench --bin figures -- fig8 --csv "$FIG/fig8.csv" >/dev/null
cargo run --release -q -p ompx-bench --bin figures -- shapecheck >"$FIG/shapecheck.txt"
cmp "$FIG/figures_all.txt" results/figures_all.txt
cmp "$FIG/fig8.csv" results/fig8.csv
cmp "$FIG/shapecheck.txt" results/shapecheck.txt
rm -rf "$FIG"

echo "==> sanitize smoke run (all tools, stencil omp, test scale)"
cargo run --release -q -p ompx-bench --bin sanitize -- \
    --tool all --app stencil --version omp --test-scale

echo "==> sanitize smoke run (all tools, heap-to-shared scratch cell rsbench omp, test scale)"
# The one Figure 8 cell whose globalized scratch lives in shared memory:
# its accesses must reach every tool and be clean.
cargo run --release -q -p ompx-bench --bin sanitize -- \
    --tool all --app rsbench --version omp --test-scale

echo "==> sanitize smoke run (all tools, phased barrier cell stencil ompx, test scale)"
# sanitize exits non-zero on any finding: the phased cell must be clean.
cargo run --release -q -p ompx-bench --bin sanitize -- \
    --tool all --app stencil --version ompx --test-scale

echo "==> sanitize fixture check (memcheck must fire)"
if cargo run --release -q -p ompx-bench --bin sanitize -- \
    --tool memcheck --fixture oob-write >/dev/null; then
    echo "error: oob-write fixture reported no findings" >&2
    exit 1
fi

echo "==> analyze smoke run (all 6 apps x 4 versions, with replay, A100)"
cargo run --release -q -p ompx-bench --bin analyze -- --replay

echo "==> analyze replay, AMD leg (MI250, warp 64)"
cargo run --release -q -p ompx-bench --bin analyze -- --replay --system amd

echo "==> summary extraction, A100 leg (all 24 cells: fit, replay-validate, diff), full width vs 1 worker"
# The same leg at full worker width and at the reference serial width must
# write byte-identical reports.
EXT=$(mktemp -d)
OMPX_SIM_WORKERS="$(nproc)" cargo run --release -q -p ompx-bench --bin analyze -- \
    extract --json --out "$EXT/full.json" >/dev/null
OMPX_SIM_WORKERS=1 cargo run --release -q -p ompx-bench --bin analyze -- \
    extract --json --out "$EXT/one.json" >/dev/null
diff "$EXT/full.json" "$EXT/one.json"
rm -rf "$EXT"

echo "==> summary extraction, MI250 leg (warp 64)"
cargo run --release -q -p ompx-bench --bin analyze -- extract --diff --system amd

echo "==> analyze fixture check (barrier ordering mismatch must fire)"
if cargo run --release -q -p ompx-bench --bin analyze -- \
    --fixture barrier-wrong-order >/dev/null; then
    echo "error: barrier-wrong-order fixture reported no findings" >&2
    exit 1
fi

echo "==> analyze fixture check (non-affine gather must degrade to SummaryImprecise)"
# The fixture exits non-zero by design (it also carries real bounds
# errors), so capture the output rather than piping it under pipefail.
GATHER_OUT=$(cargo run --release -q -p ompx-bench --bin analyze -- \
    --fixture gather-nonaffine || true)
if ! grep -q SummaryImprecise <<<"$GATHER_OUT"; then
    echo "error: gather-nonaffine fixture did not surface SummaryImprecise" >&2
    exit 1
fi

echo "==> analyze fixture check (racecheck must fire)"
if cargo run --release -q -p ompx-bench --bin analyze -- \
    --fixture race-global >/dev/null; then
    echo "error: race-global fixture reported no findings" >&2
    exit 1
fi

echo "==> chaos smoke run (fixed seed, 5 schedules, full matrix, both systems)"
cargo run --release -q -p ompx-bench --bin chaos -- \
    --seed 20260807 --schedules 5 --test-scale >/dev/null

echo "==> chaos watchdog-partial smoke run (fixed seed, kind-pure schedules)"
cargo run --release -q -p ompx-bench --bin chaos -- \
    --seed 20260807 --schedules 3 --test-scale --only watchdog >/dev/null

echo "==> profile baseline gate + trace determinism gate (all apps x versions x both systems)"
# The gated run writes the first set of Chrome traces; an identical
# ungated run writes the second, and the two must be byte-identical.
PROF=$(mktemp -d)
cargo run --release -q -p ompx-bench --bin profile -- --test-scale \
    --baseline results/profile_baseline.json \
    --bench-out results/BENCH_prof.json --out-dir "$PROF/a" >/dev/null
cargo run --release -q -p ompx-bench --bin profile -- --test-scale \
    --out-dir "$PROF/b" >/dev/null
diff -r "$PROF/a" "$PROF/b"
rm -rf "$PROF"

echo "==> simspeed determinism + speed gate (24-cell matrix, serial vs parallel)"
cargo run --release -q -p ompx-bench --bin simspeed -- \
    --runs 1 --baseline results/BENCH_simspeed.json >/dev/null

echo "==> cross-thread determinism gate (two identical runs at full worker width, racy fixtures also at 1 worker)"
DET=$(mktemp -d)
for r in a b; do
    # sanitize exits non-zero on findings by design — the racy fixture is
    # the point here, the gate is the byte-diff below.
    OMPX_SIM_WORKERS="$(nproc)" cargo run --release -q -p ompx-bench --bin sanitize -- \
        --tool all --fixture shared-race --json --out "$DET/$r-san.json" >/dev/null || true
    OMPX_SIM_WORKERS="$(nproc)" cargo run --release -q -p ompx-bench --bin sanitize -- \
        --tool all --fixture global-race --json --out "$DET/$r-san-global.json" >/dev/null || true
    OMPX_SIM_WORKERS="$(nproc)" cargo run --release -q -p ompx-bench --bin analyze -- \
        extract --app stencil --version omp --json --out "$DET/$r-ext.json" >/dev/null
    # A phased barrier cell: its lanes run phase by phase on the block loop.
    OMPX_SIM_WORKERS="$(nproc)" cargo run --release -q -p ompx-bench --bin analyze -- \
        extract --app stencil --version ompx --json --out "$DET/$r-ext-phased.json" >/dev/null
done
# The racy fixtures at the reference serial width must report what they
# report at full width, the way the extraction leg compares its reports.
OMPX_SIM_WORKERS=1 cargo run --release -q -p ompx-bench --bin sanitize -- \
    --tool all --fixture shared-race --json --out "$DET/one-san.json" >/dev/null || true
OMPX_SIM_WORKERS=1 cargo run --release -q -p ompx-bench --bin sanitize -- \
    --tool all --fixture global-race --json --out "$DET/one-san-global.json" >/dev/null || true
diff "$DET/a-san.json" "$DET/b-san.json"
diff "$DET/a-san-global.json" "$DET/b-san-global.json"
diff "$DET/a-san.json" "$DET/one-san.json"
diff "$DET/a-san-global.json" "$DET/one-san-global.json"
diff "$DET/a-ext.json" "$DET/b-ext.json"
diff "$DET/a-ext-phased.json" "$DET/b-ext-phased.json"
rm -rf "$DET"

echo "==> serve smoke + baseline gate + metrics determinism gate (1000 clients, fixed seed, injected faults)"
# One gated run writes the first metrics snapshot; an identical ungated
# run writes the second, and the two must be bit-identical.
MET=$(mktemp -d)
cargo run --release -q -p ompx-bench --bin serve -- \
    --clients 1000 --tenants 8 \
    --baseline results/BENCH_serve.json \
    --metrics-out "$MET/a.prom" --metrics-json "$MET/a.json" >/dev/null
cargo run --release -q -p ompx-bench --bin serve -- \
    --clients 1000 --tenants 8 \
    --metrics-out "$MET/b.prom" --metrics-json "$MET/b.json" >/dev/null
diff "$MET/a.prom" "$MET/b.prom"
diff "$MET/a.json" "$MET/b.json"
for fam in serve_requests_total serve_latency_seconds fault_injected_total \
    sim_launches_total sim_memcpy_bytes_total \
    resilience_breaker_transitions_total resilience_hedges_total \
    resilience_spare_promotions_total resilience_deadline_miss_total \
    resilience_shed_total; do
    if ! grep -q "^$fam" "$MET/a.prom"; then
        echo "error: metrics snapshot is missing family $fam" >&2
        exit 1
    fi
done
rm -rf "$MET"

echo "==> sweep baseline gate (7 load factors, fixed seed)"
cargo run --release -q -p ompx-bench --bin serve -- \
    --clients 1000 --tenants 8 --sweep \
    --baseline results/BENCH_sweep.json >/dev/null

echo "==> chaos-escalation SLO gate + escalation determinism gate (5 fault-rate rungs, fixed seed)"
# One campaign feeds both gates: it is diffed against the committed
# baseline and written out as the first half of the determinism pair.
ESC=$(mktemp -d)
cargo run --release -q -p ompx-bench --bin serve -- \
    --clients 400 --tenants 8 --escalate \
    --baseline results/BENCH_resilience.json \
    --bench-out "$ESC/a.json" --csv-out "$ESC/a.csv" >/dev/null
cargo run --release -q -p ompx-bench --bin serve -- \
    --clients 400 --tenants 8 --escalate \
    --bench-out "$ESC/b.json" --csv-out "$ESC/b.csv" >/dev/null
diff "$ESC/a.json" "$ESC/b.json"
diff "$ESC/a.csv" "$ESC/b.csv"
rm -rf "$ESC"

echo "CI OK"
