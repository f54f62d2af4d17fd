#!/usr/bin/env bash
# One-command correctness gate: tier-1 build + tests, the wflint static
# pass, a Release build, the wfbench build and self-test, and an ASan+UBSan
# test sweep. Mirrors what CI should run.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # tier-1 + wflint only (skip Release,
#                               # wfbench and sanitizers)
#   WF_CHECK_TSAN=1 scripts/check.sh   # additionally run TSan over the
#                                      # threaded platform suites
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${ROOT}"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1: configure + build (default preset, -Werror)"
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"

step "tier-1: ctest"
ctest --test-dir build --output-on-failure -j "${JOBS}"

# Allocation-count regression gate: the counting-operator-new test only
# registers in plain builds (sanitizers own operator new), and the full
# tier-1 ctest above already ran it — this re-run surfaces the per-document
# numbers in the check.sh log where they are easy to compare across PRs.
step "alloc gate: per-document allocation budget"
./build/tests/alloc_gate_test

# ctest never runs a bench binary; this smoke run keeps the mining phase of
# bench_platform_scaling (its executor thread sweep, the end-to-end
# MineAndIndexAll rows and the two-scale rows) executing, and checks the
# JSON it writes. The run happens in a temporary directory so
# BENCH_*.json never lands in the tree.
step "bench smoke: bench_platform_scaling (WF_BENCH_SMALL=1)"
BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "${BENCH_TMP}"' EXIT
(cd "${BENCH_TMP}" &&
  WF_BENCH_SMALL=1 "${ROOT}/build/bench/bench_platform_scaling" >/dev/null)
python3 - "${BENCH_TMP}/BENCH_mining.json" <<'PY'
import json, sys
sections = json.load(open(sys.argv[1]))["sections"]
assert sections["mining"] and sections["mine_and_index_e2e"], sections
scale = sections["mine_and_index_scale"]
assert len(scale) == 1 and scale[0]["us_per_doc_ratio"] > 0, scale
print("BENCH_mining.json: %d mining rows, %d e2e rows, us/doc ratio %.2f"
      % (len(sections["mining"]), len(sections["mine_and_index_e2e"]),
         scale[0]["us_per_doc_ratio"]))
PY

# bench_storage is the one bench that drives segment flushes and
# compactions at scale (1x/10x/100x the seed corpus, ~2 s), for the store
# and for index runs (a freeze every 600 docs, compaction at fanout 4).
# Its counts are a pure function of the seed, the run bytes and the
# size-tier policy, so the smoke run pins them: a changed flush, freeze or
# compaction schedule fails here.
step "bench smoke: bench_storage (WF_BENCH_SEED=42)"
(cd "${BENCH_TMP}" &&
  WF_BENCH_SEED=42 "${ROOT}/build/bench/bench_storage" >/dev/null)
python3 - "${BENCH_TMP}/BENCH_storage.json" <<'PY'
import json, sys
sections = json.load(open(sys.argv[1]))["sections"]
got = [(r["scale"], r["flushes"], r["compactions"], r["segments"])
       for r in sections["scale_sweep"]]
assert got == [(1, 1, 0, 1), (10, 14, 3, 5), (100, 150, 48, 6)], got
print("BENCH_storage.json: (scale, flushes, compactions, segments) %s" % got)
got = [(r["scale"], r["freezes"], r["compactions"], r["runs"])
       for r in sections["index_sweep"]]
assert got == [(1, 1, 0, 1), (10, 10, 2, 4), (100, 100, 32, 4)], got
print("BENCH_storage.json: (scale, freezes, compactions, runs) %s" % got)
PY

# E12 answers every subject twice on one cluster, from the offline index
# and by mining at query time (~35 ms). The two query services must agree
# on every row, and a "counts differ" row fails the gate.
step "bench smoke: bench_modeb_latency (offline vs runtime agreement)"
MODEB_OUT="$(cd "${BENCH_TMP}" && "${ROOT}/build/bench/bench_modeb_latency")"
if grep -q "counts differ" <<<"${MODEB_OUT}" ||
   ! grep -q "| yes " <<<"${MODEB_OUT}"; then
  echo "${MODEB_OUT}"
  echo "bench_modeb_latency: offline and runtime answers differ" >&2
  exit 1
fi
echo "bench_modeb_latency: $(grep -c '| yes ' <<<"${MODEB_OUT}") rows agree"

step "wflint: src/ + tests/"
./build/src/tools/wflint --report build/wflint-report.tsv src tests

# Thread-safety annotation check: the WF_GUARDED_BY/WF_REQUIRES macros
# (src/common/thread_annotations.h) only expand under Clang, so this pass
# is gated on a clang++ probe — on gcc-only hosts wflint's guarded-by rule
# remains the (approximate) backstop.
if command -v clang++ >/dev/null 2>&1; then
  step "clang -Wthread-safety: build (clang-tsafety preset)"
  cmake --preset clang-tsafety >/dev/null
  cmake --build --preset clang-tsafety -j "${JOBS}"
else
  echo "clang++ not found: skipping -Wthread-safety pass (wflint guarded-by rule still ran)"
fi

if [[ "${FAST}" == "1" ]]; then
  echo "--fast: skipping the Release build and sanitizer passes"
  exit 0
fi

# The optimizer sees through more inlining than the default
# RelWithDebInfo build, so some warnings only fire here.
step "Release: configure + build (-Werror)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DWF_WERROR=ON \
  >/dev/null
cmake --build build-release -j "${JOBS}"

# wfbench, the repository benchmark, is a CMake package of its own over
# src/, and nothing above builds it. Some src/ entry points are kept only
# for it (IndexEntity(entity, tokens), EntityMiner::Process(Entity&),
# wants_analysis(), the node/<i>/stats service), so a change that deletes
# one would pass every other step and break every benchmark run. The
# first run builds .bench_build/ (about 100 s).
step "wfbench: build + self-test"
python3 wfbench/run.py --self-test

# wfbench's traced run replays indexing and store commits over node 0's
# shard, fetched over node/0/fetch, and silently skips a reply it cannot
# decode: a fetch reply it no longer reads would zero those per-layer
# figures and fail nothing above. A one-second traced mine_shard run
# (~11 s) must stay correct and report both the fetch reply bytes and the
# replayed index cost.
step "wfbench: traced mine_shard decodes its fetch replies"
TRACE_RESULT="$(python3 wfbench/run.py --workload mine_shard --seed 11 \
  --seconds 1 --trace 1 | tail -n 1)"
python3 - "${TRACE_RESULT}" <<'PY'
import json, sys
result = json.loads(sys.argv[1])
metrics = result["metrics"]
fetch = metrics["platform.fetch_reply_bytes"]["value"]
index = metrics["platform.index_us_per_doc"]["value"]
assert result["correct"] is True, result
assert fetch > 0 and index > 0, (fetch, index)
print("traced mine_shard: correct, fetch reply %.1f B, index %.2f us/doc"
      % (fetch, index))
PY

step "ASan+UBSan: build + full suite (ctest -L sanitize)"
cmake -B build-asan -S . -DWF_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L sanitize

if [[ "${WF_CHECK_TSAN:-0}" == "1" ]]; then
  step "TSan: build + threaded platform suites"
  cmake -B build-tsan -S . -DWF_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}"
  # Run the threaded suites' binaries directly: ctest -R matches individual
  # gtest test names, not test-binary names, so a binary-name regex there
  # would silently select nothing.
  # obs_test is in the list deliberately: the lock-striped MetricsRegistry
  # and the tracer's concurrent span recording are the newest threaded code,
  # and its JSON checker doubles as the malformed-wfstats-export gate.
  # durability_test exercises the WAL/checkpoint layer under the node
  # mutex from the chaos harness's concurrent paths. parallel_mining_test
  # drives the MineExecutor pool and the per-entity miner chains from many
  # workers at once — the suite the determinism contract lives in.
  # serving_test hammers the front door's admission queue, coalescing
  # flights, and striped result cache from concurrent open-loop callers —
  # and now the hedged scatter, whose cancel-by-ignore stragglers are
  # exactly the lifetime hazard TSan exists to catch.
  # storage_test drives the LSM tree's single mutex from crash fuzz and
  # the 100x-corpus sweep — the newest lock the data path takes.
  # loadgen_test runs the kilo-user generator's worker pool against fake
  # doors, the scheduling heap's lock being its one shared structure.
  # arena_identity_test re-mines the seeded corpus at 1/2/4/8 workers and
  # compares byte fingerprints — racing the arena-backed artifacts across
  # the pool is precisely where a stale-view or unsynchronized-publish bug
  # in the new allocation scheme would surface.
  # query_fetch_test drives the batched fetch rounds and the scatters
  # beneath them over the bus's pool, under partitions and deadlines.
  for t in obs_test platform_test platform_miners_test property_test \
           robustness_test chaos_test durability_test storage_test \
           agreement_test integration_test parallel_mining_test \
           serving_test loadgen_test arena_identity_test common_test \
           query_fetch_test; do
    step "TSan: ${t}"
    "./build-tsan/tests/${t}"
  done
fi

echo
echo "check.sh: all passes green"
