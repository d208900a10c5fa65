#!/usr/bin/env bash
# Release-build smoke suite for the CLI and the serving stack, extracted from
# .github/workflows/ci.yml so the exact checks CI runs are runnable locally:
#
#   tools/ci_smoke.sh                     # everything, against ./build
#   tools/ci_smoke.sh --build-dir out     # everything, against ./out
#   tools/ci_smoke.sh cli coldtier        # selected sections, in this order
#
# Sections (the default runs all of them, in this order):
#   cli       build/query/verify/stats/snapshot/serve round trips (the
#             built road snapshot must be level-sliced, v4), the
#             compressed snapshot + cold-tier answer-CRC equivalence, sharded
#             serving
#   crash     snapshot rewrite crashed at the commit point leaves the old
#             file byte-identical and still serving
#   net       TCP serving: query families over a live socket, graph-less
#             server refuses kPath cleanly
#   reactors  SO_REUSEPORT per-core serving answers match
#   live      delta + offline update + SIGHUP hot reload, crash-safe update,
#             a compressed base updating exactly like its flat twin, and a
#             chained two-record delta invalidating a cached INF
#   manifest  planned shard set served over TCP, SIGTERM graceful drain
#   degraded  corrupt shard: strict open refuses, --quarantine serves the rest
#   coldtier  memory-capped cold-tier proof: under a ulimit -v cap the flat
#             snapshot cannot even mmap while --cold-tier answers 20k
#             verified queries with the flat backend's exact answer CRC
#
# Sections reuse fixtures written by earlier ones; every section makes the
# fixtures it needs, so any subset works. `degraded` corrupts the planned
# shard set in place, so run it after (or instead of) `manifest`.
set -euo pipefail

BUILD_DIR=build
SECTIONS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift 2 ;;
    --build-dir=*) BUILD_DIR=${1#*=}; shift ;;
    -h|--help)
      sed -n '2,30p' "$0" | sed 's/^# \{0,1\}//'
      exit 0 ;;
    *) SECTIONS+=("$1"); shift ;;
  esac
done

CLI=$BUILD_DIR/wcsd_cli
if [ ! -x "$CLI" ]; then
  echo "ci_smoke: $CLI not found (build the Release tree first)" >&2
  exit 1
fi

banner() { printf '\n=== ci_smoke: %s ===\n' "$1"; }

# Pulls the answer CRC out of a `serve` batch report; the same --seed over
# the same snapshot contents must produce the same CRC on every backend.
crc_of() { sed -n 's/.*answers crc32c=\([0-9a-f]*\).*/\1/p'; }

# Pulls the recorded base fingerprint out of a `delta` report.
fingerprint_of() { sed -n 's/.*base fingerprint \([0-9a-f]*\).*/\1/p'; }

# Base fixtures shared by every section: a small road graph, its snapshot
# (what `build` writes: level-sliced for this graph), a compressed
# re-encode of it, an even
# 3-shard split, and a planned (label-mass-balanced) shard set. Idempotent.
make_fixtures() {
  if [ ! -f ci.wcsnap ]; then
    "$CLI" generate --out=ci.edges --kind=road --n=400 --levels=5
    "$CLI" build --graph=ci.edges --index=ci.wcsnap --threads=0
  fi
  [ -f ci_c.wcsnap ] || "$CLI" snapshot --index=ci.wcsnap --out=ci_c.wcsnap --compress
  [ -f ci.manifest ] || "$CLI" shard --index=ci.wcsnap --out=ci --shards=3 --even
  [ -f ci_planned.manifest ] || "$CLI" shard --index=ci.wcsnap --out=ci_planned --shards=3
}

section_cli() {
  banner "CLI round trips"
  make_fixtures
  "$CLI" query --index=ci.wcsnap --s=1 --t=42 --w=2
  "$CLI" query --index=ci.wcsnap --s=1 --w=2 --topk=5
  "$CLI" query --index=ci.wcsnap --s=1 --t=42 --profile --thresholds=1,2,3,4,5
  "$CLI" query --index=ci.wcsnap --s=1 --t=42 --w=2 --path --graph=ci.edges
  "$CLI" verify --graph=ci.edges --index=ci.wcsnap
  "$CLI" verify --graph=ci.edges --index=ci_c.wcsnap
  # The road fixture's slices are smaller than its flat arrays, so `build`
  # writes them; both stats and serve name the form they read.
  out=$("$CLI" stats --index=ci.wcsnap)
  echo "$out"
  grep -qx 'label form: sliced' <<<"$out"
  out=$("$CLI" stats --index=ci_c.wcsnap)
  echo "$out"
  grep -qx 'label form: compressed' <<<"$out"
  # Decompressing the compressed re-encode gives back the built file: the
  # writer picks the sliced form again from the same labels.
  "$CLI" snapshot --index=ci_c.wcsnap --out=ci_d.wcsnap
  cmp ci_d.wcsnap ci.wcsnap
  out=$("$CLI" serve --snapshot=ci.wcsnap --queries=20000 --threads=2 --verify)
  echo "$out"
  grep -qx 'label form: sliced' <<<"$out"
  "$CLI" serve --snapshot=ci.wcsnap --queries=20000 --threads=2 --cache-mb=8
  "$CLI" serve --snapshot=ci.shard0,ci.shard1,ci.shard2 --queries=20000
  "$CLI" serve --snapshot=ci.wcsnap --verify-level=directory --queries=1000
  "$CLI" serve --manifest=ci_planned.manifest --queries=20000 --verify --cache-mb=8
  "$CLI" query --manifest=ci_planned.manifest --s=1 --t=42 --w=2 --cache-mb=4
  "$CLI" query --manifest=ci_planned.manifest --s=1 --w=2 --topk=5
  "$CLI" query --manifest=ci_planned.manifest --s=1 --t=42 --profile --thresholds=1,2,3,4,5
  "$CLI" query --manifest=ci_planned.manifest --s=1 --t=42 --w=2 --path --graph=ci.edges

  banner "compressed snapshot + cold tier answer CRCs"
  flat_crc=$("$CLI" serve --snapshot=ci.wcsnap --queries=20000 --seed=11 --verify | tee /dev/stderr | crc_of)
  comp_crc=$("$CLI" serve --snapshot=ci_c.wcsnap --queries=20000 --seed=11 --verify | tee /dev/stderr | crc_of)
  cold_crc=$("$CLI" serve --snapshot=ci_c.wcsnap --cold-tier --decode-cache-mb=8 \
    --queries=20000 --seed=11 --verify | tee /dev/stderr | crc_of)
  test -n "$flat_crc"
  test "$flat_crc" = "$comp_crc"
  test "$flat_crc" = "$cold_crc"
  # A compressed planned shard set serves the same workload bit-identically.
  [ -f ci_cplanned.manifest ] || "$CLI" shard --index=ci.wcsnap --out=ci_cplanned --shards=3 --compress
  cshard_crc=$("$CLI" serve --manifest=ci_cplanned.manifest --queries=20000 --seed=11 --verify \
    | tee /dev/stderr | crc_of)
  test "$flat_crc" = "$cshard_crc"
  # Behind a decode cache (Query+ level slices), and with a result cache in
  # front of it too (whole decoded labels for the interval merge): the
  # same answers.
  cslice_crc=$("$CLI" serve --manifest=ci_cplanned.manifest --decode-cache-mb=1 \
    --queries=20000 --seed=11 --verify | tee /dev/stderr | crc_of)
  test "$flat_crc" = "$cslice_crc"
  cwhole_crc=$("$CLI" serve --manifest=ci_cplanned.manifest --decode-cache-mb=1 \
    --cache-mb=8 --queries=20000 --seed=11 --verify | tee /dev/stderr | crc_of)
  test "$flat_crc" = "$cwhole_crc"
  # --cold-tier on an uncompressed snapshot must be refused, not silently flat.
  if "$CLI" serve --snapshot=ci.wcsnap --cold-tier --queries=100; then
    echo "cold-tier serving unexpectedly accepted an uncompressed snapshot"
    exit 1
  fi
}

section_crash() {
  banner "crash-safe snapshot rewrite"
  make_fixtures
  cp ci.wcsnap ci_before.wcsnap
  set +e
  WCSD_FAILPOINTS="atomic_file.rename=crash" \
    "$CLI" snapshot --index=ci.wcsnap --out=ci.wcsnap
  status=$?
  set -e
  test "$status" -eq 42
  cmp ci.wcsnap ci_before.wcsnap
  # The crash fired before the rename: the staged temp file is the only
  # debris, and the commit point was never reached.
  ls ci.wcsnap.tmp.* >/dev/null
  rm -f ci.wcsnap.tmp.*
  "$CLI" serve --snapshot=ci.wcsnap --queries=5000 --verify
  # Recovery: a clean rewrite over the survivor must succeed.
  "$CLI" snapshot --index=ci.wcsnap --out=ci.wcsnap
  "$CLI" serve --snapshot=ci.wcsnap --queries=5000 --verify
}

section_net() {
  banner "network serving"
  make_fixtures
  "$CLI" serve --snapshot=ci.wcsnap --listen=39117 --threads=2 --cache-mb=8 \
    --graph=ci.edges \
    --idle-timeout-ms=20000 --header-timeout-ms=5000 --request-deadline-ms=10000 \
    --max-seconds=30 &
  server_pid=$!
  sleep 2
  "$CLI" query --connect=127.0.0.1:39117 --s=1 --t=42 --w=2 --deadline-ms=5000 --retries=2
  "$CLI" query --connect=127.0.0.1:39117 --s=0 --t=399 --w=5
  # The three v6 query families, round-tripped over the live socket.
  "$CLI" query --connect=127.0.0.1:39117 --s=1 --w=2 --topk=5
  "$CLI" query --connect=127.0.0.1:39117 --s=1 --t=42 --profile --thresholds=1,2,3,4,5
  "$CLI" query --connect=127.0.0.1:39117 --s=1 --t=42 --w=2 --path
  kill -INT "$server_pid"
  wait "$server_pid"
  # A server started WITHOUT --graph must refuse kPath frames cleanly
  # (kNotSupported), not drop the connection.
  "$CLI" serve --snapshot=ci.wcsnap --listen=39121 --max-seconds=30 &
  server_pid=$!
  sleep 2
  if "$CLI" query --connect=127.0.0.1:39121 --s=1 --t=42 --w=2 --path; then
    echo "graph-less server unexpectedly served a path"
    exit 1
  fi
  "$CLI" query --connect=127.0.0.1:39121 --s=1 --t=42 --w=2
  kill -INT "$server_pid"
  wait "$server_pid"
}

section_reactors() {
  banner "per-core serving (--reactors 2)"
  make_fixtures
  "$CLI" serve --snapshot=ci.wcsnap --listen=39120 --reactors=2 \
    --cache-mb=8 --max-seconds=30 &
  server_pid=$!
  sleep 2
  "$CLI" query --connect=127.0.0.1:39120 --s=1 --t=42 --w=2
  "$CLI" query --connect=127.0.0.1:39120 --s=0 --t=399 --w=5
  kill -INT "$server_pid"
  wait "$server_pid"
}

section_live() {
  banner "live-update serving (delta + update + hot reload)"
  make_fixtures
  cp ci.wcsnap ci_live.wcsnap
  cp ci.edges ci_live.edges
  "$CLI" serve --snapshot=ci_live.wcsnap --listen=39119 --watch \
    --cache-mb=4 --max-seconds=60 &
  server_pid=$!
  sleep 2
  dist() { "$CLI" query --connect=127.0.0.1:39119 --s=1 --t=42 --w=2 \
    | sed -E 's/.*\) = ([0-9]+|inf).*/\1/'; }
  before=$(dist)
  echo "before: dist = $before"
  "$CLI" delta --out=ci.delta --base-snapshot=ci_live.wcsnap --add=1,42,5
  "$CLI" update --snapshot=ci_live.wcsnap --graph=ci_live.edges \
    --delta=ci.delta --out=ci_live.wcsnap --out-graph=ci_live.edges
  kill -HUP "$server_pid"
  sleep 2
  after=$(dist)
  echo "after: dist = $after"
  # The inserted quality-5 edge makes dist(1, 42 | w >= 2) = 1.
  test "$before" != "$after"
  test "$after" = "1"
  kill -INT "$server_pid"
  wait "$server_pid" || true
  # Crash safety: an update that dies at the rename commit point
  # (deterministic failpoint, exit 42) leaves the old snapshot
  # byte-identical.
  cp ci_live.wcsnap ci_live_before.wcsnap
  "$CLI" delta --out=ci2.delta --base-snapshot=ci_live.wcsnap --add=5,200,4
  set +e
  WCSD_FAILPOINTS="atomic_file.rename=crash" \
    "$CLI" update --snapshot=ci_live.wcsnap --graph=ci_live.edges \
      --delta=ci2.delta --out=ci_live.wcsnap
  status=$?
  set -e
  test "$status" -eq 42
  cmp ci_live.wcsnap ci_live_before.wcsnap
  rm -f ci_live.wcsnap.tmp.*
  # A delta authored against a superseded snapshot must be refused.
  if "$CLI" update --snapshot=ci.wcsnap --graph=ci.edges \
      --delta=ci2.delta --out=ci_stale.wcsnap; then
    echo "update unexpectedly accepted a mismatched base fingerprint"
    exit 1
  fi
  # A compressed (v3) base updates exactly like its flat twin: the delta
  # records the same base fingerprint, and the update succeeds, stays
  # compressed, and serves the flat update's answers.
  flat_fp=$("$CLI" delta --out=ci_f.delta --base-snapshot=ci.wcsnap --add=1,42,5 | fingerprint_of)
  comp_fp=$("$CLI" delta --out=ci_c.delta --base-snapshot=ci_c.wcsnap --add=1,42,5 | fingerprint_of)
  echo "base fingerprints: flat $flat_fp, compressed $comp_fp"
  test -n "$flat_fp"
  test "$flat_fp" = "$comp_fp"
  "$CLI" update --snapshot=ci.wcsnap --graph=ci.edges --delta=ci_f.delta --out=ci_fu.wcsnap
  "$CLI" update --snapshot=ci_c.wcsnap --graph=ci.edges --delta=ci_c.delta --out=ci_cu.wcsnap
  fu_crc=$("$CLI" serve --snapshot=ci_fu.wcsnap --queries=20000 --seed=11 --verify | tee /dev/stderr | crc_of)
  cu_out=$("$CLI" serve --snapshot=ci_cu.wcsnap --queries=20000 --seed=11 --verify | tee /dev/stderr)
  test -n "$fu_crc"
  test "$fu_crc" = "$(printf '%s\n' "$cu_out" | crc_of)"
  printf '%s\n' "$cu_out" | grep -q "^compressed labels"
  # A two-record delta whose inserts chain into a new path: 0-1, 2-3 and
  # 4-5 stay apart until 1-2 and 3-4 arrive, and neither insert alone is
  # reachable from both 0 and 5 in the old index. The INF the server
  # cached for (0, 5) must not survive the delta-scoped invalidation.
  printf '0 1 5\n2 3 5\n4 5 5\n' > chain.edges
  "$CLI" build --graph=chain.edges --index=chain.wcsnap
  "$CLI" serve --snapshot=chain.wcsnap --listen=39122 --watch \
    --delta=chain.delta --cache-mb=1 --max-seconds=60 &
  server_pid=$!
  sleep 2
  chain_dist() { "$CLI" query --connect=127.0.0.1:39122 --s=0 --t=5 --w=1 \
    | sed -E 's/.*\) = ([0-9]+|INF).*/\1/'; }
  chain_before=$(chain_dist)
  echo "chain before: dist = $chain_before"
  "$CLI" delta --out=chain.delta --base-snapshot=chain.wcsnap --add='1,2,5;3,4,5'
  "$CLI" update --snapshot=chain.wcsnap --graph=chain.edges \
    --delta=chain.delta --out=chain.wcsnap
  kill -HUP "$server_pid"
  sleep 2
  chain_after=$(chain_dist)
  chain_local=$("$CLI" query --index=chain.wcsnap --s=0 --t=5 --w=1 \
    | sed -E 's/.*\) = ([0-9]+|INF).*/\1/')
  echo "chain after: dist = $chain_after (local: $chain_local)"
  kill -INT "$server_pid"
  wait "$server_pid" || true
  test "$chain_before" = "INF"
  test "$chain_local" = "5"
  test "$chain_after" = "$chain_local"
}

section_manifest() {
  banner "manifest-sharded network serving"
  make_fixtures
  "$CLI" serve --manifest=ci_planned.manifest --listen=39118 --threads=2 \
    --drain-ms=3000 --max-seconds=30 &
  server_pid=$!
  sleep 2
  "$CLI" query --connect=127.0.0.1:39118 --s=1 --t=42 --w=2
  "$CLI" query --connect=127.0.0.1:39118 --s=0 --t=399 --w=5
  kill -TERM "$server_pid"
  wait "$server_pid"
}

section_degraded() {
  banner "degraded serving (quarantined shard)"
  make_fixtures
  printf 'XXXXXXXX' | dd of=ci_planned.shard1 bs=1 seek=24 conv=notrunc
  if "$CLI" serve --manifest=ci_planned.manifest --queries=1000; then
    echo "strict open unexpectedly succeeded on a corrupt shard"
    exit 1
  fi
  "$CLI" serve --manifest=ci_planned.manifest --quarantine --queries=20000 | tee degraded.out
  grep -q "DEGRADED: 1 of 3 shards quarantined" degraded.out
  "$CLI" serve --manifest=ci_planned.manifest --quarantine \
    --fallback-graph=ci.edges --queries=20000 | tee fallback.out
  grep -q "answered online via the fallback graph" fallback.out
}

# Memory-capped cold-tier smoke. The ~20k-vertex road index carries ~5.7M
# label entries: ~94 MiB as a flat snapshot, ~19 MiB compressed. Under a
# 64 MiB `ulimit -v` cap (RLIMIT_AS counts file-backed mmap) the flat
# snapshot cannot even map, while --cold-tier pages compressed groups in
# on demand and answers 20k --verify'd queries whose CRC matches the
# uncapped flat backend exactly.
section_coldtier() {
  banner "memory-capped cold-tier serving"
  CAP_KB=65536
  if [ ! -f mem.wcsnap ]; then
    "$CLI" generate --out=mem.edges --kind=road --n=20000 --levels=5
    "$CLI" build --graph=mem.edges --index=mem.wcsnap --threads=0
  fi
  [ -f mem_c.wcsnap ] || "$CLI" snapshot --index=mem.wcsnap --out=mem_c.wcsnap --compress
  ls -la mem.wcsnap mem_c.wcsnap
  # Reference answers from the uncapped flat backend.
  flat_crc=$("$CLI" serve --snapshot=mem.wcsnap --queries=20000 --seed=7 --verify \
    | tee /dev/stderr | crc_of)
  test -n "$flat_crc"
  # The flat snapshot must not fit under the cap: the working set IS the cap's
  # point. (ulimit applies inside the subshell only.) RLIMIT_AS also counts
  # each thread's stack reservation, 8 MiB by default, so at the default
  # --threads on a multi-core host the serve's worker threads alone would
  # exhaust the cap; 1 MiB stacks keep it a cap on label memory.
  if (ulimit -s 1024 && ulimit -v "$CAP_KB" && "$CLI" serve --snapshot=mem.wcsnap --queries=100 --seed=7); then
    echo "flat serving unexpectedly fit under the ${CAP_KB} kB cap"
    exit 1
  fi
  # Cold-tier serving under the same cap answers the full workload,
  # --verify clean, with the exact flat-backend CRC.
  cold_out=$( (ulimit -s 1024 && ulimit -v "$CAP_KB" && "$CLI" serve --snapshot=mem_c.wcsnap \
    --cold-tier --decode-cache-mb=8 --queries=20000 --seed=7 --verify) | tee /dev/stderr )
  cold_crc=$(printf '%s\n' "$cold_out" | crc_of)
  test "$flat_crc" = "$cold_crc"
  # The decode cache actually ran cold: page-ins must be reported.
  printf '%s\n' "$cold_out" | grep -q "cold page-ins"
}

ALL_SECTIONS=(cli crash net reactors live manifest degraded coldtier)
if [ ${#SECTIONS[@]} -eq 0 ]; then
  SECTIONS=("${ALL_SECTIONS[@]}")
fi
for section in "${SECTIONS[@]}"; do
  case " ${ALL_SECTIONS[*]} " in
    *" $section "*) "section_$section" ;;
    *) echo "ci_smoke: unknown section '$section'" >&2; exit 1 ;;
  esac
done
printf '\nci_smoke: all sections passed: %s\n' "${SECTIONS[*]}"
