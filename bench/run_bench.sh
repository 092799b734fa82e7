#!/usr/bin/env bash
# Runs the tabulation and serving-side query benchmark harnesses and
# records BENCH_tabulation.json + BENCH_query.json at the repo root -
# the bench trajectories consumed by CI's perf-smoke job and by humans
# comparing PRs.
#
# Usage: bench/run_bench.sh [build-dir] [-- extra bench args]
# Extra args go to both binaries (each ignores the other's flags).
# Default build dir: build-release if present, else build.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-}"
if [ -z "${BUILD_DIR}" ]; then
  if [ -d "${REPO_ROOT}/build-release" ]; then
    BUILD_DIR="${REPO_ROOT}/build-release"
  else
    BUILD_DIR="${REPO_ROOT}/build"
  fi
fi

BENCH="${BUILD_DIR}/bench/bench_tabulation"
if [ ! -x "${BENCH}" ]; then
  echo "error: ${BENCH} not built (cmake --build ${BUILD_DIR} --target bench_tabulation)" >&2
  exit 2
fi

shift || true
[ "${1:-}" = "--" ] && shift

# A failed --check guard in one binary must not keep the other from
# running: record each exit status and exit with the first nonzero one
# at the end.
STATUS=0
OUT="${REPO_ROOT}/BENCH_tabulation.json"
"${BENCH}" --json "${OUT}" "$@" || STATUS=$?
if [ "${STATUS}" -ne 0 ]; then
  echo "error: bench_tabulation exited ${STATUS}; running bench_query anyway" >&2
fi
echo "wrote ${OUT}"

# One-line geomean summary. parallel_speedup is null (not a number) when
# the pool resolved to a single worker and the A/B was skipped.
GEOMEAN_LINE="$(grep -o '"geomean": {[^}]*}' "${OUT}" || true)"
if [ -n "${GEOMEAN_LINE}" ]; then
  SERIAL="$(printf '%s' "${GEOMEAN_LINE}" | grep -o '"serial_build_ms": [0-9.eE+-]*' | cut -d' ' -f2 || true)"
  SPEEDUP="$(printf '%s' "${GEOMEAN_LINE}" | grep -o '"parallel_speedup": [0-9.eE+-]*' | cut -d' ' -f2 || true)"
  BYTES="$(printf '%s' "${GEOMEAN_LINE}" | grep -o '"table_bytes": [0-9.eE+-]*' | cut -d' ' -f2 || true)"
  # snapshot_load_ms appeared with the persistence subsystem; tolerate
  # its absence so the script still summarizes older JSON files.
  SNAPLOAD="$(printf '%s' "${GEOMEAN_LINE}" | grep -o '"snapshot_load_ms": [0-9.eE+-]*' | cut -d' ' -f2 || true)"
  SUMMARY="geomean: serial ${SERIAL:-?} ms"
  if [ -n "${SPEEDUP}" ]; then
    SUMMARY="${SUMMARY}, parallel speedup x${SPEEDUP}"
  else
    SUMMARY="${SUMMARY}, parallel speedup n/a (1-worker pool)"
  fi
  if [ -n "${SNAPLOAD}" ]; then
    SUMMARY="${SUMMARY}, snapshot load ${SNAPLOAD} ms"
  fi
  if [ -n "${BYTES}" ]; then
    SUMMARY="${SUMMARY}, table bytes ${BYTES}"
  fi
  echo "${SUMMARY}"
fi

# Per-workload snapshot columns (absent in pre-persistence JSON).
grep -o '"name": "[a-z_]*"' "${OUT}" | cut -d'"' -f4 | while read -r NAME; do
  WLINE="$(grep -A3 "\"name\": \"${NAME}\"" "${OUT}" | tr '\n' ' ')"
  WLOAD="$(printf '%s' "${WLINE}" | grep -o '"snapshot_load_ms": [0-9.eE+-]*' | head -1 | cut -d' ' -f2 || true)"
  WBYTES="$(printf '%s' "${WLINE}" | grep -o '"snapshot_bytes": [0-9.eE+-]*' | head -1 | cut -d' ' -f2 || true)"
  if [ -n "${WLOAD}" ]; then
    echo "  ${NAME}: snapshot load ${WLOAD} ms, ${WBYTES:-?} bytes"
  fi
done

# The serving-side query benchmark (query fast lane). Tolerate its
# absence so the script still works against a build dir from before it
# existed.
QBENCH="${BUILD_DIR}/bench/bench_query"
if [ -x "${QBENCH}" ]; then
  QOUT="${REPO_ROOT}/BENCH_query.json"
  QSTATUS=0
  "${QBENCH}" --json "${QOUT}" "$@" || QSTATUS=$?
  if [ "${STATUS}" -eq 0 ]; then
    STATUS=${QSTATUS}
  fi
  echo "wrote ${QOUT}"

  CORES="$(grep -o '"hardware_concurrency": [0-9]*' "${QOUT}" | head -1 | cut -d' ' -f2 || true)"
  QGEO="$(grep -o '"geomean": {[^}]*}' "${QOUT}" || true)"
  if [ -n "${QGEO}" ]; then
    SQPS="$(printf '%s' "${QGEO}" | grep -o '"string_qps": [0-9.eE+-]*' | cut -d' ' -f2 || true)"
    PQPS="$(printf '%s' "${QGEO}" | grep -o '"probe_qps": [0-9.eE+-]*' | cut -d' ' -f2 || true)"
    BQPS="$(printf '%s' "${QGEO}" | grep -o '"batch_qps": [0-9.eE+-]*' | cut -d' ' -f2 || true)"
    SPEED="$(printf '%s' "${QGEO}" | grep -o '"probe_speedup_vs_string": [0-9.eE+-]*' | cut -d' ' -f2 || true)"
    echo "query geomean: string ${SQPS:-?} q/s, probe ${PQPS:-?} q/s (x${SPEED:-?}), batch ${BQPS:-?} q/s"
    # The reader-scaling column: hot_set probe qps@4t over qps@1t. The
    # grep matches only a number, so a null (unmeasured on a small
    # machine) falls through to the n/a arm.
    SCAL="$(printf '%s' "${QGEO}" | grep -o '"probe_scaling_4t": [0-9.eE+-]*' | cut -d' ' -f2 || true)"
    if [ -n "${SCAL}" ]; then
      echo "query probe scaling: x${SCAL} (qps@4t / qps@1t)"
    else
      echo "query probe scaling: n/a (${CORES:-1} core$( [ "${CORES:-1}" != 1 ] && echo s ) - the 4-thread row was skipped)"
    fi
  fi
  # Multithreaded rows are null when the machine has fewer cores than
  # the row's thread count - say so rather than printing nothing.
  if grep -q '"qps": null' "${QOUT}"; then
    echo "query multithreaded rows: n/a (${CORES:-1} core$( [ "${CORES:-1}" != 1 ] && echo s ) - rows beyond the core count are skipped, not fabricated)"
  fi
else
  echo "note: ${QBENCH} not built; skipping the query benchmark"
fi

exit "${STATUS}"
