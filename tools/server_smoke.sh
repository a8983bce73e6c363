#!/usr/bin/env bash
# End-to-end server smoke test: boot soda_server, hit it with concurrent
# soda_shell --connect clients mixing DML and reads, then SIGTERM it and
# assert a clean graceful drain (exit code 0, "drained cleanly" banner).
#
# Usage:
#   tools/server_smoke.sh [BUILD_DIR]    # default: build/
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
server_bin="${build_dir}/tools/soda_server"
shell_bin="${build_dir}/tools/soda_shell"
clients=6
statements_per_client=5

for bin in "${server_bin}" "${shell_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "server_smoke: missing ${bin} (build first: cmake --build ${build_dir})" >&2
    exit 1
  fi
done

workdir="$(mktemp -d)"
server_log="${workdir}/server.log"
server_pid=""
cleanup() {
  [[ -n "${server_pid}" ]] && kill -9 "${server_pid}" 2>/dev/null || true
  rm -rf "${workdir}"
}
trap cleanup EXIT

# Port 0 lets the kernel pick a free port; the banner tells us which.
"${server_bin}" --port 0 --data-dir "${workdir}/data" \
  --max-sessions 32 --max-concurrent 4 --queue 64 --queue-wait-ms 30000 \
  >"${server_log}" 2>&1 &
server_pid=$!

port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "${server_log}")"
  [[ -n "${port}" ]] && break
  if ! kill -0 "${server_pid}" 2>/dev/null; then
    echo "server_smoke: server died during startup" >&2
    cat "${server_log}" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "${port}" ]]; then
  echo "server_smoke: no listening banner after 10s" >&2
  cat "${server_log}" >&2
  exit 1
fi
echo "server_smoke: server up on port ${port} (pid ${server_pid})"

# Schema setup over the wire.
printf 'CREATE TABLE smoke (client INTEGER, seq INTEGER);\n' \
  | "${shell_bin}" --connect "127.0.0.1:${port}" >/dev/null

# Concurrent clients: each one inserts its rows and reads the table back
# between inserts, so reads overlap writers from other sessions.
client_pids=()
for c in $(seq 1 "${clients}"); do
  (
    script="${workdir}/client_${c}.sql"
    : >"${script}"
    for s in $(seq 1 "${statements_per_client}"); do
      printf 'INSERT INTO smoke VALUES (%d, %d);\n' "${c}" "${s}" >>"${script}"
      printf 'SELECT count(*) FROM smoke;\n' >>"${script}"
    done
    "${shell_bin}" --connect "127.0.0.1:${port}" "${script}" \
      >"${workdir}/client_${c}.out" 2>&1
  ) &
  client_pids+=($!)
done
client_rc=0
for pid in "${client_pids[@]}"; do
  wait "${pid}" || client_rc=1
done
if [[ "${client_rc}" -ne 0 ]]; then
  echo "server_smoke: a client failed" >&2
  tail -n 20 "${workdir}"/client_*.out >&2
  exit 1
fi

# Every insert must have landed.
expected=$((clients * statements_per_client))
total="$(printf 'SELECT count(*) FROM smoke;\n' \
  | "${shell_bin}" --connect "127.0.0.1:${port}" | grep -oE '[0-9]+' | tail -1)"
if [[ "${total}" != "${expected}" ]]; then
  echo "server_smoke: expected ${expected} rows, got '${total}'" >&2
  exit 1
fi
echo "server_smoke: ${clients} clients committed ${total} rows"

# A malformed table-function call (NULL scalar) must come back as a
# TypeError to its client and leave the server serving everyone else.
bad_out="$(printf 'SELECT * FROM PAGERANK((SELECT client, seq FROM smoke), NULL);\n' \
  | "${shell_bin}" --connect "127.0.0.1:${port}" 2>&1 || true)"
if ! grep -q '^TypeError' <<<"${bad_out}"; then
  echo "server_smoke: malformed table-function call got no TypeError:" >&2
  echo "${bad_out}" >&2
  cat "${server_log}" >&2
  exit 1
fi
after="$(printf 'SELECT count(*) FROM smoke;\n' \
  | "${shell_bin}" --connect "127.0.0.1:${port}" | grep -oE '[0-9]+' | tail -1)"
if [[ "${after}" != "${expected}" ]]; then
  echo "server_smoke: server stopped answering after a malformed call" \
    "(count '${after}', want ${expected})" >&2
  cat "${server_log}" >&2
  exit 1
fi
echo "server_smoke: malformed table-function call rejected, server alive"

# Graceful drain: SIGTERM must exit 0 with the clean-drain banner.
kill -TERM "${server_pid}"
server_rc=0
wait "${server_pid}" || server_rc=$?
if [[ "${server_rc}" -ne 0 ]]; then
  echo "server_smoke: server exited ${server_rc} after SIGTERM (want 0)" >&2
  cat "${server_log}" >&2
  exit 1
fi
if ! grep -q 'drained cleanly' "${server_log}"; then
  echo "server_smoke: missing 'drained cleanly' banner" >&2
  cat "${server_log}" >&2
  exit 1
fi
server_pid=""
echo "server_smoke: graceful drain OK"
grep 'drained cleanly' "${server_log}"
echo "server_smoke: PASS"
