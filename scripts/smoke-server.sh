#!/usr/bin/env bash
# smoke-server.sh builds one HTTP server command, starts it on a loopback
# port, polls /healthz for at most 10 s, requires one /generate with
# max_new_tokens 4 to return 4 tokens, then sends SIGINT and requires exit
# status 0 with no process left behind. Extra arguments go to the server.
#
# Usage (from the repository root):
#
#	scripts/smoke-server.sh lmo-serve -adapt
#	scripts/smoke-server.sh lmo-cluster
#
# SMOKE_PORT overrides the loopback port (default 18089).
set -euo pipefail

name=${1:?usage: smoke-server.sh lmo-serve|lmo-cluster [flags...]}
shift
addr=127.0.0.1:${SMOKE_PORT:-18089}
dir=$(mktemp -d)
pid=
cleanup() {
	if [[ -n $pid ]] && kill -0 "$pid" 2>/dev/null; then
		kill -KILL "$pid" 2>/dev/null || true
	fi
	rm -rf "$dir"
}
trap cleanup EXIT
fail() {
	echo "smoke $name: $*" >&2
	sed 's/^/  stderr: /' "$dir/stderr" >&2 || true
	exit 1
}

go build -o "$dir/$name" "./cmd/$name"
"$dir/$name" -addr "$addr" "$@" 2>"$dir/stderr" &
pid=$!

for ((i = 0; ; i++)); do
	curl -sf "http://$addr/healthz" >/dev/null && break
	kill -0 "$pid" 2>/dev/null || fail "exited before /healthz answered"
	((i < 100)) || fail "/healthz not ready within 10s"
	sleep 0.1
done

body=$(curl -sf "http://$addr/generate" -d '{"prompt":[1,2,3],"max_new_tokens":4}') ||
	fail "/generate failed"
n=$(jq '.tokens | length' <<<"$body") || fail "/generate body is not JSON: $body"
[[ $n == 4 ]] || fail "/generate returned $n tokens, want 4: $body"

kill -INT "$pid"
for ((i = 0; ; i++)); do
	kill -0 "$pid" 2>/dev/null || break
	((i < 100)) || fail "still running 10s after SIGINT"
	sleep 0.1
done
status=0
wait "$pid" || status=$?
pid=
((status == 0)) || fail "exit status $status after SIGINT"
if pgrep -f "$dir/$name" >/dev/null; then
	fail "process left behind after exit"
fi
echo "smoke $name: ok ($n tokens, clean SIGINT exit)"
