#!/usr/bin/env bash
# Builds cmd/redisgraph-server and the benchmark harness into .bench_build/
# at the root of the checkout, then runs the harness with the given flags.
# Everything the build and the run write stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"

# A directory without the program's sources is refused before anything is
# started or written there.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/redisgraph-server" ]; then
	echo "benchmark: $root holds no redisgraph sources (go.mod, cmd/redisgraph-server); nothing to measure" >&2
	exit 1
fi
mkdir -p "$out"

# Keep the go tool's cache, config and telemetry inside the checkout, and
# never let it fetch a toolchain or a module: the repo has no dependencies.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
# With a fresh config directory the go command would detach a telemetry child
# that outlives a short run; the mode file turns that off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$out/redisgraph-server" ./cmd/redisgraph-server)
(cd "$here" && go build -o "$out/harness" .)

cd "$root"
exec "$out/harness" -server "$out/redisgraph-server" "$@"
