#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#
#   bash perfbench/run.sh --workload bid-storm --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The build cache, the build's
# temporary files, the binary and the benchmark's scratch data all stay
# under .bench_build in that root: nothing is read from or written to the
# user's home or the system's temporary directory, so the benchmark also
# builds where only its checkout is writable. The build is pure Go (no C
# compiler) and asks no version control system for a build stamp.
set -euo pipefail

# Go's default install location, for a PATH that does not name it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
