#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache, results and span files all stay under
# the build directory in the checkout: $CARGO_TARGET_DIR when set, else
# .bench_build. Without the repo's sources beside it the build fails and
# the script exits non-zero before running anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"
# Keep the go command's cache, temporary files and telemetry counters in
# the build directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The checkout may not be a git repository, so the commit is looked up
# here, best effort, instead of by go build's VCS stamping.
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build" "$@"
