#!/usr/bin/env bash
# Build ei_bench from this checkout's sources and run it; every argument
# is passed through (see README.md in this directory).
set -e
cd "$(dirname "$0")/../.."
exec dune exec --root . --display quiet bench/e2e/ei_bench.exe -- "$@"
