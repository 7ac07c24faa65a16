#!/bin/sh
# Build the benchmark from source and run it, passing every argument on:
#   sh sodabench/run.sh --workload signal_stream --seed 1 --seconds 10 --trace 0
# Run from the root of the repository; --root keeps dune from adopting a
# workspace above it.
exec dune exec --root . --display quiet -- ./sodabench/suite.exe "$@"
