"""The serving benchmark (see perf/README.md and BENCHMARK.json)."""
