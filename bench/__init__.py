"""The repository's benchmark: workloads, call-site tracing and the BENCHMARK.json spec."""
