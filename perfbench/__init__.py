"""Benchmark of the padicsmith package; see README.md here and BENCHMARK.json at the root."""
