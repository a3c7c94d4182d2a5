"""Benchmark harness for hedgelab; see README.md."""
