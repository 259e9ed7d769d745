"""Benchmark of the attndistill training pass; see run.py."""
