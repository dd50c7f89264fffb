"""Benchmark of the in-memory SC serving stack (see README.md)."""
