"""Realistic-size benchmark with per-layer attribution (see README.md)."""
