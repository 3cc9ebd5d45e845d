"""End-to-end and per-layer benchmark for the mmdistrict CLI; see run.py."""
