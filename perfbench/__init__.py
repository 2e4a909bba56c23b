"""End-to-end and per-layer benchmark of the lattice QCD reproduction.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
