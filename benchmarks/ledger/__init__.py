"""The Raincore performance ledger (see README.md in this directory).

Seven named workloads, each run in fresh child interpreters; end-to-end
metrics come from untraced runs, the per-layer bill from a separate traced
run.  Everything here measures ``repro`` from outside: it times calls into
public functions, reads public counters, and installs its own span wrappers
around the layer boundaries — nothing under ``src/`` knows it exists.

Entry points::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.ledger [--workload W] [--trace] [--smoke]
    PYTHONPATH=src python -m benchmarks.ledger --selfcheck
"""
