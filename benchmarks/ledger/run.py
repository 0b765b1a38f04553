#!/usr/bin/env python3
"""Contract entry point: ``python3 benchmarks/ledger/run.py --workload W
--seed N --seconds S --trace 0|1`` from the root of a checkout.

Puts the checkout and its ``src/`` on ``sys.path`` itself, so the command
needs no ``PYTHONPATH``; exits 2 without a result when the program under
test is not there to measure.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("benchmarks/ledger: src/repro not found; nothing to measure", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.ledger.cli import main

    sys.exit(main())
