#!/usr/bin/env python3
"""Run the canned experiment configurations and write their reports.

Usage:
    python scripts/run_experiments.py                 # everything
    python scripts/run_experiments.py identity rate   # a subset

Runs `nullrec experiment --config scripts/configs/<name>.json` per name;
reports land under out/.  Exits with the largest exit status of the runs.
With NULLREC_THREADS=2 on a shared 2-vCPU Xeon host (2026-10-20), tail took
107 s, risk 26 s, rate 15.5 s, rlt 1.4 s and identity under 0.4 s (README,
Experiments); NULLREC_THREADS sets how many worker processes run the
replications.
"""

import sys
import time
from pathlib import Path

from nullrec.cli import main as nullrec_main

CONFIG_DIR = Path(__file__).parent / "configs"
ORDER = ("identity", "rate", "tail", "rlt", "risk")


def main(names):
    worst = 0
    for name in names:
        print(f"[{time.strftime('%H:%M:%S')}] running {name} ...", flush=True)
        code = nullrec_main(["experiment", "--config", str(CONFIG_DIR / f"{name}.json")])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(ORDER)
    unknown = set(chosen) - set(ORDER)
    if unknown:
        sys.exit(f"unknown experiment name(s): {sorted(unknown)}")
    sys.exit(main(chosen))
