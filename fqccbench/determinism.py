"""Check that each workload's counts repeat exactly across string hash seeds.

    python3 fqccbench/determinism.py [--seed 1]

Runs every workload for one job in two processes with different
``PYTHONHASHSEED`` values and compares the fingerprints on their report
lines: per-encoding term, group, gate and model counts; the swarm's best
bits, ``best_history`` and evaluation count; and the HMP2 term choices.
Exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HASH_SEEDS = ("1", "2")


def fingerprint(name, seed, hash_seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-2])["fingerprint"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    same = True
    for name in workloads.WORKLOADS:
        prints = [fingerprint(name, args.seed, h) for h in HASH_SEEDS]
        repeat = all(p == prints[0] for p in prints)
        same &= repeat
        print(json.dumps({"workload": name, "repeats": repeat, "fingerprint": prints[0]}))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
