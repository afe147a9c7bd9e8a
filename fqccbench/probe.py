"""Set-up probe: build one workload's inputs in a fresh interpreter, then say so.

    python3 fqccbench/probe.py '<workload spec>' <seed>

``run.py`` times this process from launch to its "ready <speed>" line.
``speed`` is the CPU's mean speed during set-up relative to the reference
speed of ``pace.py``, so that ``run.py`` can pace the set-up time.
"""

import sys

import pace

if __name__ == "__main__":
    with pace.Pacer() as pacer:
        import workloads

        workloads.use_checkout()
        workloads.from_spec(sys.argv[1]).setup(int(sys.argv[2]))
    print(f"ready {pacer.speed()!r}", flush=True)
