"""Record the golden selection of every workload instance.

    python3 perfbench/record_golden.py

Runs ``duke select`` once per instance from the current checkout, requires
the independent check to pass, and stores the reported indices and objective
with the size and sha256 of each input file in perfbench/golden.json. The
goldens in the repository were recorded at the commit that introduced the
benchmark; ``indices_match`` compares later runs against them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import GOLDEN, WORK, WORKLOADS, Launcher, select_child
from workloads import INSTANCES, generate


def record(launcher: Launcher, golden: dict, name: str) -> bool:
    work = WORK / f"golden-{name}"
    try:
        for instance in range(INSTANCES):
            _, inputs = generate(name, instance, work / "inputs")
            run = select_child(inputs, launcher, work)
            if run.problems:
                print(f"{name} instance {instance}: {run.problems}", file=sys.stderr)
                return False
            golden.setdefault(name, {})[str(instance)] = {
                "indices": run.indices, "objective": run.objective,
                "inputs": inputs.provenance()}
            print(f"{name} {instance}: objective {run.objective} ({run.wall:.2f} s)",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return True


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    golden = {}
    with Launcher() as launcher:
        for name in WORKLOADS:
            if not record(launcher, golden, name):
                return 1
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
