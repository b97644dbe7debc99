"""Print every output of the benchmark's verify workload as exact JSON.

Usage: PYTHONPATH=src python scripts/dump_verify_outputs.py [--seed N]
           [--distances K] > outputs.json

Builds the verify workload's inputs for the seed (perfbench/workloads.py),
runs each operation once and prints its output: check reports as
to_json_dict, floats as float.hex. It adds the signed distances of the
first K canonical-operator matrices of each cone. Run it against two
checkouts (PYTHONPATH=<checkout>/src) and diff the files to show that a
change keeps every verdict, margin and value bit for bit.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from jetcones import canonical, catalog  # noqa: E402
from jetcones.duality import CheckReport  # noqa: E402

CONES = {"P2": catalog.cone_P(2), "P3": catalog.cone_P(3),
         "pfold32": catalog.cone_pfold(3, 2), "pucci": catalog.cone_pucci(2, 1.0, 2.0)}


def exact(x):
    if isinstance(x, CheckReport):
        return exact(x.to_json_dict())
    if isinstance(x, dict):
        return {k: exact(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [exact(v) for v in x]
    if isinstance(x, float):
        return float.hex(x)
    return x


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--distances", type=int, default=10)
    args = ap.parse_args()
    wl = workloads.build("verify", args.seed, Path("."))
    out = {op.name: exact(op.call()) for op in wl.ops}
    for name, F in CONES.items():
        mats = wl.inputs[name][: args.distances]
        out[f"signed_distance_{name}"] = exact(
            [canonical.signed_distance(F, A) for A in mats])
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
