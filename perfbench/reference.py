"""Record the reference outputs that every benchmark pass is checked against.

    python3 perfbench/reference.py

Runs one pass of each workload for each seed in SEEDS and writes
perfbench/reference.json.  Outputs named `seeded.*` depend on the seed's
sampled inputs and are kept per seed; all other outputs must be the same
for every seed and are kept once.  Record only from a commit whose outputs
are known to be right.
"""

import json
import shutil

import workloads
from workloads import OUT_DIR, WORKLOADS

from run import REFERENCE

# The default seed and one held out from tuning.
SEEDS = (0, 1)


def record():
    workloads.load_magbag()
    ref = {"seeds": list(SEEDS), "fixed": {}, "seeded": {str(s): {} for s in SEEDS}}
    try:
        for name, wl in WORKLOADS.items():
            for seed in SEEDS:
                values = wl.outputs(wl.run(wl.setup(seed))).values
                fixed = {k: v for k, v in values.items() if not k.startswith("seeded.")}
                if name not in ref["fixed"]:
                    ref["fixed"][name] = fixed
                elif fixed != ref["fixed"][name]:
                    raise RuntimeError(f"{name}: unseeded outputs depend on the seed")
                ref["seeded"][str(seed)][name] = {k: v for k, v in values.items()
                                                  if k.startswith("seeded.")}
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
