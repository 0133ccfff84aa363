"""Pin the simulated outputs of every pool entry at the current commit.

    python3 perfbench/make_pins.py --workload sample|gsa_loop [--size full|smoke]

Runs each entry's unit once and stores its outputs (the payoff array digest
for ``sample``, the payoff matrix digests for ``gsa_loop``) in ``pins.json``,
keeping the entries of other workloads and sizes. Re-pin only when a change
is meant to alter simulated numbers, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import inputs
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sample", "gsa_loop"))
    parser.add_argument("--size", choices=inputs.SIZES, default="full")
    args = parser.parse_args(argv)

    out_root = workloads.ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as work:
        config = Path(work) / "config.json"
        config.write_text(json.dumps(inputs.CONFIGS[args.workload](args.size)))
        ctx, _ = workloads.setup(argparse.Namespace(
            workload=args.workload, seed=0, size=args.size, config=config,
            work=work), None)
        unit = workloads.UNITS[args.workload]
        outputs = {}
        for index in range(inputs.POOL_SIZE):
            outputs[str(index)] = unit(ctx, index)["outputs"]
            print(f"{args.workload} {args.size} entry {index}: "
                  f"{outputs[str(index)]}", file=sys.stderr)

    pins = json.loads(workloads.PINS.read_text()) if workloads.PINS.exists() else {}
    pins.setdefault(args.size, {})[args.workload] = outputs
    workloads.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
