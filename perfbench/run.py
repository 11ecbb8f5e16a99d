#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. Workloads: ``offline``, ``serve-hot``,
``serve-miss`` (see perfbench/README.md). ``--trace 0`` prints every
end-to-end metric of BENCHMARK.json; ``--trace 1`` runs with per-layer
wrappers installed and prints every per-layer metric. The last stdout
line is the result object; the lines before it are the full report.
Times are scaled to a reference host speed (``common.HostSpeed``).
Exits 2 without a result when the checkout has no ``src/repro``.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("offline", "serve-hot", "serve-miss")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not common.sources_present():
        print(f"perfbench: no repro package under {common.SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    common.prepare_process()
    traced = bool(args.trace)
    common.pin_to_one_cpu()
    common.SPEED.start()
    try:
        if args.workload == "offline":
            from perfbench import offline

            offline.run(args.seed, args.seconds, traced, per_layer_units,
                        end_to_end_units)
        else:
            from perfbench import serve_load

            serve_load.run(args.workload, args.seed, args.seconds, traced,
                           per_layer_units, end_to_end_units)
    finally:
        common.SPEED.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
