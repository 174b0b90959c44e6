"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload field-cr --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/`` beside
this directory. With ``--trace 0`` the last stdout line is a JSON object with
every end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1`` it
carries every per-layer metric instead, measured by replaying each op's
layer calls (spans are also written to ``perfbench/out/``). Lines before it
are a readable report: environment, sample counts, tails and the other
latency figures. Any failed output check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("field-cr", "field-tp", "tile-serve")


def _cache_sizes() -> str:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return " ".join(f"{k}={v}" for k, v in sorted(sizes.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no library under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    import numpy as np
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "tile-serve":
        import tiles as workload
    else:
        import fields as workload
    from common import CheckFailed

    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"nproc={os.cpu_count()} {_cache_sizes()} "
        f"python={platform.python_version()} numpy={np.__version__}"
    )
    try:
        res = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC)
    except CheckFailed as exc:
        print(f"FAILED during set-up: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    values = res["layers"] if args.trace else res["e2e"]
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        # A layer the workload never calls reads 0; every end-to-end metric
        # is defined for every workload.
        value, _ = values.get(m["name"], (0.0, None)) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    for line in res["detail"]:
        print(line)
    for name, (value, unit) in res["e2e"].items():
        n = res["samples"].get(name)
        print(f"  {name:<26} {value:>12.4f} {unit}" + (f"  (median of {n})" if n else ""))
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>12.4f} {m['unit']}")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump(res["spans"], fh)
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    correct = not res["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
