#!/usr/bin/env python3
"""Benchmark of ``wph``: one workload, one seed, one result line.

    python3 bench/run.py --workload cy_census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each workload runs in a fresh, single-
threaded Python process (``worker.py``) that imports ``wph`` from ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics ``setup_s``, ``ops_per_s``, ``op_p50_ms`` and
``peak_rss_mb``; with ``--trace 1`` a separate traced process reports the
per-layer metrics instead. Every answer is checked against independent
oracles; a failed check sets ``correct`` to false and the exit code to 1.
Without ``src/wph`` in the checkout the command exits with code 2 and prints
no result. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters that only set up; with the measured run's own set-up
#: they give the median reported as setup_s. An import takes about 50 ms, and
#: single samples on a shared VM vary by tens of percent.
SETUP_PROBES = 10
#: Every run, probes included, ends within this many seconds.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def spawn(args, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wph" / "__init__.py").is_file():
        print(f"error: no wph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn([*common, "--setup-only"], deadline)["setup_s"])
        rec = spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    completed = rec["attempted"] - rec["failed"]
    if not completed:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rec["per_layer"].items()}
    else:
        setups.append(rec["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": completed / rec["wall_s"], "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(rec["op_times_s"]) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not rec["errors"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "setup_samples_s": setups, "worker": rec}, indent=1),
        encoding="utf-8",
    )
    for err in rec["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
