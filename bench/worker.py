"""One workload run in a fresh, single-threaded process.

Started by ``run.py``; not meant to be run by hand. It chooses the
workload's inputs from the seed, then imports ``wph`` from the checkout's
``src`` and builds the library objects of the operations; only the import and
that build are timed as set-up. With ``--setup-only`` it stops there. Otherwise it repeats whole rounds of the
workload's operations until ``--seconds`` have passed, then checks every
answer. The last line of its standard output is one JSON record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def load_wph() -> SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wph.census
    import wph.cli
    import wph.quasismooth
    import wph.weights

    if Path(wph.__file__).resolve().parent != src / "wph":
        raise SystemExit(f"wph imported from {wph.__file__}, not from {src}")
    return SimpleNamespace(
        census=wph.census, cli=wph.cli, quasismooth=wph.quasismooth, weights=wph.weights
    )


def timed_loop(ops, seconds: float, tracer: Tracer | None) -> dict:
    """Whole rounds of ``ops`` until ``seconds`` have passed.

    Answers of the first round are kept for the checks; later rounds must
    repeat them exactly.
    """
    first = [None] * len(ops)
    times, cpu_times, errors = [], [], []
    attempted = failed = rounds = 0
    start, cpu_start = perf_counter(), process_time()
    while True:
        for i, op in enumerate(ops):
            attempted += 1
            try:
                t, c = perf_counter(), process_time()
                if tracer is not None:
                    qs_before = tracer.calls("quasismooth")
                raw = op.call()
                times.append(perf_counter() - t)
                cpu_times.append(process_time() - c)
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                failed += 1
                errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
                continue
            answer = op.plain(raw)
            if tracer is not None and op.cli_command:
                tracer.count_cli(op.cli_command, qs_before, len(answer[1]))
            if rounds == 0:
                first[i] = answer
            elif answer != first[i]:
                errors.append(f"{op.label}: round {rounds + 1} answer differs from round 1")
        rounds += 1
        if perf_counter() - start >= seconds:
            break
    return {
        "wall_s": perf_counter() - start,
        "cpu_s": process_time() - cpu_start,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "op_times_s": times,
        "op_cpu_s": cpu_times,
        "first": first,
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        make_ops = workloads.BUILDERS[args.workload](random.Random(args.seed), workdir)
        # Start the timed part from a collected heap, so that a collection
        # owed to the generated inputs does not land in the import.
        gc.collect()
        t0 = perf_counter()
        lib = load_wph()
        ops = make_ops(lib)
        setup_s = perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        loop = timed_loop(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        ctx = workloads.Context()
        errors = loop.pop("errors")
        for op, answer in zip(ops, loop.pop("first")):
            if answer is not None:
                errors += op.check(answer, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "labels": [op.label for op in ops],
        "errors": errors,
        **loop,
    }
    if tracer is not None:
        record["per_layer"] = tracer.metrics(loop["rounds"])
        record["wrapper_residual_ns"] = tracer.residual_ns
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
