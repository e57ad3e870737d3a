"""The COLD benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each is there, ``spec.json`` lists
their inputs and which end-to-end metric each per-layer metric moves):

* ``fit``          serial fast-kernel fit of the MEDIUM corpus;
* ``fit_parallel`` ``processes`` executor, 2 nodes / 2 workers, on a
  memory-mapped ``.coldpack`` corpus;
* ``stream``       MEDIUM replayed as events through ``OnlineTrainer`` +
  ``ModelWatcher`` + ``ColdHTTPServer`` in a separate process, with an
  open-loop ``/v1`` query mix beside the writes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes the spans to ``.perfbench/traces/``).  The last
stdout line is the result JSON; the line before it is the run record
(inputs, machine fingerprint, sample counts, per-phase request counts).
Any failed output check makes ``correct`` false.  ``--smoke`` shrinks
every input for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

from probes import ROOT, use_checkout_source
from spans import LAYERS, Tracer, self_seconds

SPEC = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".perfbench"


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    return parser.parse_args()


def _metric_block(declared: list[dict], values: dict) -> dict:
    block = {}
    for metric in declared:
        value = values.get(metric["name"], 0.0)
        block[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    return block


def _stop_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker, if started, and reap it.

    Shared memory and spawned processes (the parallel fit) start it as a
    child that would otherwise outlive this process by a moment and stay
    unreaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main() -> int:
    args = _parse_args()
    use_checkout_source()
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    import workloads
    from repro.perf import machine_fingerprint

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        workdir=workdir,
        tracer=tracer,
    )
    started = time.perf_counter()
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    wall = time.perf_counter() - started

    e2e = dict(result.e2e)
    e2e["success_frac"] = 1.0 - result.failed / max(result.attempted, 1)
    errors = list(result.errors)
    for name, value in e2e.items():
        if not math.isfinite(value):
            errors.append(f"non-finite end-to-end metric {name}: {value}")
    layer = dict(result.layer)
    if args.trace:
        for name, seconds in self_seconds(tracer.spans).items():
            layer[f"self_s.{name}"] = seconds
        trace_path = (WORKDIR / "traces"
                      / f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
        tracer.dump(trace_path)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "wall_s": wall,
        "machine": machine_fingerprint(),
        "errors": errors,
        "end_to_end": e2e,
        **({"per_layer": layer, "layers": list(LAYERS)} if args.trace else {}),
        **result.record,
    }
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": not errors,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": _metric_block(declared, layer if args.trace else e2e),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
