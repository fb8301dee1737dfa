"""One repetition of one workload, in a fresh interpreter.

Usage: child.py SPEC_JSON, where the spec names the workload, the input
choice, whether to trace, and the cache file (cache-roundtrip only).  With
the spec ``{"reference": true}`` the child imports the package and then
times the fixed reference job of ``reference.py`` instead of a workload.

The first thing the child does is import ``nodalcurves.cli``; the
monotonic time at which that import is done is the end of set-up.  The job
is then timed step by step with the CLI's output captured, and one JSON
document with the outputs and timings goes to stdout.  Checking the outputs
is left to the parent, outside any timed interval.
"""

import time

import nodalcurves.cli as cli

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from nodalcurves.quasimodular import dg2  # noqa: E402


def run_step(step):
    kind, arg = step
    if kind == "revert":
        start = time.perf_counter()
        reverted = dg2(arg).revert()
        wall = time.perf_counter() - start
        return wall, {"rc": 0, "coeffs": [str(c) for c in reverted.coeffs]}
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(arg)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    return wall, {"rc": rc, "stdout": buf.getvalue()}


def main():
    spec = json.loads(sys.argv[1])
    doc = {"setup_done": SETUP_DONE, "module": os.path.abspath(cli.__file__)}
    if spec.get("reference"):
        import reference

        start = time.perf_counter()
        reference.run()
        doc["reference_s"] = time.perf_counter() - start
        print(json.dumps(doc))
        return
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cache = spec.get("cache")
    steps = workloads.steps(spec["workload"], spec["choice"], cache)
    results = []
    wall = 0.0
    for step in steps:
        name = f"cli.{workloads.step_label(step)}" if step[0] == "cli" else None
        span = tracer.open(name) if tracer and name else None
        step_wall, out = run_step(step)
        if span is not None:
            tracer.close(span)
        wall += step_wall
        out["label"] = workloads.step_label(step)
        out["wall_s"] = step_wall
        if cache:
            with open(cache, "rb") as fh:
                out["cache_lines"] = fh.read().count(b"\n")
        results.append(out)
    doc.update(wall_s=wall, steps=results)
    if tracer is not None:
        doc["layers"] = tracer.metrics()
        doc["spans"] = tracer.spans()
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
