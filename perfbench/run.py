"""The nodalcurves benchmark: one workload, measured in fresh child processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit-deep --seed 1 --seconds 30 --trace 0

Each repetition runs in its own interpreter (``child.py``) with
``src/`` on the path, no ``NODALCURVES_CACHE`` and, for cache-roundtrip, a
fresh cache file that is deleted afterwards.  Repetitions run one at a
time, as many as fit in ``--seconds``.  Rusage comes per child from
``os.wait4``.  Every output is checked after its child has exited.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
medians over the repetitions, with every time divided by the host's
slowdown during the run (see ``reference.py``).  With
``--trace 1`` it carries the per-layer metrics of one extra traced
repetition, whose spans are also written to ``.bench_build/perfbench/``.
A summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

TIME_LIMIT_S = 170.0
MIN_REPS = 3
REFERENCE_SPAWNS_PER_REP = 4

# Variables that would warm the Severi memo or change how the interpreter
# runs the package; the child never sees them.
STRIPPED_ENV = (
    "NODALCURVES_CACHE",
    "PYTHONOPTIMIZE",
    "PYTHONDEVMODE",
    "PYTHONMALLOC",
    "PYTHONTRACEMALLOC",
    "PYTHONPROFILEIMPORTTIME",
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONPYCACHEPREFIX",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion; add set-up time and its own rusage."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode} for {spec}")
    doc = json.loads(out)
    if not doc["module"].startswith(str(ROOT / "src") + os.sep):
        raise BenchError(f"child imported nodalcurves from {doc['module']}")
    doc["setup_s"] = doc["setup_done"] - start
    doc["cpu_s"] = usage.ru_utime + usage.ru_stime
    doc["peak_rss_mb"] = usage.ru_maxrss / 1024
    return doc


def run_rep(workload: str, choice: int, trace: bool, deadline: float) -> dict:
    spec = {"workload": workload, "choice": choice, "trace": trace}
    if workload != "cache-roundtrip":
        return spawn(spec, deadline)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
    try:
        spec["cache"] = os.path.join(tmp, "severi-cache.jsonl")
        return spawn(spec, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def expectations(workload: str, choice: int) -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        doc = json.load(fh)[workload]
    doc["sha256"] = doc["sha256"][str(choice)]
    return doc


def verify(rep: dict, expected: dict, tally: list[int]):
    results = checks.check_rep(rep, expected)
    tally[0] += len(results)
    failures = [name for name, ok in results if not ok]
    tally[1] += len(failures)
    for name in failures:
        sys.stderr.write(f"check failed: {name}\n")


def self_check(rep: dict, expected: dict):
    blind = checks.self_check(rep, expected)
    if blind:
        raise BenchError(f"checks that miss a wrong output: {', '.join(blind)}")


def stdout_bytes(rep: dict) -> int:
    return sum(len(s["stdout"].encode("utf-8")) for s in rep["steps"] if "stdout" in s)


def report(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, each with its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)[kind]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def measure(args) -> tuple[dict, list[int], str]:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    choice = workloads.choice_for_seed(args.seed)
    expected = expectations(args.workload, choice)
    spawn({"reference": True}, deadline)  # compiles bytecode; not measured
    setup: list[float] = []
    ref: list[float] = []
    tally = [0, 0]  # checks attempted, failed
    reps: list[dict] = []
    measure_start = time.monotonic()
    durations: list[float] = []
    while True:
        rep_start = time.monotonic()
        rep = run_rep(args.workload, choice, False, deadline)
        reps.append(rep)
        verify(rep, expected, tally)
        if len(reps) == 1:
            self_check(rep, expected)
        # Reference and set-up samples are spread over the whole run, so
        # that they see the same host load as the repetitions.
        for _ in range(REFERENCE_SPAWNS_PER_REP):
            doc = spawn({"reference": True}, deadline)
            setup.append(doc["setup_s"])
            ref.append(doc["reference_s"])
        now = time.monotonic()
        durations.append(now - rep_start)
        if len(reps) < MIN_REPS:
            continue
        # Stop before a repetition that would run past --seconds (or the
        # hard deadline), so that a run lasts what it is asked to.
        typical = statistics.median(durations)
        if now - measure_start + typical > args.seconds or now + 3 * typical > deadline:
            break
    setup.extend(r["setup_s"] for r in reps)
    walls = [r["wall_s"] for r in reps]
    raw = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "setup_s": statistics.median(setup),
    }
    # Other tenants of the shared host move its speed by tens of percent
    # for minutes at a time, longer than a run, and set-up and job times
    # move with it.  Each time is divided by the host's slowdown during the
    # run: the mean reference time over its nominal time.  The mean, because
    # the host switches between a fast and a slow phase every second or two
    # and a short reference sample falls into one of them; the mean follows
    # the share of time spent slow, the median jumps between the two.
    slowdown = statistics.fmean(ref) / reference.NOMINAL_S
    end_to_end = {name: value / slowdown for name, value in raw.items()}
    end_to_end["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    lines = [
        f"{args.workload} seed {args.seed} (choice {choice}): {len(reps)} repetitions, "
        f"{len(setup)} set-up samples, {len(ref)} reference samples",
        f"  wall_s per repetition: {', '.join(f'{w:.3f}' for w in walls)}",
        f"  wall_s min {min(walls):.4f}, median {raw['wall_s']:.4f}, max {max(walls):.4f}",
        f"  as measured: cpu_s median {raw['cpu_s']:.4f}, setup_s median {raw['setup_s']:.4f}",
        f"  reference_s mean {statistics.fmean(ref):.4f}, median {statistics.median(ref):.4f}: "
        f"host slowdown {slowdown:.4f}",
    ]
    if not args.trace:
        return report(end_to_end, "end_to_end"), tally, "\n".join(lines)
    traced = run_rep(args.workload, choice, True, deadline)
    verify(traced, expected, tally)
    self_check(traced, expected)
    layers = dict(traced["layers"])
    layers["cli.stdout_bytes"] = stdout_bytes(traced)
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - raw["wall_s"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "layers": layers,
                   "spans": traced["spans"]}, fh, indent=1)
    lines.append(f"  traced wall_s: {traced['wall_s']:.3f}")
    return report(layers, "per_layer"), tally, "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through spawn(), which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "nodalcurves" / "cli.py").is_file():
        sys.stderr.write(f"no nodalcurves sources under {ROOT / 'src'}; nothing to measure\n")
        return 2
    try:
        metrics, (attempted, failed), summary = measure(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    sys.stderr.write(summary + "\n")
    for name, m in metrics.items():
        sys.stderr.write(f"  {name} = {m['value']} {m['unit']}\n")
    sys.stderr.write(f"  failed_frac = {failed / attempted} ({failed} of {attempted} checks)\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
