"""The benchmark's workloads: which steps one repetition runs.

A step is either ("cli", argv), one call of ``nodalcurves.cli.main``, or
("revert", n), the library call ``dg2(n).revert()``.  Every workload has
three input choices of equal cost; ``--seed`` picks one of them, so the
same seed always runs the same inputs.  Expected outputs for every choice
are stored in ``expected.json``.
"""

from __future__ import annotations

WORKLOADS = ("fit-deep", "qside-high", "cache-roundtrip")

# K3 squares fed to the fit.  The K3 pull-back is a few milliseconds at
# order 6, so the three pairs cost the same; the Severi work is identical.
K3_PAIRS = ("2,4", "2,6", "4,6")

# q-orders of (genus-series, forms).  Both are dominated by the cubic
# Delta product at about the same order, so moving one order from one
# subcommand to the other keeps the total cost within a fraction of a
# percent.
Q_ORDERS = ((120, 120), (121, 119), (119, 121))

REVERT_ORDER = 30
CACHE_DMAX = 26
CACHE_DELTAMAX = 5
CACHE_FIT_ORDER = 5
HELD_OUT_DEGREE = 27
FIT_DEEP_ORDER = 6

N_CHOICES = 3


def choice_for_seed(seed: int) -> int:
    return seed % N_CHOICES


def steps(workload: str, choice: int, cache_path: str | None = None) -> list:
    if workload == "fit-deep":
        k3 = K3_PAIRS[choice]
        return [
            ("cli", ["fit", "--order", str(FIT_DEEP_ORDER), "--threads", "1",
                     "--k3", k3, "--no-timestamp"]),
        ]
    if workload == "qside-high":
        genus_order, forms_order = Q_ORDERS[choice]
        return [
            ("revert", REVERT_ORDER),
            ("cli", ["genus-series", "--r", "0", "--Ksq", "0", "--m", "0", "--chiO", "2",
                     "--order", str(genus_order), "--no-timestamp"]),
            ("cli", ["forms", "--order", str(forms_order), "--no-timestamp"]),
        ]
    if workload == "cache-roundtrip":
        if cache_path is None:
            raise ValueError("cache-roundtrip needs a cache path")
        k3 = K3_PAIRS[choice]
        return [
            ("cli", ["severi-table", "--dmax", str(CACHE_DMAX), "--deltamax",
                     str(CACHE_DELTAMAX), "--threads", "2", "--cache", cache_path]),
            ("cli", ["fit", "--order", str(CACHE_FIT_ORDER), "--k3", k3,
                     "--cache", cache_path, "--no-timestamp"]),
            ("cli", ["validate", "--d", str(HELD_OUT_DEGREE), "--order", str(CACHE_FIT_ORDER),
                     "--k3", k3, "--cache", cache_path, "--no-timestamp"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def step_label(step) -> str:
    """A short stable name for a step: the subcommand, or ``revert``."""
    kind, arg = step
    return arg[0] if kind == "cli" else kind
