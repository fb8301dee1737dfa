"""Correctness oracles for one repetition, and a self-check of the oracles.

Every oracle here is computed by the benchmark itself from integers, or is
a stored digest of byte-reproducible output; none calls into nodalcurves.
``check_rep`` returns one (name, ok) pair per check.  ``self_check`` feeds
each check a deliberately wrong copy of a real repetition and fails unless
that check reports the failure, so a fast wrong run cannot pass unnoticed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
from fractions import Fraction

B1_PREFIX = ("1", "-1", "-5", "39")
B2_PREFIX = ("1", "5", "2", "35")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def eta_power_coeffs(c: int, order: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1-q^k)^(-c) through q^order.

    From the logarithmic derivative: n a_n = c * sum_{k=1..n} sigma_1(k) a_{n-k}.
    The division is exact for every integer c.
    """
    sig = [0] + [sigma1(k) for k in range(1, order + 1)]
    a = [1] + [0] * order
    for n in range(1, order + 1):
        total = c * sum(sig[k] * a[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError("eta power recurrence left a remainder")
        a[n] = total // n
    return a


def compose_is_identity(outer: list[Fraction], inner: list[Fraction]) -> bool:
    """outer(inner(x)) == x through the common order; both have zero constant term."""
    m = min(len(outer), len(inner)) - 1
    acc = [Fraction(0)] * (m + 1)
    acc[0] = outer[m]
    for n in range(m - 1, -1, -1):
        product = [Fraction(0)] * (m + 1)
        for i, a in enumerate(acc):
            if a:
                for j in range(1, m + 1 - i):
                    product[i + j] += a * inner[j]
        product[0] += outer[n]
        acc = product
    return acc == [Fraction(0), Fraction(1)] + [Fraction(0)] * (m - 1)


# ----------------------------------------------------------------------
# per-output checks
# ----------------------------------------------------------------------


def _result(step) -> dict:
    return json.loads(step["stdout"])["result"]


def _fit_checks(step) -> list[tuple[str, bool]]:
    result = _result(step)
    residuals = result["residuals"]
    zero_residuals = all(
        Fraction(c) == 0
        for key in ("dg2_identity", "delta_identity")
        for c in residuals[key]["coeffs"]
    )
    return [
        ("fit.residuals_ok", residuals["ok"] is True and zero_residuals),
        ("fit.b1_prefix", tuple(result["B"]["B1"]["coeffs"][:4]) == B1_PREFIX),
        ("fit.b2_prefix", tuple(result["B"]["B2"]["coeffs"][:4]) == B2_PREFIX),
    ]


def _genus_series_checks(step) -> list[tuple[str, bool]]:
    coeffs = [Fraction(c) for c in _result(step)["series"]["coeffs"]]
    # r = Ksq = m = 0, chiO = 2: the product is q * prod (1-q^k)^-24
    expected = [0] + eta_power_coeffs(24, len(coeffs) - 2)
    return [("genus-series.eta_product", coeffs == expected)]


def _forms_checks(step) -> list[tuple[str, bool]]:
    result = _result(step)
    order = result["order"]
    sig = [sigma1(n) for n in range(1, order + 1)]
    g2 = [Fraction(-1, 24)] + sig
    delta = [0] + eta_power_coeffs(-24, order - 1)
    read = {k: [Fraction(c) for c in result[k]["coeffs"]] for k in ("g2", "dg2", "d2g2", "delta")}
    return [
        ("forms.sigma_series", read["g2"] == g2
         and read["dg2"] == [n * c for n, c in enumerate(g2)]
         and read["d2g2"] == [n * n * c for n, c in enumerate(g2)]),
        ("forms.delta_product", read["delta"] == delta),
    ]


def _severi_table_checks(step) -> list[tuple[str, bool]]:
    rows = list(csv.DictReader(io.StringIO(step["stdout"])))
    values = {(int(r["d"]), int(r["delta"])): int(r["value"]) for r in rows}
    nodal = all(values[(d, 1)] == 3 * (d - 1) ** 2 for d, k in values if k == 1)
    smooth = all(values[(d, 0)] == 1 for d, k in values if k == 0)
    return [("severi-table.one_nodal", bool(values) and nodal and smooth)]


def _validate_checks(step) -> list[tuple[str, bool]]:
    return [("validate.match", _result(step)["match"] is True)]


def _revert_checks(step) -> list[tuple[str, bool]]:
    coeffs = [Fraction(c) for c in step["coeffs"]]
    dg2 = [Fraction(0)] + [Fraction(n * sigma1(n)) for n in range(1, len(coeffs))]
    return [("revert.compose_identity", compose_is_identity(dg2, coeffs))]


_CONTENT_CHECKS = {
    "fit": _fit_checks,
    "genus-series": _genus_series_checks,
    "forms": _forms_checks,
    "severi-table": _severi_table_checks,
    "validate": _validate_checks,
    "revert": _revert_checks,
}


def _guarded(name, fn, step) -> list[tuple[str, bool]]:
    """Run a content check; an output that does not even parse fails it."""
    try:
        return fn(step)
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError):
        return [(f"{name}.parse", False)]


def check_rep(rep: dict, expected: dict) -> list[tuple[str, bool]]:
    """All checks of one repetition against the expectations of its input choice.

    ``expected`` holds ``labels``, ``sha256`` and optionally ``cache_lines``
    (one entry per step) and ``counts`` (exact traced counts).
    """
    results = []
    steps = rep["steps"]
    labels = [s["label"] for s in steps]
    results.append(("steps", labels == expected["labels"]))
    for i, step in enumerate(steps):
        label = step["label"]
        results.append((f"{label}.exit", step["rc"] == 0))
        if step["rc"] != 0:
            continue
        results.extend(_guarded(label, _CONTENT_CHECKS[label], step))
        digest = expected["sha256"][i] if i < len(expected["sha256"]) else None
        if digest is not None:
            results.append((f"{label}.sha256", sha256(step["stdout"]) == digest))
        if "cache_lines" in expected:
            results.append(
                (f"{label}.cache_lines", step.get("cache_lines") == expected["cache_lines"][i])
            )
    if "layers" in rep:
        for name, value in expected["counts"].items():
            results.append((f"count.{name}", rep["layers"].get(name) == value))
    return results


# ----------------------------------------------------------------------
# self-check: every check must catch a deliberately wrong output
# ----------------------------------------------------------------------


def _edit_json(step, edit):
    doc = json.loads(step["stdout"])
    edit(doc["result"])
    step["stdout"] = json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _bump(coeffs: list, i: int):
    coeffs[i] = str(Fraction(coeffs[i]) + 1)


def _mutate_table(step):
    lines = step["stdout"].splitlines()
    for i, line in enumerate(lines):
        d, k, v = line.split(",")
        if k == "1" and d == "9":
            lines[i] = f"{d},{k},{int(v) + 1}"
    step["stdout"] = "\n".join(lines) + "\n"


MUTATIONS = {
    "exit": lambda step: step.update(rc=3),
    "sha256": lambda step: step.update(stdout=step["stdout"].replace("\n", " \n", 1)),
    "cache_lines": lambda step: step.update(cache_lines=step["cache_lines"] + 1),
    "fit.residuals_ok": lambda s: _edit_json(
        s, lambda r: _bump(r["residuals"]["delta_identity"]["coeffs"], 1)
    ),
    "fit.b1_prefix": lambda s: _edit_json(s, lambda r: _bump(r["B"]["B1"]["coeffs"], 3)),
    "fit.b2_prefix": lambda s: _edit_json(s, lambda r: _bump(r["B"]["B2"]["coeffs"], 2)),
    "genus-series.eta_product": lambda s: _edit_json(
        s, lambda r: _bump(r["series"]["coeffs"], len(r["series"]["coeffs"]) - 1)
    ),
    "forms.sigma_series": lambda s: _edit_json(s, lambda r: _bump(r["dg2"]["coeffs"], 7)),
    "forms.delta_product": lambda s: _edit_json(
        s, lambda r: _bump(r["delta"]["coeffs"], r["order"])
    ),
    "severi-table.one_nodal": _mutate_table,
    "validate.match": lambda s: _edit_json(s, lambda r: r.update(match=False)),
    "revert.compose_identity": lambda s: _bump(s["coeffs"], 5),
}


def _mutation_for(check: str):
    """The mutation that should make ``check`` fail: its own, else its kind's."""
    kind = check.partition(".")[2]
    return MUTATIONS.get(check) or MUTATIONS.get(kind)


def self_check(rep: dict, expected: dict) -> list[str]:
    """Names of checks that did not catch their wrong output; empty when all did.

    Only checks that pass on ``rep`` are exercised; a failing one is already
    counted as a failure of the run.
    """
    passed = [name for name, ok in check_rep(rep, expected) if ok]
    problems = []
    labels = [s["label"] for s in rep["steps"]]
    for name in passed:
        if name == "steps":
            wrong = copy.deepcopy(rep)
            wrong["steps"].pop()
        elif name.startswith("count."):
            wrong = copy.deepcopy(rep)
            key = name[len("count."):]
            wrong["layers"][key] = wrong["layers"][key] + 1
        else:
            mutate = _mutation_for(name)
            label = name.partition(".")[0]
            if mutate is None or label not in labels:
                problems.append(name)
                continue
            wrong = copy.deepcopy(rep)
            mutate(wrong["steps"][labels.index(label)])
        if dict(check_rep(wrong, expected)).get(name, False):
            problems.append(name)
    return problems
