"""Command-line front end.

Subcommands cover the whole pipeline: Severi degrees (single values and CSV
tables), the multiplicative fit with its universal polynomials and B-series,
evaluation on arbitrary class vectors, basis decomposition, double point
bookkeeping, fixed-genus products, held-out validation, and the quasimodular
form catalog.

Every JSON document embeds a schema version and echoes the mathematical
parameters of the run, so a run is reproducible from its own output.  The
timestamp is the only nondeterministic field and --no-timestamp suppresses
it; execution details (cache path, output format) do not affect results
and are not echoed.  Each handler returns its output as an iterable of
text pieces, which main writes only after the run and its cache save
succeed; fit formats each term of its T section only as it is written.
Only the five subcommands that print more than one format (severi,
severi-table, evaluate, decompose, genus-series) take --output.  Only the
six that open a Severi table (severi, severi-table, fit,
evaluate, genus-series, validate) take --cache, the one way to name the
append-only cache file; each loads it once before it runs and saves it once
after it succeeds, genus-series included when it needs no fit.  Evaluation
runs on one thread; fit and severi-table accept --threads and ignore it.
fit, evaluate and validate take the fit's inputs as --degrees and --k3.
genus-series takes neither: its series depends on the fit only through B1
and B2, which are the same for every fit that meets d >= r, so it fits at
degrees (order, order + 1), the lowest that bound accepts, with K3 squares
2 and 4.
Exit codes: 0 success, 2 validation error (including an unusable --cache
path), 3 mathematical inconsistency detected, with the document still
printed: a nonzero fit residual or a B1..B4 coefficient that is not an
integer (fit, a fit-backed genus-series), a fit that mispredicts the plane
degree just below its inputs (fit, evaluate, validate, a fit-backed
genus-series), or a mismatch at validate's held-out degree.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from .cobordism import (
    DoublePointData,
    PairClass,
    close_relation,
    convert,
    decompose,
)
from .quasimodular import FormCatalog
from .severi import (
    SeveriKey,
    SeveriTable,
    TangencyProfile,
    build_order,
    check_threshold,
    severi,
    severi_relative,
)
from .universal import (
    FitConfig,
    check_genus_series,
    default_config,
    evaluate,
    fit_A,
    fit_B,
    genus_series,
    held_out_ok,
    universal_T,
    validate_p2,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3


def _precompute(table: SeveriTable, pairs):
    """Evaluate the top-level Severi keys once each, in build_order, so the
    table builds each pair once, at the prefix the degree needs.

    No output depends on it.  It stays because perfbench pins severi.calls,
    and it makes 14 of fit-deep's 16 calls and 186 of cache-roundtrip's 347."""
    for d, delta in build_order(pairs):
        severi(d, delta, table)


def _ints(text: str, count: int, flag: str) -> list[int]:
    """The comma-separated integers of a flag's value; exactly count of them."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise ValueError(f"{flag} takes {count} comma-separated integers, got {text!r}")
    return values


def _build_fit(args, table: SeveriTable):
    if args.degrees is not None:
        d1, d2 = _ints(args.degrees, 2, "--degrees")
    else:
        base = default_config(args.order)
        d1, d2 = base.d1, base.d2
    s1, s2 = _ints(args.k3, 2, "--k3")
    config = FitConfig(order=args.order, d1=d1, d2=d2, s1=s1, s2=s2)
    _precompute(
        table,
        [(config.d1, r) for r in range(config.order + 1)]
        + [(config.d2, r) for r in range(config.order + 1)],
    )
    return fit_A(config, table)


def _emit(args, command: str, config: dict, result: dict) -> list[str]:
    """The document as one piece: json.dumps(sort_keys=True, indent=2) and a newline."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
    }
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return [json.dumps(doc, sort_keys=True, indent=2) + "\n"]


# what json.dumps(sort_keys=True, indent=2) writes for fit's result["T"] = [];
# "T" is the only key at indent 4 named so, under result
_T_SLOT = '\n    "T": []'

# one term of T_r at indent 10, after its separator, in json.dumps's layout
_TERM = (
    '%s          {\n            "coeff": "%s",\n            "exponents": [\n'
    "              %d,\n              %d,\n              %d,\n              %d\n"
    "            ]\n          }"
)


def _t_parts(polynomials):
    """Fit's "T" list in the layout _T_SLOT stands for, one term at a time;
    no term dict is built."""
    yield '\n    "T": ['
    for r, poly in enumerate(polynomials):
        yield '%s\n      {\n        "r": %d,\n        "terms": [' % ("," if r else "", r)
        for i, (e, c) in enumerate(poly.terms):
            yield _TERM % (",\n" if i else "\n", c, *e)
        yield "\n        ]\n      }" if poly.terms else "]\n      }"
    yield "\n    ]"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_severi(args, table: SeveriTable) -> tuple[list[str], int]:
    if args.delta < 0:
        raise ValueError(f"--delta must be nonnegative, got {args.delta}")
    alpha = TangencyProfile.parse(args.alpha) if args.alpha else TangencyProfile.empty()
    if args.beta:
        beta = TangencyProfile.parse(args.beta)
    else:
        beta = TangencyProfile.simple(max(args.d - alpha.weight, 0))
    key = SeveriKey(args.d, args.delta, alpha, beta)
    value = severi_relative(key, table)
    config = {"d": args.d, "delta": args.delta, "alpha": alpha.tokens(), "beta": beta.tokens()}
    if args.output == "pretty":
        return [f"N({key.canonical()}) = {value}\n"], EXIT_OK
    return _emit(args, "severi", config, {"value": str(value)}), EXIT_OK


def cmd_severi_table(args, table: SeveriTable) -> tuple[list[str], int]:
    for flag, bound in (("--dmax", args.dmax), ("--deltamax", args.deltamax)):
        if bound < 0:
            raise ValueError(f"{flag} must be nonnegative, got {bound}")
    pairs = [(d, k) for d in range(1, args.dmax + 1) for k in range(0, args.deltamax + 1)]
    _precompute(table, pairs)
    values = [severi(d, k, table) for d, k in pairs]
    if args.output == "json":
        rows = [{"d": d, "delta": k, "value": str(v)} for (d, k), v in zip(pairs, values)]
        config = {"dmax": args.dmax, "deltamax": args.deltamax}
        return _emit(args, "severi-table", config, {"rows": rows}), EXIT_OK
    lines = ["d,delta,value"] + [f"{d},{k},{v}" for (d, k), v in zip(pairs, values)]
    return ["\n".join(lines) + "\n"], EXIT_OK


def cmd_fit(args, table: SeveriTable) -> tuple[itertools.chain[str], int]:
    """Everything that can raise or sets the status is computed here; the
    T section is a generator that formats each term as main writes it."""
    fit = _build_fit(args, table)
    gyz = fit_B(fit)
    polynomials = [universal_T(r, fit) for r in range(fit.order + 1)]
    result = {
        "A": [s.to_json_dict() for s in fit.a],
        "logA": [s.to_json_dict() for s in fit.log_a],
        "B": {
            "B1": gyz.b1.to_json_dict(),
            "B2": gyz.b2.to_json_dict(),
            "B3": gyz.b3.to_json_dict(),
            "B4": gyz.b4.to_json_dict(),
        },
        "residuals": {
            "dg2_identity": gyz.residuals.dg2_identity.to_json_dict(),
            "delta_identity": gyz.residuals.delta_identity.to_json_dict(),
            "ok": gyz.residuals.ok,
        },
        "T": [],
    }
    config = fit.config.to_json_dict()
    config["q_order"] = gyz.q_order
    status = EXIT_OK if gyz.consistent and held_out_ok(fit, table) else EXIT_INCONSISTENT
    (text,) = _emit(args, "fit", config, result)
    head, _, tail = text.partition(_T_SLOT)
    return itertools.chain((head,), _t_parts(polynomials), (tail,)), status


def cmd_evaluate(args, table: SeveriTable) -> tuple[list[str], int]:
    v = PairClass(args.L2, args.LK, args.c1sq, args.c2)
    fit = _build_fit(args, table)
    series = evaluate(v, fit, args.order)
    config = fit.config.to_json_dict()
    config["vector"] = v.to_json_dict()
    status = EXIT_OK if held_out_ok(fit, table) else EXIT_INCONSISTENT
    if args.output == "pretty":
        return [f"{series.pretty()}\n"], status
    return _emit(args, "evaluate", config, {"series": series.to_json_dict()}), status


def cmd_decompose(args) -> tuple[list[str], int]:
    v = PairClass(args.L2, args.LK, args.c1sq, args.c2)
    coeffs = decompose(v)
    result = coeffs.to_json_dict()
    if args.alt:
        result["alt"] = convert(v).to_json_dict()
    if args.output == "pretty":
        return [f"a1={coeffs.a1} a2={coeffs.a2} a3={coeffs.a3} a4={coeffs.a4}\n"], EXIT_OK
    return _emit(args, "decompose", {"vector": v.to_json_dict()}, result), EXIT_OK


def cmd_close_relation(args) -> tuple[list[str], int]:
    v1 = PairClass(*_ints(args.v1, 4, "--v1"))
    v2 = PairClass(*_ints(args.v2, 4, "--v2"))
    dpd = DoublePointData(gD=args.gD, degLD=args.degLD)
    v3, v0 = close_relation(v1, v2, dpd)
    config = {
        "v1": v1.to_json_dict(),
        "v2": v2.to_json_dict(),
        "gD": args.gD,
        "degLD": args.degLD,
    }
    result = {"v3": v3.to_json_dict(), "v0": v0.to_json_dict()}
    return _emit(args, "close-relation", config, result), EXIT_OK


def cmd_genus_series(args, table: SeveriTable) -> tuple[list[str], int]:
    check_genus_series(args.r, args.order)
    gyz = None
    status = EXIT_OK
    if args.Ksq or args.m:
        # B1 and B2 are the same for every fit that meets d >= r, so the
        # printed series does not depend on the fit's inputs: fit at the
        # lowest degrees check_threshold accepts
        fit = fit_A(FitConfig(order=args.order, d1=args.order, d2=args.order + 1), table)
        gyz = fit_B(fit)
        if not (gyz.consistent and held_out_ok(fit, table)):
            status = EXIT_INCONSISTENT
    series = genus_series(args.r, args.Ksq, args.m, args.chiO, args.order, gyz)
    config = {
        "r": args.r,
        "Ksq": args.Ksq,
        "m": args.m,
        "chiO": args.chiO,
        "order": args.order,
    }
    if args.output == "pretty":
        return [f"{series.pretty()}\n"], status
    return _emit(args, "genus-series", config, {"series": series.to_json_dict()}), status


def cmd_validate(args, table: SeveriTable) -> tuple[list[str], int]:
    check_threshold(args.d, args.order)
    fit = _build_fit(args, table)
    _precompute(table, [(args.d, r) for r in range(args.order + 1)])
    report = validate_p2(args.d, fit, args.order, table)
    config = fit.config.to_json_dict()
    config["held_out_degree"] = args.d
    status = EXIT_OK if report.match and held_out_ok(fit, table) else EXIT_INCONSISTENT
    return _emit(args, "validate", config, report.to_json_dict()), status


def cmd_forms(args) -> tuple[list[str], int]:
    catalog = FormCatalog.build(args.order)
    return _emit(args, "forms", {"order": args.order}, catalog.to_json_dict()), EXIT_OK


# ----------------------------------------------------------------------
# parser and entry points
# ----------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, formats=()):
    """--no-timestamp, and --output offering formats, the first the default, if any."""
    if formats:
        parser.add_argument("--output", choices=formats, default=formats[0])
    parser.add_argument("--no-timestamp", action="store_true")


def _add_table_flags(parser: argparse.ArgumentParser, threads=False):
    """The flags of the subcommands that open a Severi table."""
    parser.add_argument("--cache", default=None, help="append-only Severi cache file")
    if threads:  # only fit and severi-table, the subcommands the benchmark passes it to
        parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")


def _add_fit_params(parser: argparse.ArgumentParser, threads=False):
    """The fit's inputs of fit, evaluate and validate, which also open a Severi table."""
    _add_table_flags(parser, threads)
    parser.add_argument("--degrees", default=None, help="two plane degrees, e.g. 9,10")
    parser.add_argument("--k3", default="2,4", help="two even K3 squares (default 2,4)")


def _add_severi(sub):
    p = sub.add_parser("severi", help="one generalized Severi degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--alpha", default=None, help='assigned contacts, e.g. "1^2,2^1"')
    p.add_argument("--beta", default=None, help="unassigned contacts; defaults to transverse")
    _add_common(p, ("json", "pretty"))
    _add_table_flags(p)
    p.set_defaults(handler=cmd_severi)


def _add_severi_table(sub):
    p = sub.add_parser("severi-table", help="CSV or JSON table of plain Severi degrees")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--deltamax", type=int, required=True)
    _add_common(p, ("csv", "json"))
    _add_table_flags(p, threads=True)
    p.set_defaults(handler=cmd_severi_table)


def _add_fit(sub):
    p = sub.add_parser("fit", help="solve for A1..A4, B1..B4 and the polynomials T_r")
    p.add_argument("--order", type=int, required=True)
    _add_fit_params(p, threads=True)
    _add_common(p)
    p.set_defaults(handler=cmd_fit)


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="the fitted series on a class vector")
    p.add_argument("--L2", type=int, required=True)
    p.add_argument("--LK", type=int, required=True)
    p.add_argument("--c1sq", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_fit_params(p)
    _add_common(p, ("json", "pretty"))
    p.set_defaults(handler=cmd_evaluate)


def _add_decompose(sub):
    p = sub.add_parser("decompose", help="coefficients on the standard basis")
    p.add_argument("--L2", type=int, required=True)
    p.add_argument("--LK", type=int, required=True)
    p.add_argument("--c1sq", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--alt", action="store_true", help="also emit (LK, chiL, chiO, Ksq)")
    _add_common(p, ("json", "pretty"))
    p.set_defaults(handler=cmd_decompose)


def _add_close_relation(sub):
    p = sub.add_parser("close-relation", help="ruled correction term and completed vector")
    p.add_argument("--v1", required=True, help="L2,LK,c1sq,c2")
    p.add_argument("--v2", required=True, help="L2,LK,c1sq,c2")
    p.add_argument("--gD", type=int, required=True)
    p.add_argument("--degLD", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_close_relation)


def _add_genus_series(sub):
    p = sub.add_parser("genus-series", help="the fixed-genus q-product")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--Ksq", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--chiO", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_table_flags(p)
    _add_common(p, ("json", "pretty"))
    p.set_defaults(handler=cmd_genus_series)


def _add_validate(sub):
    p = sub.add_parser("validate", help="held-out plane degree against the fit")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_fit_params(p)
    _add_common(p)
    p.set_defaults(handler=cmd_validate)


def _add_forms(sub):
    p = sub.add_parser("forms", help="q-expansions of G2, DG2, D2G2, Delta")
    p.add_argument("--order", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_forms)


# in the order --help lists them
_SUBCOMMANDS = {
    "severi": _add_severi,
    "severi-table": _add_severi_table,
    "fit": _add_fit,
    "evaluate": _add_evaluate,
    "decompose": _add_decompose,
    "close-relation": _add_close_relation,
    "genus-series": _add_genus_series,
    "validate": _add_validate,
    "forms": _add_forms,
}


def _parser(names, metavar=None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodalcurves",
        description="Exact nodal-curve counting: Severi degrees, universal polynomials, B-series.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _SUBCOMMANDS[name](sub)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of all nine subcommands."""
    return _parser(_SUBCOMMANDS)


def _parser_for(argv: list[str]) -> argparse.ArgumentParser:
    """The parser main uses: only the subcommand argv[0] names, if it names one.

    Every run then skips building the other eight.  The metavar keeps all
    nine names in the usage line, which an unrecognized trailing argument
    prints; the full parser leaves metavar unset, since setting it would
    also rename the positional in the errors for a missing or unknown
    command.  Any other argv, such as [], ["-h"] or an unknown command, gets
    the full parser.
    """
    if argv and argv[0] in _SUBCOMMANDS:
        return _parser([argv[0]], "{" + ",".join(_SUBCOMMANDS) + "}")
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser_for(argv).parse_args(argv)
    try:
        if "cache" in args:  # the subcommands that open a Severi table
            table = SeveriTable.load(args.cache) if args.cache else SeveriTable()
            pieces, status = args.handler(args, table)
            if args.cache:
                table.save(args.cache)
        else:
            pieces, status = args.handler(args)
    except (ValueError, OSError) as exc:
        error = {"error": {"code": EXIT_VALIDATION, "message": str(exc)}}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return EXIT_VALIDATION
    except AssertionError as exc:
        error = {"error": {"code": EXIT_INCONSISTENT, "message": str(exc)}}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return EXIT_INCONSISTENT
    sys.stdout.writelines(pieces)  # looked up now, so redirect_stdout applies
    return status


def console_main():
    raise SystemExit(main())
