"""Command-line interface.

Subcommands::

    power     design-stage power (cp, pp, fbp, cbp) at given zo and c
    interim   interim power (cpi, ippi, ppi) at given zo, zi, c, f
    solve     smallest relative sample size c reaching a target power
    curve     power along a sample-size grid, as CSV rows for plotting
    ssrp      reports on the bundled 21-study replication dataset
    simulate  Monte-Carlo check of a closed-form power value

All subcommands accept ``--format``; ``json`` emits a stable envelope
``{"command", "inputs", "results", "warnings"}`` with sorted keys, and
the tabular commands (curve, ssrp) additionally accept ``csv``.  Exit
status: 0 on success, 2 on malformed or inconsistent arguments, 1 on
domain errors and infeasible targets.
"""
import argparse
import csv as _csv
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, _methods, design, interim, mc, solver, ssrp
from .design import (DesignConfig, FixedDesign, METHODS_FIXED,
                     METHODS_INTERIM)
from .interim import InterimState
from .normal import p_to_z

_TAGS = {m.lower(): m for m in _methods.METHODS}
_NOT_ECHOED = ("command", "format", "handler", "_parser")


def _typed(check, message):
    def parse(text):
        value = float(text)
        if not check(value):
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


_unit_open = _typed(lambda x: 0.0 < x < 1.0,
                    "must lie strictly between 0 and 1")
_unit_half_open = _typed(lambda x: 0.0 <= x < 1.0, "must lie in [0, 1)")
_positive = _typed(lambda x: np.isfinite(x) and x > 0.0,
                   "must be positive")
_finite = _typed(np.isfinite, "must be finite")


def _posint(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegint(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _range_arg(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:stop:step")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected numeric start:stop:step") from None
    if not all(np.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError("range values must be finite")
    if start <= 0.0 or stop <= start or step <= 0.0:
        raise argparse.ArgumentTypeError(
            "need 0 < start < stop and step > 0")
    return start, stop, step


def _range_grid(rng):
    start, stop, step = rng
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _add_format_arg(parser, tabular=False):
    choices = ("text", "csv", "json") if tabular else ("text", "json")
    parser.add_argument("--format", choices=choices, default="text",
                        help="output format")


def _add_config_args(parser):
    parser.add_argument("--alpha", type=_unit_open, default=0.05,
                        help="two-sided significance level (default 0.05)")
    parser.add_argument("--shrinkage", type=_unit_half_open, default=0.0,
                        help="discount on the original z (default 0)")
    parser.add_argument("--both-tails", action="store_true",
                        help="count rejections in either direction")


def _config(args):
    return DesignConfig(alpha=args.alpha, shrinkage=args.shrinkage,
                        both_tails=args.both_tails)


def _resolve_zo(args):
    """Original z from --zo or from --po with --dir; exactly one way."""
    parser = args._parser
    if args.zo is not None:
        if args.po is not None or args.dir is not None:
            parser.error("give either --zo or --po with --dir, not both")
        return args.zo
    if args.po is None:
        parser.error("one of --zo or --po (with --dir) is required")
    if args.dir is None:
        parser.error("--po needs --dir to fix the effect direction")
    return p_to_z(args.po, 1 if args.dir == "+" else -1)


def _csv_lines(header, rows):
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().splitlines()


def _inputs(args):
    """The parsed arguments, as echoed in the JSON envelope."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}


def _result_dict(res):
    return {"power": res.power, "supremum": res.supremum,
            "feasible_100": res.feasible_100}


def _power_lines(results):
    lines = []
    for method, vals in results.items():
        lines.append(f"{method:<5} power={vals['power']:.6f}  "
                     f"supremum={vals['supremum']:.6f}  "
                     f"feasible_100={'yes' if vals['feasible_100'] else 'no'}")
    return lines


def _cmd_power(args):
    zo = _resolve_zo(args)
    methods = (METHODS_FIXED if args.method == "all"
               else (_TAGS[args.method],))
    fixed = FixedDesign(zo, args.c)
    config = _config(args)
    results = {m: _result_dict(design._result(m, fixed, None, config))
               for m in methods}
    inputs = {"method": args.method, "zo": zo, "c": args.c,
              "alpha": args.alpha, "shrinkage": args.shrinkage,
              "both_tails": args.both_tails}
    return inputs, results, [], _power_lines(results), None


def _cmd_interim(args):
    methods = (METHODS_INTERIM if args.method == "all"
               else (_TAGS[args.method],))
    config = _config(args)
    state = InterimState(args.zi, args.f)
    warnings = []
    if args.f == 0.0:
        skipped = [m for m in methods if not _methods.METHODS[m].at_f0]
        methods = tuple(m for m in methods if m not in skipped)
        if not methods:
            args._parser.error("PPi needs a positive interim fraction "
                               "--f")
        warnings += [f"{m} is undefined at f = 0; skipped" for m in skipped]
    uses_zo = any("zo" in _methods.METHODS[m].needs for m in methods)
    if uses_zo and args.zo is None:
        args._parser.error("--zo is required for cpi and ippi")
    if uses_zo and args.c is None:
        args._parser.error("--c is required for cpi and ippi")
    # PPi depends on neither the original nor the total relative size
    fixed = FixedDesign(args.zo if args.zo is not None else 0.0,
                        args.c or 1.0)
    results = {m: _result_dict(design._result(m, fixed, state, config))
               for m in methods}
    if args.zo is not None and len(methods) == 3:
        held = interim.interim_ordering_holds(fixed, state, config)
        if held == "not_guaranteed":
            warnings.append("CPi >= IPPi >= PPi is not guaranteed for "
                            "these inputs")
    return _inputs(args), results, warnings, _power_lines(results), None


def _cmd_solve(args):
    try:
        request = solver.SolveRequest(
            method=_TAGS[args.method], target_power=args.target,
            zo=args.zo, zi=args.zi, f=args.f, c_stage1=args.c_stage1,
            c_lower=args.c_lower if args.c_lower is not None else 0.0,
            config=_config(args))
    except ValueError as exc:
        args._parser.error(str(exc))
    res = solver.solve_c(request)
    results = {"c": res.c, "power": res.power, "f": res.f}
    warnings = [res.warning] if res.warning else []
    lines = [f"c={res.c:.8g}", f"power={res.power:.6f}"]
    if res.f is not None:
        lines.append(f"f={res.f:.6g}")
    return _inputs(args), results, warnings, lines, None


def _cmd_curve(args):
    config = _config(args)
    method = _TAGS[args.method]
    entry = _methods.METHODS[method]
    parser = args._parser
    if not entry.interim:
        if args.c_range is None:
            parser.error(f"--c-range is required for {args.method}")
        if args.nj_range is not None:
            parser.error("--nj-range applies to interim methods only")
        if args.zo is None:
            parser.error(f"--zo is required for {args.method}")
        grid = _range_grid(args.c_range)
        power = design.design_power(method, args.zo, grid, config)
        axis = "c"
    else:
        if args.nj_range is None:
            parser.error(f"--nj-range is required for {args.method}")
        if args.c_range is not None:
            parser.error("--c-range applies to fixed-design methods only")
        if args.zi is None or args.c_stage1 is None:
            parser.error("interim curves need --zi and --c-stage1; the "
                         "grid is the remaining size nj / no")
        if "zo" in entry.needs and args.zo is None:
            parser.error(f"--zo is required for {args.method}")
        grid = _range_grid(args.nj_range)
        power = design._at(entry, args.zo, args.zi, args.c_stage1, grid,
                           config)
        axis = "nj_ratio"
    results = {"axis": axis, "x": [float(v) for v in grid],
               "power": [float(p) for p in power]}
    rows = [(f"{x:.10g}", f"{p:.10g}") for x, p in zip(grid, power)]
    lines = _csv_lines((axis, "power"), rows)
    return _inputs(args), results, [], lines, lines


# (header, row key, format) of each ssrp report's columns
_SSRP_COLUMNS = {
    "records": (("study", "study", ""), ("no", "no", ""), ("ni", "ni", ""),
                ("nr", "nr", ""), ("zo", "zo", ".3f"), ("zi", "zi", ".3f"),
                ("c", "c", ".4g"), ("f", "f", ".4g")),
    "interim": (("study", "study", ""), ("cpi_pct", "cpi", ".1f"),
                ("ippi_pct", "ippi", ".1f"), ("ppi_pct", "ppi", ".1f"),
                ("published_cpi", "ref_cpi", ".1f"),
                ("published_ippi", "ref_ippi", ".1f"),
                ("published_ppi", "ref_ppi", ".1f")),
    "design-powers": (("study", "study", ""), ("c_stage1", "c_stage1", ".3f"),
                      ("cp", "cp", ".4f"), ("pp", "pp", ".4f"),
                      ("fbp", "fbp", ".4f"), ("cbp", "cbp", ".4f")),
    "futility": (("study", "study", ""), ("power", "power", ".4f"),
                 ("stop", "stop", ""), ("replicated", "replicated", "")),
}


def _cell(value, spec):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return format(value, spec)


def _cmd_ssrp(args):
    records = ssrp.load_csv(args.data)
    inputs = {"report": args.report, "data": args.data}
    summary = []
    if args.report == "records":
        rows = []
        for rec in records:
            d = ssrp.derive(rec)
            rows.append({"study": rec.study, "no": rec.no, "ni": rec.ni,
                         "nr": rec.nr, "zo": d.zo, "zi": d.zi, "c": d.c,
                         "f": d.f, "continued": rec.continued})
        results = {"rows": rows}
    elif args.report == "interim":
        results = asdict(ssrp.reproduce_interim_powers(records))
        summary.append(f"largest deviation from published values: "
                       f"{results['max_abs_diff_pp']:.3f} percentage points")
    elif args.report == "design-powers":
        results = asdict(ssrp.reproduce_design_powers(
            records, shrinkage=args.shrinkage))
        inputs["shrinkage"] = args.shrinkage
        summary.append(
            f"CP >= PP in all rows: {results['cp_ge_pp_all']}; "
            f"CBP >= FBP in all rows: {results['cbp_ge_fbp_all']}; "
            f"FBP - PP changes sign: {results['fbp_pp_sign_varies']}")
    else:
        rule = solver.FutilityRule(method=_TAGS[args.futility_method],
                                   boundary=args.boundary)
        results = asdict(ssrp.futility_replay(records, rule))
        results.update(results.pop("rule"))
        inputs.update(futility_method=args.futility_method,
                      boundary=args.boundary)
        summary.append(
            f"rule {rule.method} < {rule.boundary:g}: stops "
            f"{results['n_failed_stopped']} of {results['n_failed']} failed "
            f"and {results['n_replicated_stopped']} of "
            f"{results['n_continued'] - results['n_failed']} successful "
            "replications")
    columns = _SSRP_COLUMNS[args.report]
    header = tuple(h for h, _, _ in columns)
    table = [tuple(_cell(row[key], spec) for _, key, spec in columns)
             for row in results["rows"]]
    return (inputs, results, [], _aligned(header, table) + summary,
            _csv_lines(header, table))


def _aligned(header, rows):
    cells = [tuple(str(v) for v in row) for row in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells))
              for i, h in enumerate(header)]
    def fmt(row):
        first = f"{row[0]:<{widths[0]}}"
        rest = [f"{v:>{widths[i]}}" for i, v in enumerate(row) if i > 0]
        return " ".join([first, *rest])
    return [fmt(header)] + [fmt(row) for row in cells]


def _cmd_simulate(args):
    try:
        spec = mc.SimSpec(method=_TAGS[args.method], c=args.c,
                          zo=args.zo, zi=args.zi, f=args.f,
                          n_sims=args.nsims, seed=args.seed, n_o=args.n_o,
                          config=_config(args))
    except ValueError as exc:
        args._parser.error(str(exc))
    res = mc.simulate_power(spec)
    exact = mc.closed_form(spec)
    z = ((res.estimate - exact) / res.std_err if res.std_err > 0.0
         else 0.0)
    results = {"estimate": res.estimate, "std_err": res.std_err,
               "n_success": res.n_success, "closed_form": exact,
               "z_score": z}
    lines = [f"estimate={res.estimate:.6f}",
             f"std_err={res.std_err:.6f}",
             f"closed_form={exact:.6f}",
             f"z_score={z:+.3f}"]
    return _inputs(args), results, [], lines, None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repower",
        description="Power of replication studies: design-stage and "
                    "interim methods, sample-size solving, and "
                    "Monte-Carlo checks.")
    parser.add_argument("--version", action="version",
                        version=f"repower {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", help="design-stage power")
    p.add_argument("--method", type=str.lower, default="all",
                   choices=(*(m.lower() for m in METHODS_FIXED), "all"))
    p.add_argument("--zo", type=_finite, default=None,
                   help="original z-statistic")
    p.add_argument("--po", type=_unit_open, default=None,
                   help="original two-sided p-value (needs --dir)")
    p.add_argument("--dir", choices=("+", "-"), default=None,
                   help="sign of the original effect when using --po")
    p.add_argument("--c", type=_positive, required=True,
                   help="relative sample size nr / no")
    _add_config_args(p)
    _add_format_arg(p)
    p.set_defaults(handler=_cmd_power, _parser=p)

    p = sub.add_parser("interim", help="interim power")
    p.add_argument("--method", type=str.lower, default="all",
                   choices=(*(m.lower() for m in METHODS_INTERIM), "all"))
    p.add_argument("--zo", type=_finite, default=None,
                   help="original z-statistic (cpi and ippi)")
    p.add_argument("--zi", type=_finite, required=True,
                   help="interim z-statistic")
    p.add_argument("--c", type=_positive, default=None,
                   help="relative total sample size nr / no")
    p.add_argument("--f", type=_unit_half_open, required=True,
                   help="interim fraction ni / nr")
    _add_config_args(p)
    _add_format_arg(p)
    p.set_defaults(handler=_cmd_interim, _parser=p)

    p = sub.add_parser("solve",
                       help="smallest c reaching a target power")
    p.add_argument("--method", type=str.lower, required=True,
                   choices=tuple(_TAGS))
    p.add_argument("--target", type=_unit_open, required=True)
    p.add_argument("--zo", type=_finite, default=None)
    p.add_argument("--zi", type=_finite, default=None)
    p.add_argument("--f", type=_unit_open, default=None,
                   help="hold the interim fraction fixed")
    p.add_argument("--c-stage1", type=_positive, default=None,
                   help="hold ni / no fixed and grow the remainder")
    p.add_argument("--c-lower", type=_positive, default=None,
                   help="lower bound for the search")
    _add_config_args(p)
    _add_format_arg(p)
    p.set_defaults(handler=_cmd_solve, _parser=p)

    p = sub.add_parser("curve", help="power along a sample-size grid")
    p.add_argument("--method", type=str.lower, required=True,
                   choices=tuple(_TAGS))
    p.add_argument("--zo", type=_finite, default=None)
    p.add_argument("--zi", type=_finite, default=None)
    p.add_argument("--c-stage1", type=_positive, default=None,
                   help="ni / no (interim methods)")
    p.add_argument("--c-range", type=_range_arg, default=None,
                   metavar="START:STOP:STEP",
                   help="grid of c values (fixed-design methods)")
    p.add_argument("--nj-range", type=_range_arg, default=None,
                   metavar="START:STOP:STEP",
                   help="grid of nj / no values (interim methods)")
    _add_config_args(p)
    _add_format_arg(p, tabular=True)
    p.set_defaults(handler=_cmd_curve, _parser=p)

    p = sub.add_parser("ssrp", help="bundled replication dataset")
    p.add_argument("--report", default="interim",
                   choices=("records", "interim", "design-powers",
                            "futility"))
    p.add_argument("--data", default=None,
                   help="alternative dataset CSV path")
    p.add_argument("--shrinkage", type=_unit_half_open, default=0.25,
                   help="shrinkage for design-powers (default 0.25)")
    p.add_argument("--futility-method", type=str.lower, default="ippi",
                   choices=("ippi", "ppi"))
    p.add_argument("--boundary", type=_unit_open, default=0.30,
                   help="futility boundary (default 0.30)")
    _add_format_arg(p, tabular=True)
    p.set_defaults(handler=_cmd_ssrp, _parser=p)

    p = sub.add_parser("simulate", help="Monte-Carlo power check")
    p.add_argument("--method", type=str.lower, required=True,
                   choices=tuple(_TAGS))
    p.add_argument("--zo", type=_finite, default=None)
    p.add_argument("--zi", type=_finite, default=None)
    p.add_argument("--c", type=_positive, required=True)
    p.add_argument("--f", type=_unit_open, default=None)
    p.add_argument("--nsims", type=_posint, default=100_000)
    p.add_argument("--seed", type=_nonnegint, default=0)
    p.add_argument("--n-o", type=_positive, default=1000.0,
                   help="nominal original sample size")
    _add_config_args(p)
    _add_format_arg(p)
    p.set_defaults(handler=_cmd_simulate, _parser=p)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, results, warnings, lines, csv_lines = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        envelope = {"command": args.command, "inputs": inputs,
                    "results": results, "warnings": warnings}
        print(json.dumps(envelope, indent=2, sort_keys=True))
    elif args.format == "csv":
        for line in csv_lines:
            print(line)
    else:
        for w in warnings:
            print(f"warning: {w}")
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
