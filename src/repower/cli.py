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

Each flag is declared once, in the flag table ``_FLAGS``, with types
that apply the input rules of ``_methods``; ``_COMMANDS`` lists each
subcommand's flags in usage order for ``build_parser``.  Each handler
imports the modules it runs, so a command loads only those: ``power``
needs neither ``interim``, ``solver``, ``ssrp`` nor ``mc``.
"""
import argparse
import math
import sys

from . import __version__, _methods, design
from .design import (DesignConfig, FixedDesign, METHODS_FIXED,
                     METHODS_INTERIM)
from .normal import p_to_z

_TAGS = {m.lower(): m for m in _methods.METHODS}
_NOT_ECHOED = ("command", "format", "handler", "_parser")


def _typed(rule, message, cast=float):
    """An argparse type: ``cast``, then a ``_methods`` input rule that
    fails with ``message``; argparse names the cast on a parse error."""
    def parse(text):
        value = cast(text)
        try:
            rule("value", value)
        except ValueError:
            raise argparse.ArgumentTypeError(message) from None
        return value
    parse.__name__ = cast.__name__
    return parse


_finite = _typed(_methods.finite, "must be finite")
_positive = _typed(_methods.positive, "must be positive")
_unit_open = _typed(_methods.unit, "must lie strictly between 0 and 1")
_unit_half_open = _typed(_methods.fraction, "must lie in [0, 1)")


def _range_arg(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:stop:step")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected numeric start:stop:step") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError("range values must be finite")
    if start <= 0.0 or stop <= start or step <= 0.0:
        raise argparse.ArgumentTypeError(
            "need 0 < start < stop and step > 0")
    # the grid has floor((stop - start) / step + 1e-9) + 1 points
    if not (stop - start) / step + 1e-9 < 1e6:
        raise argparse.ArgumentTypeError("more than 1000000 points")
    return start, stop, step


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
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().splitlines()


def _powers(methods, fixed, state, config):
    """Each method's power and supremum, as JSON results and text lines."""
    results, lines = {}, []
    for m in methods:
        res = design._result(m, fixed, state, config)
        results[m] = {"power": res.power, "supremum": res.supremum,
                      "feasible_100": res.feasible_100}
        lines.append(f"{m:<5} power={res.power:.6f}  "
                     f"supremum={res.supremum:.6f}  "
                     f"feasible_100={'yes' if res.feasible_100 else 'no'}")
    return results, lines


def _usage(args, build, **kwargs):
    """``build(**kwargs)``, with the library's ValueError a usage error."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        args._parser.error(str(exc))


def _cmd_power(args):
    # the echo shows the resolved zo in place of --po and --dir
    args.zo = _resolve_zo(args)
    del args.po, args.dir
    methods = (METHODS_FIXED if args.method == "all"
               else (_TAGS[args.method],))
    results, lines = _powers(methods, FixedDesign(args.zo, args.c), None,
                             _config(args))
    return results, [], lines, None


def _cmd_interim(args):
    from . import interim
    methods = (METHODS_INTERIM if args.method == "all"
               else (_TAGS[args.method],))
    config = _config(args)
    state = interim.InterimState(args.zi, args.f)
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
    results, lines = _powers(methods, fixed, state, config)
    if args.zo is not None and len(methods) == 3:
        held = interim.interim_ordering_holds(fixed, state, config)
        if held == "not_guaranteed":
            warnings.append("CPi >= IPPi >= PPi is not guaranteed for "
                            "these inputs")
    return results, warnings, lines, None


def _cmd_solve(args):
    from . import solver
    res = solver.solve_c(_usage(
        args, solver.SolveRequest, method=_TAGS[args.method],
        target_power=args.target, zo=args.zo, zi=args.zi, f=args.f,
        c_stage1=args.c_stage1,
        c_lower=args.c_lower if args.c_lower is not None else 0.0,
        config=_config(args)))
    results = {"c": res.c, "power": res.power, "f": res.f}
    warnings = [res.warning] if res.warning else []
    lines = [f"c={res.c:.8g}", f"power={res.power:.6f}"]
    if res.f is not None:
        lines.append(f"f={res.f:.6g}")
    return results, warnings, lines, None


def _cmd_curve(args):
    entry = _methods.METHODS[_TAGS[args.method]]
    parser = args._parser
    if not entry.interim:
        if args.c_range is None:
            parser.error(f"--c-range is required for {args.method}")
        if args.nj_range is not None:
            parser.error("--nj-range applies to interim methods only")
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
    # a fixed design is the case s = 0, with the whole grid still to come
    axis, rng, zi, s = (("nj_ratio", args.nj_range, args.zi, args.c_stage1)
                        if entry.interim else ("c", args.c_range, None, 0.0))
    # np.arange's points, on floats: each point is on the float path
    start, stop, step = rng
    grid = [start + step * float(k)
            for k in range(math.floor((stop - start) / step + 1e-9) + 1)]
    config = _config(args)
    for x in grid:
        _methods.size(axis, x)
    power = [design._at(entry, args.zo, zi, s, x, config) for x in grid]
    results = {"axis": axis, "x": grid, "power": power}
    rows = [(f"{x:.10g}", f"{p:.10g}") for x, p in zip(grid, power)]
    lines = _csv_lines((axis, "power"), rows)
    return results, [], lines, lines


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
    from dataclasses import asdict

    from . import interim, ssrp
    records = ssrp.load_csv(args.data)
    # the echo shows only the flags this report reads
    if args.report != "design-powers":
        del args.shrinkage
    if args.report != "futility":
        del args.futility_method, args.boundary
    summary = []
    if args.report == "records":
        results = {"rows": [
            {"study": rec.study, "no": rec.no, "ni": rec.ni, "nr": rec.nr,
             "zo": d.zo, "zi": d.zi, "c": d.c, "f": d.f,
             "continued": rec.continued}
            for rec, d in ssrp._derived(records)]}
    elif args.report == "interim":
        results = asdict(ssrp.reproduce_interim_powers(records))
        summary.append(f"largest deviation from published values: "
                       f"{results['max_abs_diff_pp']:.3f} percentage points")
    elif args.report == "design-powers":
        results = asdict(ssrp.reproduce_design_powers(
            records, shrinkage=args.shrinkage))
        summary.append(
            f"CP >= PP in all rows: {results['cp_ge_pp_all']}; "
            f"CBP >= FBP in all rows: {results['cbp_ge_fbp_all']}; "
            f"FBP - PP changes sign: {results['fbp_pp_sign_varies']}")
    else:
        rule = interim.FutilityRule(method=_TAGS[args.futility_method],
                                    boundary=args.boundary)
        results = asdict(ssrp.futility_replay(records, rule))
        results.update(results.pop("rule"))
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
    return (results, [], _aligned(header, table) + summary,
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
    from . import mc
    spec = _usage(args, mc.SimSpec, method=_TAGS[args.method], c=args.c,
                  zo=args.zo, zi=args.zi, f=args.f, n_sims=args.nsims,
                  seed=args.seed, n_o=args.n_o, config=_config(args))
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
    return results, [], lines, None


# the argparse keywords of each flag; where a flag's meaning differs
# between subcommands, "--flag/variant" keys its second entry
_FLAGS = {
    "--method": dict(type=str.lower, choices=tuple(_TAGS),
                     help="power method"),
    "--method/fixed": dict(type=str.lower, default="all", help="power method",
                           choices=(*map(str.lower, METHODS_FIXED), "all")),
    "--method/interim": dict(
        type=str.lower, default="all", help="power method",
        choices=(*map(str.lower, METHODS_INTERIM), "all")),
    "--target": dict(type=_unit_open, help="power to reach"),
    "--zo": dict(type=_finite, help="original z-statistic"),
    "--po": dict(type=_unit_open,
                 help="original two-sided p-value (needs --dir)"),
    "--dir": dict(choices=("+", "-"),
                  help="sign of the original effect when using --po"),
    "--zi": dict(type=_finite, help="interim z-statistic"),
    "--c": dict(type=_positive, help="relative sample size nr / no"),
    "--f": dict(type=_unit_open, help="interim fraction ni / nr"),
    "--f/interim": dict(type=_unit_half_open,
                        help="interim fraction ni / nr, 0 before any data"),
    "--c-stage1": dict(type=_positive, help="ni / no (interim methods)"),
    "--c-lower": dict(type=_positive, help="lower bound for the search"),
    "--c-range": dict(type=_range_arg, metavar="START:STOP:STEP",
                      help="grid of c values (fixed-design methods)"),
    "--nj-range": dict(type=_range_arg, metavar="START:STOP:STEP",
                       help="grid of nj / no values (interim methods)"),
    "--report": dict(default="interim", choices=tuple(_SSRP_COLUMNS)),
    "--data": dict(help="alternative dataset CSV path"),
    "--futility-method": dict(type=str.lower, default="ippi", choices=tuple(
        map(str.lower, _methods.FUTILITY_METHODS))),
    "--boundary": dict(type=_unit_open, default=0.30,
                       help="futility boundary (default 0.30)"),
    "--nsims": dict(type=_typed(_methods.positive,
                                "must be a positive integer", int),
                    default=100_000, help="draws (default 100000)"),
    # an integer n is nonnegative where n + 1 is positive
    "--seed": dict(type=_typed(lambda name, n: _methods.positive(name, n + 1),
                               "must be a nonnegative integer", int),
                   default=0, help="random seed (default 0)"),
    "--n-o": dict(type=_positive, default=1000.0,
                  help="nominal original sample size"),
    "--alpha": dict(type=_unit_open, default=0.05,
                    help="two-sided significance level (default 0.05)"),
    "--shrinkage": dict(type=_unit_half_open, default=0.0,
                        help="discount on the original z (default 0)"),
    "--shrinkage/ssrp": dict(type=_unit_half_open, default=0.25,
                             help="design-powers shrinkage (default 0.25)"),
    "--both-tails": dict(action="store_true",
                         help="count rejections in either direction"),
    "--format": dict(choices=("text", "json"), default="text",
                     help="output format"),
    "--format/tabular": dict(choices=("text", "csv", "json"),
                             default="text", help="output format"),
}
_CONFIG = ("--alpha", "--shrinkage", "--both-tails")
# each subcommand's help, handler and flags in usage order; a trailing
# "!" marks a required flag
_COMMANDS = {
    "power": ("design-stage power", _cmd_power,
              ("--method/fixed", "--zo", "--po", "--dir", "--c!", *_CONFIG,
               "--format")),
    "interim": ("interim power", _cmd_interim,
                ("--method/interim", "--zo", "--zi!", "--c", "--f/interim!",
                 *_CONFIG, "--format")),
    "solve": ("smallest c reaching a target power", _cmd_solve,
              ("--method!", "--target!", "--zo", "--zi", "--f", "--c-stage1",
               "--c-lower", *_CONFIG, "--format")),
    "curve": ("power along a sample-size grid", _cmd_curve,
              ("--method!", "--zo", "--zi", "--c-stage1", "--c-range",
               "--nj-range", *_CONFIG, "--format/tabular")),
    "ssrp": ("bundled replication dataset", _cmd_ssrp,
             ("--report", "--data", "--shrinkage/ssrp", "--futility-method",
              "--boundary", "--format/tabular")),
    "simulate": ("Monte-Carlo power check", _cmd_simulate,
                 ("--method!", "--zo", "--zi", "--c!", "--f", "--nsims",
                  "--seed", "--n-o", *_CONFIG, "--format")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repower",
        description="Power of replication studies: design-stage and "
                    "interim methods, sample-size solving, and "
                    "Monte-Carlo checks.")
    parser.add_argument("--version", action="version",
                        version=f"repower {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for key in flags:
            entry = key.rstrip("!")
            p.add_argument(entry.split("/")[0], required=key != entry,
                           **_FLAGS[entry])
        p.set_defaults(handler=handler, _parser=p)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        results, warnings, lines, csv_lines = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json
        inputs = {k: v for k, v in vars(args).items()
                  if k not in _NOT_ECHOED}
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
