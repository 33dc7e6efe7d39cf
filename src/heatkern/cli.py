"""Command-line front end.

Every command loads a weighted graph from ``--edges`` (plus an optional
``--measure``), reads a flat ``--config``, and writes %.17g-formatted
artifacts into ``--out`` when given: ``report.json`` with a fixed key
set, ``matrices.csv`` for kernel or matrix values, ``plot.tsv`` for
curves.  Exit status encodes the failure class: 0 on success, 1 when the
inputs are unusable, 2 when a mathematical certificate fails (starter
validation, series convergence, oracle agreement).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
from pathlib import Path
import sys
from typing import Callable

import numpy as np

from .errors import CertificateError, InputError, InvalidParametrix, ParseError
from .config import RunConfig, parse_config
from .graphio import (
    REPORT_KEYS,
    fmt,
    load_graph,
    write_matrix_csv,
    write_plot_tsv,
    write_report,
)
from .parametrix import (
    dirac_parametrix,
    profile_parametrix,
    rkhs_parametrix,
    spectral_parametrix,
    validate,
)
from .neumann import build_heat_kernel
from .spectral import eigh_weighted, expm_series, spectral_heat
from .space import generator
from .derived import (
    diagnostics,
    entropy,
    green_regularized,
    poisson_kernel,
    resistance_by_current,
    resistance,
    semigroup_defect,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own status on bad usage; route through the
    # input-error path instead so the exit-code contract stays intact.
    def error(self, message):
        raise ParseError(message)


def _parse_times(arg, default):
    if arg is None:
        return list(default)
    try:
        ts = [float(s) for s in arg.split(",") if s.strip()]
    except ValueError:
        raise ParseError(f"cannot read times from {arg!r}") from None
    if not ts or not all(0.0 <= t < math.inf for t in ts):
        raise ParseError(f"times must be finite and nonnegative, got {arg!r}")
    return ts


def _positive(arg):
    """--tol and --w: a finite positive number (NaN fails the test too)."""
    try:
        x = float(arg)
    except ValueError:
        x = math.nan
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {arg!r}")
    return x


def _make_parametrix(space, cond, cfg, args):
    kind = cfg.parametrix_kind
    if kind == "dirac":
        return dirac_parametrix(space, cond, cfg.laplacian, cfg.horizon)
    if kind == "profile":
        return profile_parametrix(space, cond, cfg.parametrix_profile,
                                  cfg.parametrix_order, cfg.laplacian,
                                  cfg.horizon)
    if kind == "spectral":
        n = cfg.parametrix_n_modes or space.n
        return spectral_parametrix(space, cond, n, cfg.laplacian, cfg.horizon)
    if args.gram is None:
        raise ParseError("parametrix.kind = rkhs needs --gram")
    try:
        G = np.loadtxt(args.gram, delimiter=",", ndmin=2)
    except OSError as e:
        raise ParseError(f"cannot read {args.gram}: {e}") from None
    return rkhs_parametrix(space, G, cond, cfg.laplacian, cfg.horizon)


def _grid(cfg):
    ts = [t for t in (0.1, 0.5, 1.0, 2.0, 5.0) if t <= cfg.horizon]
    return ts or [cfg.horizon / 2.0, cfg.horizon]


# ------------------------------------------------------------ subcommands
#
# Each handler runs after the dispatcher has loaded the graph, filled
# n_points and, for commands that build, constructed the kernel and filled
# terms_used and truncation_bound.  Handlers fill only their own fields.

# Diagnostics fields reported as defects; build reports a subset.
_DIAG_FIELDS = ("semigroup_defect", "min_value", "max_mass", "min_mass",
                "symmetry_defect", "mass_drift", "l2_monotone")
_BUILD_FIELDS = tuple(f for f in _DIAG_FIELDS if f not in ("min_mass", "l2_monotone"))


def _defects(result, fields):
    if result.weight.ndim == 2:
        # A matrix pairing has no measure: only the semigroup identity applies.
        return {"semigroup_defect": semigroup_defect(result)}
    diag = diagnostics(result)
    return {name: getattr(diag, name) for name in fields}


def _cmd_build(args, report, outdir, space, cond, cfg, result):
    report["defects"] = _defects(result, _BUILD_FIELDS)
    times = _parse_times(args.t, _grid(cfg))
    if outdir:
        write_matrix_csv(outdir / "matrices.csv", space,
                         [(t, result.K.at(t)) for t in times])
    print(f"built kernel on {space.n} points out to T={fmt(result.horizon)} "
          f"with {result.terms_used} terms "
          f"(certified error {result.truncation_bound:.3e})")


def _cmd_validate(args, report, outdir, space, cond, cfg, result):
    p = _make_parametrix(space, cond, cfg, args)
    rep = validate(p, tolerance=args.tol or cfg.validate_tolerance)
    report["defects"] = {
        "dirac_residual": rep.dirac_residual,
        "fitted_order": rep.fitted_order,
        "declared_order": rep.order_k,
        "flavors": rep.flavors,
    }
    if outdir:
        write_plot_tsv(outdir / "plot.tsv", ("t", "dirac_residual"),
                       zip(rep.residual_ts, rep.residual_values))
    verdict = "passed" if rep.passed else "failed"
    print(f"{p.family} starter {verdict}: dirac residual "
          f"{rep.dirac_residual:.3e}, fitted order {rep.fitted_order:.3g} "
          f"(declared {rep.order_k})")
    if not rep.passed:
        raise InvalidParametrix(
            f"{p.family} starter failed validation; see the residual curve"
        )


def _cmd_oracle(args, report, outdir, space, cond, cfg, result):
    spec = eigh_weighted(result.generator_matrix, result.weight)
    ts = _parse_times(args.t, _grid(cfg))
    rows, dev = [], 0.0
    for t in ts:
        d = float(np.max(np.abs(result.K.at(t) - spectral_heat(spec, t))))
        rows.append((t, d))
        dev = max(dev, d)
    t_mid = ts[len(ts) // 2]
    dev_expm = float(np.max(np.abs(
        result.K.at(t_mid)
        - expm_series(result.generator_matrix, t_mid) / result.weight[None, :]
    )))
    report["max_oracle_dev"] = dev
    report["defects"] = {"taylor_oracle_dev": dev_expm}
    if outdir:
        write_plot_tsv(outdir / "plot.tsv", ("t", "oracle_dev"), rows)
    threshold = args.tol if args.tol is not None else 1e-8
    print(f"max deviation from the eigensolver oracle: {dev:.3e} over "
          f"{len(ts)} times (threshold {threshold:.1e}); "
          f"series oracle at t={t_mid}: {dev_expm:.3e}")
    if dev > threshold:
        raise CertificateError(
            f"constructed kernel deviates from the spectral oracle by "
            f"{dev:.3e}, above the {threshold:.1e} threshold"
        )


def _cmd_green(args, report, outdir, space, cond, cfg, result):
    spec = eigh_weighted(result.generator_matrix, result.weight)
    tol = args.tol if args.tol is not None else 1e-8
    g = green_regularized(space, cond, spec, K=result, tol=tol)
    report["max_oracle_dev"] = g.agreement
    report["defects"] = {"tail_bound": g.tail_bound, "quad_error": g.quad_error}
    if outdir:
        write_matrix_csv(outdir / "matrices.csv", space, [(None, g.G_star)])
    print(f"green's function: spectral vs integrated kernel agree to "
          f"{g.agreement:.3e} (certified budget {g.budget:.3e})")
    if g.agreement > g.budget:
        raise CertificateError(
            f"green's function routes disagree by {g.agreement:.3e}, above "
            f"the certified budget {g.budget:.3e}"
        )


def _cmd_resistance(args, report, outdir, space, cond, cfg, result):
    A, mu = generator(space, cond, "combinatorial")
    spec = eigh_weighted(A, mu)
    R = resistance(space, cond, spec)
    if args.pair:
        labels = [s.strip() for s in args.pair.split(",")]
        if len(labels) != 2:
            raise ParseError(f"--pair wants 'x,y', got {args.pair!r}")
        x, y = labels
        r_spec = float(R[space.index(x), space.index(y)])
        r_flow = resistance_by_current(space, cond, x, y)
        dev = abs(r_spec - r_flow)
        report["max_oracle_dev"] = dev
        print(f"resistance R({x}, {y}) = {fmt(r_spec)} "
              f"(current-flow route {fmt(r_flow)}, deviation {dev:.3e})")
        threshold = args.tol if args.tol is not None else 1e-8
        if dev > threshold:
            raise CertificateError(
                f"resistance routes disagree by {dev:.3e}"
            )
    else:
        print(f"resistance matrix on {space.n} points; "
              f"max {fmt(float(np.max(R)))}")
    if outdir:
        write_matrix_csv(outdir / "matrices.csv", space, [(None, R)])


def _cmd_entropy(args, report, outdir, space, cond, cfg, result):
    default = np.geomspace(max(0.05, cfg.horizon * 1e-2), cfg.horizon, 30)
    ts = _parse_times(args.t, default)
    rows = [(t, entropy(result, args.point, t)) for t in ts]
    if outdir:
        write_plot_tsv(outdir / "plot.tsv", ("t", "entropy"), rows)
    t_last, e_last = rows[-1]
    print(f"entropy from {args.point} over {len(rows)} times; "
          f"E({args.point}, {fmt(t_last)}) = {fmt(e_last)}")


def _cmd_poisson(args, report, outdir, space, cond, cfg, result):
    spec = eigh_weighted(result.generator_matrix, result.weight)
    threshold = args.tol if args.tol is not None else 1e-6
    res = poisson_kernel(spec, result, w=args.w, tol=threshold / 10.0)
    report["max_oracle_dev"] = res.deviation
    report["defects"] = {"quad_levels": res.levels}
    if outdir:
        write_matrix_csv(outdir / "matrices.csv", space,
                         [(None, res.subordinated)])
    print(f"poisson kernel at w={fmt(args.w)}: subordination vs spectral "
          f"deviation {res.deviation:.3e} after {res.levels} refinements")
    if res.deviation > threshold:
        raise CertificateError(
            f"subordination route deviates from the spectral route by "
            f"{res.deviation:.3e}, above {threshold:.1e}"
        )


def _cmd_diagnostics(args, report, outdir, space, cond, cfg, result):
    report["defects"] = _defects(result, _DIAG_FIELDS)
    for key, val in report["defects"].items():
        print(f"{key}: {val if isinstance(val, bool) else fmt(val)}")


@dataclasses.dataclass(frozen=True)
class _Command:
    """One subcommand: its handler, whether the dispatcher builds a kernel
    first (under --tol as the build tolerance when tol_builds is set), and
    its arguments beyond the common ones."""

    run: Callable
    builds: bool = True
    tol_builds: bool = False
    extra: tuple = ()


_TIMES = ("--t", {"default": None, "help": "comma-separated evaluation times"})

COMMANDS = {
    "build": _Command(_cmd_build, tol_builds=True, extra=(_TIMES,)),
    "validate-parametrix": _Command(_cmd_validate, builds=False),
    "oracle-compare": _Command(_cmd_oracle, extra=(_TIMES,)),
    "green": _Command(_cmd_green),
    "resistance": _Command(_cmd_resistance, builds=False, extra=(
        ("--pair", {"default": None, "help": "two point labels: x,y"}),)),
    "entropy": _Command(_cmd_entropy, extra=(
        _TIMES, ("--point", {"required": True}))),
    "poisson": _Command(_cmd_poisson, extra=(
        ("--w", {"type": _positive, "default": 1.0}),)),
    "diagnostics": _Command(_cmd_diagnostics),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="heatkern", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--edges", required=True, help="edge list CSV: x,y,w")
        p.add_argument("--measure", help="measure CSV: x,lambda (default 1)")
        p.add_argument("--config", help="flat key=value run configuration")
        p.add_argument("--out", help="directory for report.json and friends")
        p.add_argument("--gram", help="gram matrix CSV for the rkhs starter")
        p.add_argument("--tol", type=_positive, default=None)
        for flag, options in command.extra:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    report = {k: None for k in REPORT_KEYS}
    report["defects"] = {}
    outdir = None
    try:
        # --out first, so that a usage error still lands in report.json
        pre = _Parser(add_help=False)
        pre.add_argument("--out")
        out = pre.parse_known_args(argv)[0].out
        if out:
            outdir = Path(out)
            outdir.mkdir(parents=True, exist_ok=True)
        args = _build_parser().parse_args(argv)
        report["command"] = args.command
        cfg = parse_config(args.config) if args.config else RunConfig()
        if outdir is None and cfg.outputs_dir:
            outdir = Path(cfg.outputs_dir)
            outdir.mkdir(parents=True, exist_ok=True)
        command = COMMANDS[args.command]
        space, cond, _deg = load_graph(args.edges, args.measure)
        report["n_points"] = space.n
        result = None
        if command.builds:
            if command.tol_builds and args.tol is not None:
                cfg = dataclasses.replace(cfg, tol=args.tol)
            result = build_heat_kernel(_make_parametrix(space, cond, cfg, args),
                                       cfg.horizon, tol=cfg.tol, max_terms=cfg.max_terms)
            report["terms_used"] = result.terms_used
            report["truncation_bound"] = result.truncation_bound
        command.run(args, report, outdir, space, cond, cfg, result)
        report["exit_reason"] = "ok"
        code = 0
    except InputError as e:
        report["exit_reason"] = f"input error: {type(e).__name__}: {e}"
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        code = 1
    except CertificateError as e:
        report["exit_reason"] = f"certificate failure: {type(e).__name__}: {e}"
        print(f"certificate failure: {type(e).__name__}: {e}", file=sys.stderr)
        code = 2
    if outdir is not None:
        write_report(outdir / "report.json", report)
    return code


if __name__ == "__main__":
    sys.exit(main())
