"""Command-line interface: each subcommand maps its flags to package calls.

Subcommands: simulate (emit an ASC realization), estimate (ASC grid with
optional quality mask to per-direction variogram CSV), contaminate (plant
outliers into an ASC), study-corrfac / study-biasrmse (Monte-Carlo
studies), and breakdown (closed-form breakdown tables).  Every table goes
through :func:`robustvario.ascio.write_csv`.

Exit codes: 0 on success, 2 on input/parse errors and files that cannot be
read or written, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .ascio import apply_quality_mask, load_asc, save_asc, standardize, write_csv
from .breakdown import BreakdownQuery, breakdown_point
from .contamination import ContaminationSpec, contaminate
from .errors import InputError, NumericalError, RobustVarioError
from .estimators import ModConfig, estimate_grid
from .grid import Direction, LagSet
from .mcd import McdConfig
from .numerics import RngStream
from .simfield import FieldSpec, simulate_field
from .study import StudySpec, default_lag_depths, load_corrfac_csv
from .study import run_bias_rmse_study, run_correction_factor_study
from .variomodel import parse_model

def _parse_directions(text: str) -> tuple[Direction, ...]:
    return tuple(Direction.parse(name) for name in text.split(","))


_CONTAM_KEYS = ("kind", "eps", "mu0", "sigma0", "mode")


def _parse_contam(text: str) -> ContaminationSpec:
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"--contam entries must be key=value, got {part!r}")
        key, value = part.split("=", 1)
        key = key.strip().lower()
        if key not in _CONTAM_KEYS:
            raise InputError(f"unknown --contam key {key!r}; known keys: {', '.join(_CONTAM_KEYS)}")
        if key in fields:
            raise InputError(f"repeated --contam key {key!r}")
        fields[key] = value.strip()
    try:
        return ContaminationSpec(
            kind=fields.get("kind", "block"),
            epsilon=float(fields.get("eps", "0")),
            mu0=float(fields.get("mu0", "0")),
            sigma0=float(fields.get("sigma0", "1")),
            mode=fields.get("mode", "substitutive"),
        )
    except ValueError as exc:
        raise InputError(f"bad --contam spec {text!r}: {exc}") from None


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"expected a comma list of integers, got {text!r}") from None


def _fit_configs(args) -> tuple[McdConfig, ModConfig | None]:
    """The MCD and ``.mod`` settings of ``estimate`` and both studies."""
    mod = ModConfig(m_x=args.mx, m_y=args.my) if args.mx is not None else None
    return McdConfig(alpha=args.alpha), mod


def _wrote(path) -> int:
    if path is not None:
        print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    spec = FieldSpec(parse_model(args.model), args.nx, args.ny, mean=args.mean)
    grid = simulate_field(spec, RngStream(args.seed, args.stream))
    save_asc(args.out, grid)
    print(f"wrote {args.nx}x{args.ny} realization to {args.out}")
    return 0


def _cmd_contaminate(args) -> int:
    grid, header = load_asc(args.grid)
    spec = _parse_contam(args.contam)
    out, cells = contaminate(grid, spec, RngStream(args.seed, args.stream))
    save_asc(args.out, out, header)
    print(f"contaminated {len(cells)} cells; wrote {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    grid, _ = load_asc(args.grid)
    if args.quality:
        clear = set(_parse_int_list(args.clear_codes))
        grid = apply_quality_mask(grid, load_asc(args.quality)[0], clear)
    if args.standardize:
        grid, _ = standardize(grid)
    depths = default_lag_depths(args.hmax, args.hmax_diag)
    lag_sets = [LagSet(d, depths[d]) for d in _parse_directions(args.directions)]
    mcd, mod = _fit_configs(args)
    estimates = estimate_grid(grid, lag_sets, args.estimators.split(","),
                              seed=args.seed, mcdcfg=mcd, mod=mod)
    rows = []
    for (eid, direction), est in estimates.items():
        if isinstance(est, RobustVarioError):
            raise est
        rows += [(eid, direction, lag, value, count)
                 for lag, (value, count) in enumerate(zip(est.values, est.counts), start=1)]
    write_csv(args.out, "estimator,direction,lag,variogram,count".split(","), rows)
    return _wrote(args.out)


def _study_spec(args, contamination=None, correction_factors=None) -> StudySpec:
    mcd, mod = _fit_configs(args)
    return StudySpec(
        field=FieldSpec(parse_model(args.model), args.nx, args.ny),
        estimators=args.estimators.split(","),
        lag_depths=default_lag_depths(args.hmax, args.hmax_diag),
        directions=_parse_directions(args.directions),
        contamination=contamination, correction_factors=correction_factors,
        replications=args.reps, base_seed=args.seed, corrfac_divisor=args.divisor,
        mcd=mcd, mod=mod, n_jobs=args.jobs,
    )


def _cmd_study_corrfac(args) -> int:
    run_correction_factor_study(_study_spec(args)).to_csv(args.out)
    return _wrote(args.out)


def _cmd_study_biasrmse(args) -> int:
    contamination = _parse_contam(args.contam) if args.contam else None
    factors = load_corrfac_csv(args.corrfac) if args.corrfac else None
    run_bias_rmse_study(_study_spec(args, contamination, factors)).to_csv(args.out)
    return _wrote(args.out)


def _cmd_breakdown(args) -> int:
    rows = []
    for estimator, n_x, h_max, m in itertools.product(
        args.estimator.split(","), *map(_parse_int_list, (args.nx, args.hmax, args.m))
    ):
        q = BreakdownQuery(args.scenario, estimator.strip(), n_x, h_max, m)
        eps = breakdown_point(q)
        rows.append((q.scenario, q.estimator, n_x, h_max, m,
                     eps.numerator, eps.denominator, float(eps)))
    names = "scenario,estimator,n_x,h_max,m,numerator,denominator,value"
    write_csv(args.out, names.split(","), rows)
    return _wrote(args.out)


def _add_estimation_args(p: argparse.ArgumentParser, default_hmax: int, default_diag: int):
    p.add_argument("--hmax", type=int, default=default_hmax, help="lag depth for EW/SN")
    p.add_argument("--hmax-diag", type=int, default=default_diag, help="lag depth for diagonals")
    p.add_argument("--directions", default="ew,sn,swne,senw")
    p.add_argument("--estimators", default="matheron,genton,mcd.org.re,mcd.diff.re")
    p.add_argument("--alpha", type=float, default=None, help="MCD subset fraction (default maximal breakdown)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mx", type=int, default=None, help="x dependence range for .mod estimators")
    p.add_argument("--my", type=int, default=0, help="y dependence range for .mod estimators")


def _add_field_args(p: argparse.ArgumentParser):
    p.add_argument("--model", default="spherical:5:2:1.1780972450961724:2",
                   help="family:R:beta[:theta:b] (default: paper-style anisotropic spherical)")
    p.add_argument("--nx", type=int, default=15)
    p.add_argument("--ny", type=int, default=15)


def _add_study_args(p: argparse.ArgumentParser):
    _add_field_args(p)
    _add_estimation_args(p, default_hmax=7, default_diag=5)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--divisor", choices=("h_max", "h_max_minus_1"), default="h_max")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustvario",
        description="Robust directional variogram estimation on regular grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a Gaussian random field to an ASC file")
    _add_field_args(p)
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("contaminate", help="plant outliers into an ASC grid")
    p.add_argument("grid")
    p.add_argument("--contam", required=True,
                   help="kind=block|isolated,eps=...,mu0=...,sigma0=...[,mode=substitutive|additive]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contaminate)

    p = sub.add_parser("estimate", help="directional variogram estimates from an ASC grid")
    p.add_argument("grid")
    p.add_argument("--quality", default=None, help="quality-band ASC raster")
    p.add_argument("--clear-codes", default="0", help="comma list of clear quality codes")
    p.add_argument("--standardize", action="store_true",
                   help="divide by the consistency-scaled MAD before estimating; "
                        "estimates are reported on that standardized scale")
    _add_estimation_args(p, default_hmax=4, default_diag=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("study-corrfac", help="simulated finite-sample correction factors")
    _add_study_args(p)
    p.set_defaults(func=_cmd_study_corrfac)

    p = sub.add_parser("study-biasrmse", help="bias/rMSE study, optionally contaminated")
    _add_study_args(p)
    p.add_argument("--contam", default=None)
    p.add_argument("--corrfac", default=None, help="correction-factor CSV from study-corrfac")
    p.set_defaults(func=_cmd_study_biasrmse)

    p = sub.add_parser("breakdown", help="closed-form breakdown points as CSV")
    p.add_argument("--scenario", choices=("block", "isolated"), required=True)
    p.add_argument("--estimator", required=True,
                   help="comma list of mcd.org,mcd.diff,mcd.org.mod,mcd.diff.mod,genton "
                        "(_ may stand for .)")
    p.add_argument("--nx", required=True, help="comma list of series lengths")
    p.add_argument("--hmax", required=True, help="comma list of lag depths")
    p.add_argument("--m", default="0", help="comma list of dependence ranges")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_breakdown)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except RobustVarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
