"""Batch command-line interface.

Subcommands: fit, curves, lp, eff, fisher, tables, simulate-bd.  Every
command is deterministic given its input file, flags, and seed (the
BIOASSAY_SEED environment variable is the seed fallback).  Exit codes:
0 success, 2 input/validation error, 3 computational failure.  Table
inconsistency is a valid answer, not a failure.  stderr holds at most one
line: the error (exit 2) or failure (exit 3), or on success the one
``curves`` warning that names each model whose grid points it clipped.

Input CSV schemas (headers mandatory, UTF-8, comma-separated, '.'
decimal): regression ``u,y``; survival ``time,event``; quantal
``dose,n,events``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import warnings

import numpy as np

from .birthdeath import BirthDeathSpec, empirical_hazard, simulate_bd, simulate_replicates
from .covariates import CorrelationPair, classify, efficiency
from .exceptions import (
    DomainError,
    NotConvergedError,
    SeparationError,
    UnattainableRiskError,
    UnknownModelError,
)
from .fisher import WeibullSample, total_info
from .fitting import FitResult, RegressionDataset, fit_least_squares, weibull_mle
from .lowdose import PercentileQuery, percentile, resolve_query, vsd_upper_limit
from .models import evaluate, get_model
from .tables import check_consistency, polyptych_from_json, verdict_to_json

__all__ = ["main", "CURVE_GALLERY"]

# the twelve stock figure configurations: single curves plus the three
# standard comparison overlays, all drawn with unit parameters
CURVE_GALLERY: tuple[tuple[str, ...], ...] = (
    ("gompertz",),
    ("janoschek",),
    ("logistic",),
    ("bertalanffy",),
    ("janoschek", "bertalanffy"),
    ("tanh",),
    ("tanh3",),
    ("tanh4",),
    ("tanh", "tanh3", "tanh4"),
    ("exp-time-power", "exp-time-power-repar"),
    ("weibull-reconstructed",),
    ("gen-logistic-i", "gen-logistic-ii"),
)

DEFAULT_GRID = (0.01, 10.0, 500)
MAX_GRID_POINTS = 1_000_000  # --grid n cap (memory guard)


class CsvError(ValueError):
    pass


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_theta(raw: str | None):
    if raw is None:
        return None
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad --theta list {raw!r}: {exc}") from None


def _parse_grid(raw: str):
    parts = raw.split(":")
    if len(parts) != 3:
        raise DomainError(f"--grid expects lo:hi:n, got {raw!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"bad --grid {raw!r}: {exc}") from None
    if not 0.0 < hi - lo < np.inf or n < 2:
        raise DomainError(f"--grid needs a finite span hi - lo > 0 and n >= 2, got {raw!r}")
    if n > MAX_GRID_POINTS:
        raise DomainError(f"--grid n is capped at {MAX_GRID_POINTS} points, got {n}")
    return lo, hi, n


def _seed(args, default: int = 0) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("BIOASSAY_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"BIOASSAY_SEED must be an integer, got {env!r}") from None
    return default


def _read_csv(path: str, columns: tuple[str, ...]):
    """Read the named numeric columns; errors carry the 1-based line number.

    ``np.loadtxt`` parses the body in C.  On any error there, or a result
    other than one row of ``len(columns)`` values per line, the csv module
    walks the rows again: it skips blank rows, accepts what Python's
    ``float`` accepts, and names the first bad line.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvError(f"{path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvError(f"{path}: empty file (line 1: header {','.join(columns)} expected)") from None
        header = [h.strip() for h in header]
        if header != list(columns):
            raise CsvError(
                f"{path}: line 1: expected header {','.join(columns)}, got {','.join(header)}"
            )
        body = fh.read()
    width = len(columns)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on an empty body
            data = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == width:
            return data
    except Exception:  # whatever loadtxt rejects, the row walk reads or names
        pass
    data = []
    for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise CsvError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise CsvError(f"{path}: line {lineno}: {exc}") from None
    if not data:
        raise CsvError(f"{path}: no data rows")
    return np.asarray(data, dtype=float)


def _read_json(path: str):
    """Parse a JSON input file; a syntax error names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise CsvError(f"{path}: invalid JSON: {exc}") from None


# -- fit -------------------------------------------------------------------------

def _default_data_format(model_id: str) -> str:
    if model_id == "weibull-cdf":
        return "survival"
    model = get_model(model_id)
    return "quantal" if model.family == "dose-response-cdf" else "regression"


def cmd_fit(args) -> int:
    data_format = args.data_format or _default_data_format(args.model)
    model = get_model(args.model)
    if data_format == "survival":
        if model.id != "weibull-cdf":
            raise DomainError(f"survival data fit weibull-cdf only, not {model.id}")
        if args.theta is not None:
            raise DomainError("--theta sets least-squares starting values; survival data take none")
        raw = _read_csv(args.input, ("time", "event"))
        flags = raw[:, 1]
        if not np.all((flags == 0) | (flags == 1)):
            raise CsvError(f"{args.input}: event column must be 0/1")
        result = weibull_mle(WeibullSample(raw[:, 0], flags.astype(int)))
    else:
        if data_format == "quantal":
            raw = _read_csv(args.input, ("dose", "n", "events"))
            if np.any(raw[:, 1] <= 0) or np.any(raw[:, 2] < 0) or np.any(raw[:, 2] > raw[:, 1]):
                raise CsvError(f"{args.input}: need n > 0 and 0 <= events <= n")
            data = RegressionDataset(raw[:, 0], raw[:, 2] / raw[:, 1])
        else:
            raw = _read_csv(args.input, ("u", "y"))
            data = RegressionDataset(raw[:, 0], raw[:, 1])
        theta0 = _parse_theta(args.theta)
        if theta0 is None:
            raise DomainError(f"--theta starting values are required to fit {model.id}")
        result = fit_least_squares(model, data, theta0)
    _write_out(json.dumps(result.to_dict(), indent=2) + "\n", args.out)
    return 0 if result.converged else 3


# -- curves ------------------------------------------------------------------------

def _default_theta(model) -> list[float]:
    return [1.0] * (model.arity if model.arity is not None else 3)


def _curve_values(model, grid, theta):
    """Evaluate on the grid, clipping points outside the model's domain (theta is always checked)."""
    mask = model.admits_input(grid)
    vals = np.full(grid.shape, np.nan)
    vals[mask] = evaluate(model, grid[mask], theta)
    return vals, mask


def _svg_polyline(points, color):
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
        + " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        + '"/>'
    )


def _render_svg(grid, series) -> str:
    """Static plot: axes plus one polyline per curve."""
    width, height, pad = 640.0, 480.0, 50.0
    finite = np.concatenate([v[np.isfinite(v)] for _id, v in series])
    if finite.size == 0:
        raise DomainError("no finite curve values to plot")
    ylo, yhi = float(finite.min()), float(finite.max())
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    if not 0.0 < yhi - ylo < np.inf:  # a point's offset from ylo would overflow or divide by 0
        raise DomainError(f"curve values in [{ylo}, {yhi}] cannot be scaled to the plot")
    xlo, xhi = float(grid.min()), float(grid.max())
    colors = ("black", "firebrick", "steelblue", "darkgreen")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" height="{int(height)}" '
        f'viewBox="0 0 {int(width)} {int(height)}">',
        f'<line x1="{_fmt(pad)}" y1="{_fmt(height - pad)}" x2="{_fmt(width - pad)}" '
        f'y2="{_fmt(height - pad)}" stroke="gray"/>',
        f'<line x1="{_fmt(pad)}" y1="{_fmt(pad)}" x2="{_fmt(pad)}" '
        f'y2="{_fmt(height - pad)}" stroke="gray"/>',
    ]
    for idx, (model_id, vals) in enumerate(series):
        keep = np.isfinite(vals)
        sx = pad + (grid[keep] - xlo) / (xhi - xlo) * (width - 2 * pad)
        sy = height - pad - (vals[keep] - ylo) / (yhi - ylo) * (height - 2 * pad)
        parts.append(_svg_polyline(zip(sx.tolist(), sy.tolist()), colors[idx % len(colors)]))
        parts.append(
            f'<text x="{_fmt(width - pad)}" y="{_fmt(pad + 16 * idx)}" text-anchor="end" '
            f'fill="{colors[idx % len(colors)]}" font-size="12">{model_id}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_curves(args) -> int:
    ids = [m.strip() for m in args.model.split(",") if m.strip()]
    if not ids:
        raise DomainError("no model ids given")
    models = [get_model(i) for i in ids]
    for m in models:
        if m.input_dim != 1:
            raise DomainError(f"{m.id} takes a pair input; curves are drawn for single-input models")
    theta = _parse_theta(args.theta)
    if theta is not None and len(models) > 1:
        raise DomainError("--theta applies to a single model; omit it for comparisons")
    lo, hi, n = _parse_grid(args.grid) if args.grid else DEFAULT_GRID
    grid = np.linspace(lo, hi, n)
    series = []
    masks = []
    for m in models:
        th = theta if theta is not None else _default_theta(m)
        vals, mask = _curve_values(m, grid, th)
        series.append((m.id, vals))
        masks.append(mask)
    if args.format == "svg":
        text = _render_svg(grid, series)
    else:
        columns = [list(map(_fmt, grid.tolist()))]
        for (_model_id, vals), mask in zip(series, masks):
            # clipped grid points stay empty; computed values print as-is
            columns.append([_fmt(v) if ok else "" for v, ok in zip(vals.tolist(), mask.tolist())])
        lines = ["u," + ",".join(model_id for model_id, _vals in series), *map(",".join, zip(*columns))]
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    # one stderr line, after the output: an error leaves no warning ahead of it
    clipped = [f"{m.id} {np.sum(~mask)}" for m, mask in zip(models, masks) if not mask.all()]
    if clipped:
        print(f"warning: clipped grid points outside the domain: {', '.join(clipped)}", file=sys.stderr)
    return 0


# -- lp ------------------------------------------------------------------------------

def cmd_lp(args) -> int:
    theta = _parse_theta(args.theta)
    out = {"model": args.model, "p": args.p}
    if args.fit:
        if theta is not None:
            get_model(args.model).check_theta(theta)  # checked, though the fit supersedes it
        try:
            fit = FitResult.from_dict(_read_json(args.fit))
        except DomainError as exc:
            raise DomainError(f"{args.fit}: {exc}") from None
        confidence = args.confidence if args.confidence is not None else 0.975
        # the curve, the percentile, its risk scale and the bound all come from the fit
        query = PercentileQuery(args.model, tuple(fit.theta_hat), args.p, risk_type=args.risk)
        res = vsd_upper_limit(query, fit, confidence)
        out.update(risk_type=res.risk_type, Lp=res.lp, vsd=res.vsd, confidence=confidence, vsd_method=res.method)
    else:
        if theta is None:
            raise DomainError("--theta is required without --fit")
        if args.confidence is not None:
            raise DomainError("--confidence applies to --fit; give --fit too")
        query = PercentileQuery(args.model, tuple(theta), args.p, risk_type=args.risk)
        out.update(risk_type=resolve_query(query)[2], Lp=percentile(query), vsd=None, confidence=None)
    _write_out(json.dumps(out, indent=2) + "\n", args.out)
    return 0


# -- eff ------------------------------------------------------------------------------

def cmd_eff(args) -> int:
    pair = CorrelationPair(args.rho12, args.rhoy21)
    out = {
        "rho12": args.rho12,
        "rhoY2_1": args.rhoy21,
        "eff": efficiency(pair),
        "class": classify(pair),
    }
    _write_out(json.dumps(out, indent=2) + "\n", args.out)
    return 0


# -- fisher ----------------------------------------------------------------------------

def _parse_at(raw: str, model):
    """--at design: u1,u2,... or, for two-input models, x1:x2 pairs."""
    try:
        if model.input_dim == 1:
            return [float(v) for v in raw.split(",")]
        pairs = [[float(c) for c in point.split(":")] for point in raw.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad --at list: {exc}") from None
    if any(len(pair) != 2 for pair in pairs):
        raise DomainError(f"{model.id} takes x1:x2 input pairs, got --at {raw!r}")
    return pairs


def cmd_fisher(args) -> int:
    theta = _parse_theta(args.theta)
    model = get_model(args.model)
    if args.at is not None and args.grid is not None:
        raise DomainError("give the design via --at or --grid, not both")
    if args.at:
        design = _parse_at(args.at, model)
    elif args.grid:
        if model.input_dim == 2:
            raise DomainError(f"{model.id} takes x1:x2 input pairs; give the design via --at x1:x2,...")
        lo, hi, n = _parse_grid(args.grid)
        design = np.linspace(lo, hi, n)
    else:
        raise DomainError("give the design via --at u1,u2,... or --grid lo:hi:n")
    info = total_info(model, design, theta, sigma2=args.sigma2)
    out = {
        "model": args.model,
        "theta": theta,
        "sigma2": args.sigma2,
        "design": np.asarray(design).tolist(),
        "info": [[float(v) for v in row] for row in info.entries],
    }
    _write_out(json.dumps(out, indent=2) + "\n", args.out)
    return 0


# -- tables -------------------------------------------------------------------------------

def cmd_tables(args) -> int:
    p = polyptych_from_json(_read_json(args.input))
    verdict = check_consistency(p, integer_exact=args.integer_exact)
    _write_out(json.dumps(verdict_to_json(verdict), indent=2) + "\n", args.out)
    return 0  # an inconsistent polyptych is a valid answer


# -- simulate-bd -----------------------------------------------------------------------------

def cmd_simulate_bd(args) -> int:
    spec = BirthDeathSpec(b=args.birth, d=args.death, i0=args.i0, t_end=args.t_end, seed=_seed(args))
    if args.replicates is None and (args.bins is not None or args.threshold is not None):
        flag = "--bins" if args.bins is not None else "--threshold"
        raise DomainError(f"{flag} applies to replicate studies; give --replicates too")
    if args.bins is not None and args.bins < 1:
        raise DomainError("bins must be >= 1")
    if args.replicates is not None:
        reps = simulate_replicates(spec, args.replicates, threshold=args.threshold)
        if args.bins is not None:
            event_times = [r.time for r in reps if r.outcome in ("extinct", "onset")]
            if not event_times:
                raise NotConvergedError("no events observed: every replicate was censored")
            mids, rates = empirical_hazard(event_times, bins=args.bins)
            lines = ["t_mid,hazard"]
            lines += [f"{_fmt(t)},{_fmt(h)}" for t, h in zip(mids, rates)]
        else:
            lines = ["replicate,outcome,time"]
            lines += [f"{r.index},{r.outcome},{_fmt(r.time)}" for r in reps]
    else:
        traj = simulate_bd(spec)
        lines = ["t,population"]
        lines += [f"{_fmt(t)},{p}" for t, p in zip(traj.times.tolist(), traj.populations.tolist())]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


# -- parser -------------------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bioassay",
        description="Dose-response and growth-model toolkit: fitting, information, "
        "low-dose extrapolation, covariate efficiency, table checks, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("fit", help="fit a registry model to a CSV dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="CSV file")
    p.add_argument("--theta", help="starting values, comma separated (least squares)")
    p.add_argument(
        "--data-format",
        choices=("regression", "survival", "quantal"),
        help="override the schema implied by the model family",
    )
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("curves", help="sample curves on a grid (CSV or SVG)")
    p.add_argument("--model", required=True, help="model id, or comma list for comparisons")
    p.add_argument("--theta", help="parameters (default: all ones)")
    p.add_argument("--grid", help="lo:hi:n (default 0.01:10:500)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    common(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("lp", help="low-dose percentile and optional VSD")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", help="parameters (required without --fit, which supplies its estimate)")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--risk", choices=("total", "extra"))
    p.add_argument("--confidence", type=float, help="VSD confidence level (with --fit; default 0.975)")
    p.add_argument("--fit", help="fit-report JSON of --model (enables the VSD bound)")
    common(p)
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("eff", help="covariate-omission efficiency")
    p.add_argument("--rho12", type=float, required=True)
    p.add_argument("--rhoy21", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_eff)

    p = sub.add_parser("fisher", help="total Fisher information over a design")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--at", help="design points, comma separated (x1:x2 pairs for two-input models)")
    p.add_argument("--grid", help="design grid lo:hi:n")
    p.add_argument("--sigma2", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("tables", help="polyptych consistency check")
    p.add_argument("--input", required=True, help="polyptych JSON")
    p.add_argument("--integer-exact", action="store_true")
    common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("simulate-bd", help="linear birth-death simulation")
    p.add_argument("--birth", type=float, required=True)
    p.add_argument("--death", type=float, required=True)
    p.add_argument("--i0", type=int, default=1)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--threshold", type=int)
    p.add_argument("--bins", type=int, help="emit a binned hazard estimate of replicate event times")
    common(p)
    p.set_defaults(func=cmd_simulate_bd)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by later ones."""
    return build_parser()


def _glue_negative_values(argv) -> list[str]:
    """``--theta -2,1.5`` as ``--theta=-2,1.5``: argparse reads a value that starts
    with a minus sign (a digit, ``-inf``, ``-nan``), a lone number aside, as a flag."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--theta", "--grid", "--at") and re.match(r"-(\.?\d|inf|nan)", arg, re.I):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (DomainError, UnknownModelError, CsvError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotConvergedError, SeparationError, UnattainableRiskError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
