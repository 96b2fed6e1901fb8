"""Command line front end for building and checking exit domains.

A run is described by a JSON config file, a distribution object, and a
handful of flags; flags win over config file entries.  The effective
configuration is hashed so every CSV output starts with a
self-describing comment line, and identical configurations reproduce
identical bytes.

Distributions are JSON objects with a ``family`` key plus flat
parameters, and two optional processing keys::

    {"family": "uniform", "a": -1.0, "b": 1.0}
    {"family": "two-piece-uniform", "a1": -2, "b1": -1, "a2": 1, "b2": 2}
    {"family": "beta", "alpha": 2.0, "beta": 5.0}
    {"family": "exponential", "rate": 1.0, "truncate": 8.0}
    {"family": "truncated-normal", "mu": 0, "sigma": 1, "lo": -2, "hi": 2}
    {"family": "discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
    {"family": "mixture", "components": [{"weight": 0.5, "dist": {...}}, ...]}

``center`` (default true) shifts the law to mean zero before anything
else; ``truncate`` (a positive real, applied after centering) replaces
the mass outside [-R, R] by an atom at the origin, which is the only
way to handle unbounded supports.

Subcommands: build (boundary CSV and optional SVG), rates (l1 error
and bound table over an n list), map (power series coefficients),
simulate (exit samples plus summary JSON; needs --boundary from a
previous build), check (KS statistic of an existing sample file
against the configured law; needs --samples).  Exit codes: 0 success,
2 configuration problem, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .boundary import (boundary_points, export_csv, export_svg, load_csv,
                       normalize_support, scale_domain)
from .discretize import (UnboundedSupportError, build_measure, l1_distance,
                         rate_bound)
from .distributions import (Beta, Discrete, Distribution, Exponential,
                            Mixture, TruncatedNormal, TwoPieceUniform,
                            Uniform)
from .gross_map import fourier_coefficients
from .hilbert import OracleConvergenceError, PoleError
from .verify_mc import TopologyError, ks_distance, simulate_exit


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


def _require(fields: dict, family: str, *names):
    out = []
    for name in names:
        if name not in fields:
            raise ConfigError(f"family {family!r} needs field {name!r}")
        value = fields[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"field {name!r} of family {family!r} must be "
                              f"a number, got {value!r}")
        out.append(float(value))
    return out


def _parse_family(fields: dict) -> Distribution:
    family = fields.get("family")
    if not isinstance(family, str):
        raise ConfigError('distribution needs a "family" string')
    try:
        if family == "uniform":
            a, b = _require(fields, family, "a", "b")
            return Uniform(a, b)
        if family == "two-piece-uniform":
            a1, b1, a2, b2 = _require(fields, family, "a1", "b1", "a2", "b2")
            return TwoPieceUniform(a1, b1, a2, b2)
        if family == "beta":
            alpha, beta = _require(fields, family, "alpha", "beta")
            return Beta(alpha, beta)
        if family == "exponential":
            (rate,) = _require(fields, family, "rate")
            return Exponential(rate)
        if family == "truncated-normal":
            mu, sigma, lo, hi = _require(fields, family, "mu", "sigma", "lo", "hi")
            return TruncatedNormal(mu, sigma, lo, hi)
        if family == "discrete":
            atoms = fields.get("atoms")
            if not isinstance(atoms, list) or not atoms:
                raise ConfigError('family "discrete" needs a nonempty "atoms" '
                                  "list of [location, mass] pairs")
            return Discrete([(float(x), float(w)) for x, w in atoms])
        if family == "mixture":
            comps = fields.get("components")
            if not isinstance(comps, list) or not comps:
                raise ConfigError('family "mixture" needs a nonempty '
                                  '"components" list')
            parts = []
            for comp in comps:
                if "weight" not in comp or "dist" not in comp:
                    raise ConfigError('each mixture component needs "weight" '
                                      'and "dist" fields')
                parts.append((float(comp["weight"]), _parse_family(comp["dist"])))
            return Mixture(parts)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid parameters for family {family!r}: {exc}")
    raise ConfigError(f"unknown distribution family {family!r}")


def build_distribution(fields: dict) -> Distribution:
    """Working law of a run: parsed family, centered, then truncated."""
    if not isinstance(fields, dict):
        raise ConfigError("distribution must be a JSON object")
    dist = _parse_family(fields)
    if fields.get("center", True):
        dist = dist.center()
    if "truncate" in fields:
        radius = fields["truncate"]
        if not isinstance(radius, (int, float)) or isinstance(radius, bool) \
                or not math.isfinite(radius) or radius <= 0:
            raise ConfigError(f'"truncate" must be a positive real, '
                              f"got {radius!r}")
        dist = dist.truncate(float(radius))
    lo, hi = dist.support()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(
            "distribution has unbounded support; add a \"truncate\": R field "
            "to the distribution object to restrict it to [-R, R] with an "
            "origin atom")
    return dist


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one command after merging file and flags."""

    dist: dict
    n: int = 30
    n_list: tuple[int, ...] = ()
    scheme: str = "cdf"
    points: int = 2048
    coeffs: int | None = None
    out: str | None = None
    svg: str | None = None
    walks: int = 10_000
    step: float = 1e-4
    seed: int = 0
    boundary: str | None = None
    samples: str | None = None
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if any(n < 1 for n in self.n_list):
            raise ConfigError(f"n_list entries must be >= 1, got {self.n_list}")
        if self.scheme not in ("cdf", "pdf"):
            raise ConfigError(f"scheme must be cdf or pdf, got {self.scheme!r}")
        if self.points < 1:
            raise ConfigError(f"points must be >= 1, got {self.points}")
        if self.coeffs is not None and self.coeffs < 1:
            raise ConfigError(f"coeffs must be >= 1, got {self.coeffs}")
        if self.walks < 1:
            raise ConfigError(f"walks must be >= 1, got {self.walks}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigError(f"step must be positive, got {self.step}")

    def hash(self) -> str:
        """Digest of every setting and input file content that shapes the output."""
        payload = {
            "dist": self.dist, "n": self.n, "n_list": list(self.n_list),
            "scheme": self.scheme, "points": self.points,
            "coeffs": self.coeffs, "walks": self.walks, "step": self.step,
            "seed": self.seed, "max_steps": self.max_steps,
        }
        for key in ("boundary", "samples"):
            path = getattr(self, key)
            if path is not None:
                with open(path, "rb") as fh:
                    payload[f"{key}_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def header(self) -> str:
        return f"mu-domain-kit v{__version__}, config hash {self.hash()}"


_INT_KEYS = ("n", "points", "coeffs", "walks", "seed", "max_steps")
_STR_KEYS = ("scheme", "out", "svg", "boundary", "samples")


def merge_config(file_cfg: dict, args: argparse.Namespace) -> RunConfig:
    """Fold config file entries and flags into a RunConfig; flags win."""
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    merged: dict = dict(file_cfg)
    unknown = set(merged) - {"dist", "n", "n_list", "scheme", "points",
                             "coeffs", "out", "svg", "walks", "step", "seed",
                             "boundary", "samples", "max_steps"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("dist", "n_list", "step", *_INT_KEYS, *_STR_KEYS):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    if "dist" not in merged:
        raise ConfigError("no distribution given; use --dist or a config file")
    if isinstance(merged["dist"], str):
        merged["dist"] = _load_json_arg(merged["dist"], "dist")
    kwargs: dict = {"dist": merged["dist"]}
    for key in _INT_KEYS:
        if merged.get(key) is not None:
            kwargs[key] = _as_int(merged[key], key)
    for key in _STR_KEYS:
        if merged.get(key) is not None:
            kwargs[key] = str(merged[key])
    if merged.get("step") is not None:
        try:
            kwargs["step"] = float(merged["step"])
        except (TypeError, ValueError):
            raise ConfigError(f"step must be a number, got {merged['step']!r}")
    if merged.get("n_list") is not None:
        kwargs["n_list"] = _as_int_tuple(merged["n_list"])
    return RunConfig(**kwargs)


def _as_int(value, key) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or int(value) != value:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _as_int_tuple(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    try:
        return tuple(int(part) for part in value)
    except (TypeError, ValueError):
        raise ConfigError(f"n_list must be a list of integers, got {value!r}")


def _load_json_arg(text: str, what: str) -> dict:
    """Interpret a flag value as inline JSON or as a path to a JSON file."""
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid inline JSON for {what}: {exc}")
    try:
        with open(text) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {what} file {text!r}: {exc}")


def _float_csv_cell(x: float) -> str:
    return repr(float(x))


def _write_rows(path, header_comment, column_names, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {header_comment}\n")
        fh.write(",".join(column_names) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _measure(dist, n, scheme):
    """build_measure with scheme mismatches reported as config errors."""
    try:
        return build_measure(dist, n, scheme)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _build_polyline(cfg: RunConfig):
    """The build pipeline: normalize, discretize, trace, scale back.

    The traced domain of the normalized step quantile is mapped back by
    the support width, and recentered by the step quantile's own mean
    so that the returned domain contains the origin and embeds the
    mean-zero discrete law.
    """
    dist = build_distribution(cfg.dist)
    norm, width, _ = normalize_support(dist)
    sq = _measure(norm, cfg.n, cfg.scheme)
    try:
        traced = boundary_points(sq, num_points=cfg.points)
    except ValueError as exc:
        if "total mass" in str(exc):
            raise ConfigError(f"cannot trace a boundary: {exc}")
        raise
    return scale_domain(traced, width, -width * sq.mean())


def cmd_build(cfg: RunConfig) -> None:
    out = cfg.out or "boundary.csv"
    bp = _build_polyline(cfg)
    export_csv(bp, out, header_comment=cfg.header())
    if cfg.svg:
        export_svg(bp, cfg.svg)


def cmd_rates(cfg: RunConfig) -> None:
    out = cfg.out or "rates.csv"
    dist = build_distribution(cfg.dist)
    ns = cfg.n_list or (cfg.n,)
    rows = []
    for n in ns:
        sq = _measure(dist, n, cfg.scheme)
        l1 = l1_distance(dist, sq)
        rb = rate_bound(dist, n)
        rows.append((str(n), _float_csv_cell(l1), _float_csv_cell(rb.bound),
                     _float_csv_cell(rb.varpi)))
    _write_rows(out, cfg.header(), ("n", "l1", "bound", "varpi"), rows)


def cmd_map(cfg: RunConfig) -> None:
    out = cfg.out or "map.csv"
    dist = build_distribution(cfg.dist)
    sq = _measure(dist, cfg.n, cfg.scheme)
    fc = fourier_coefficients(sq, num_terms=cfg.coeffs)
    rows = [(str(k), _float_csv_cell(a))
            for k, a in enumerate(fc.coeffs, start=1)]
    _write_rows(out, cfg.header(), ("k", "a_k"), rows)


def _summary_path(out: str) -> str:
    stem, dot, _ = out.rpartition(".")
    return (stem if dot else out) + ".summary.json"


def cmd_simulate(cfg: RunConfig) -> None:
    if not cfg.boundary:
        raise ConfigError("simulate needs --boundary pointing at a CSV "
                          "written by the build command")
    out = cfg.out or "samples.csv"
    dist = build_distribution(cfg.dist)
    bp = load_csv(cfg.boundary)
    result = simulate_exit(bp, walks=cfg.walks, step=cfg.step, seed=cfg.seed,
                           max_steps=cfg.max_steps)
    rows = [(str(w), _float_csv_cell(x))
            for w, x in zip(result.walk_ids, result.samples)]
    _write_rows(out, cfg.header(), ("walk", "x_exit"), rows)
    if result.samples.size:
        summary = {
            "walks": cfg.walks,
            "truncated": result.truncated_walks,
            "ks": ks_distance(result.samples, dist),
            "mean": float(result.samples.mean()),
            "std": float(result.samples.std()),
            "seed": cfg.seed,
            "step": cfg.step,
        }
    else:
        summary = {"walks": cfg.walks, "truncated": result.truncated_walks,
                   "ks": None, "mean": None, "std": None,
                   "seed": cfg.seed, "step": cfg.step}
    with open(_summary_path(out), "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.truncation_warning:
        print(f"warning: {result.truncated_walks} of {cfg.walks} walks were "
              "truncated; the sample may be biased", file=sys.stderr)


def load_samples_csv(path) -> np.ndarray:
    """Exit abscissas from a samples.csv written by the simulate command."""
    values = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line
                if header.replace(" ", "") != "walk,x_exit":
                    raise ValueError(f"unexpected header {header!r}, "
                                     "need 'walk,x_exit'")
                continue
            _, x = line.split(",")
            values.append(float(x))
    return np.array(values)


def cmd_check(cfg: RunConfig) -> None:
    if not cfg.samples:
        raise ConfigError("check needs --samples pointing at a samples CSV")
    dist = build_distribution(cfg.dist)
    samples = load_samples_csv(cfg.samples)
    if not samples.size:
        raise ConfigError(f"no samples found in {cfg.samples}")
    report = {
        "samples": int(samples.size),
        "ks": ks_distance(samples, dist),
        "mean": float(samples.mean()),
        "std": float(samples.std()),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if cfg.out:
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write(text + "\n")


_COMMANDS = {
    "build": cmd_build,
    "rates": cmd_rates,
    "map": cmd_map,
    "simulate": cmd_simulate,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", nargs="?", default=None,
                        help="JSON config file; flags override its entries")
    common.add_argument("--dist", help="distribution: JSON file path or inline "
                        "JSON object")
    common.add_argument("--n", type=int, help="number of discretization cells")
    common.add_argument("--n-list", dest="n_list",
                        help="comma separated n values for the rates table")
    common.add_argument("--scheme", choices=("cdf", "pdf"),
                        help="mass assignment scheme (default cdf)")
    common.add_argument("--points", type=int,
                        help="boundary samples per half (default 2048)")
    common.add_argument("--coeffs", type=int,
                        help="number of series coefficients to export")
    common.add_argument("--out", help="output file path")
    common.add_argument("--svg", help="also render the boundary to this SVG")
    common.add_argument("--walks", type=int, help="number of walks")
    common.add_argument("--step", type=float, help="Euler time step")
    common.add_argument("--seed", type=int, help="base RNG seed")
    common.add_argument("--boundary", help="boundary CSV for simulate")
    common.add_argument("--samples", help="samples CSV for check")
    common.add_argument("--max-steps", dest="max_steps", type=int,
                        help="per-walk step budget (default 1e7)")

    parser = argparse.ArgumentParser(
        prog="mudk",
        description="Build and check planar domains whose Brownian exit "
                    "abscissa follows a prescribed law.")
    parser.add_argument("--version", action="version",
                        version=f"mu-domain-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[common],
                   help="trace a domain boundary to CSV (and optional SVG)")
    sub.add_parser("rates", parents=[common],
                   help="tabulate l1 errors and bounds over an n list")
    sub.add_parser("map", parents=[common],
                   help="export the disc map's power series coefficients")
    sub.add_parser("simulate", parents=[common],
                   help="sample Brownian exits from a built boundary")
    sub.add_parser("check", parents=[common],
                   help="KS statistic of an existing sample file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_cfg = _load_json_arg(args.config, "config") if args.config else {}
        cfg = merge_config(file_cfg, args)
        _COMMANDS[args.command](cfg)
    except (ConfigError, UnboundedSupportError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, OracleConvergenceError, TopologyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
