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

``center`` (a JSON boolean, default true) shifts the law to mean zero,
before and again after ``truncate`` (a positive real), which replaces
the mass outside [-R, R] by an atom at the origin and so moves the mean;
truncation is the only way to handle unbounded supports.  A mixture
component takes neither key, and any other key is a configuration error.

Subcommands: build (boundary CSV and optional SVG), rates (l1 error
and bound table over an n list), map (power series coefficients),
simulate (exit samples plus summary JSON; needs --boundary from a
previous build), check (KS statistic of an existing sample file
against the configured law; needs --samples).  Exit codes: 0 success,
2 configuration problem, 3 numerical failure (including a boundary
that does not enclose the origin), 4 I/O failure (a missing or
unreadable file, or a --boundary/--samples file that is malformed: a
wrong header, a row of the wrong width, a cell that is not a finite
number, a boundary file with no rows, or rows that do not form a valid
boundary).  A samples file with no rows is exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

# CPython's built-in SHA-256 (`_sha2` from 3.12, `_sha256` before): the same
# digests as hashlib's, without hashlib's `_hashlib`, which maps OpenSSL's
# libcrypto (about 3.4 MB resident) into every process for one config hash
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

# distributions and discretize first: without a .pyc cache, compiling
# distributions.py while cli, boundary and discretize were half executed
# left about 0.25 MB more resident after `import mudk.cli`
from . import __version__
from .distributions import (Beta, Discrete, Distribution, Exponential,
                            Mixture, TruncatedNormal, Uniform)
from .discretize import (UnboundedSupportError, build_measure, l1_distance,
                         rate_bound)
from ._csvio import float_cell, read_floats, write_csv
from .boundary import (boundary_points, export_csv, export_svg, load_csv,
                       normalize_support, scale_domain)
from .gross_map import fourier_coefficients
from .hilbert import PoleError
from .verify_mc import TopologyError, ks_distance, simulate_exit


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


class InputFileError(Exception):
    """An input file exists but cannot be parsed."""


def _read_input(loader, path):
    """loader(path), with a malformed file reported under its name."""
    try:
        return loader(path)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from exc


# the parameters of each family, besides "family"; the whole law may also
# carry the processing keys, a mixture component may not
_FAMILY_FIELDS = {
    "uniform": ("a", "b"),
    "two-piece-uniform": ("a1", "b1", "a2", "b2"),
    "beta": ("alpha", "beta"),
    "exponential": ("rate",),
    "truncated-normal": ("mu", "sigma", "lo", "hi"),
    "discrete": ("atoms",),
    "mixture": ("components",),
}
_PROCESSING = ("center", "truncate")


def _number(value, what) -> float:
    """A JSON number as a float; a boolean, a string or an integer beyond
    the float range is refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is beyond the float range") from None


def _require(fields: dict, family: str, *names):
    out = []
    for name in names:
        if name not in fields:
            raise ConfigError(f"family {family!r} needs field {name!r}")
        out.append(_number(fields[name], f"field {name!r} of family {family!r}"))
    return out


def _parse_family(fields: dict, processing: tuple) -> Distribution:
    """The law that `fields` names; `processing` lists the other keys it may hold."""
    if not isinstance(fields, dict):
        raise ConfigError("distribution must be a JSON object")
    family = fields.get("family")
    if not isinstance(family, str):
        raise ConfigError('distribution needs a "family" string')
    if family not in _FAMILY_FIELDS:
        raise ConfigError(f"unknown distribution family {family!r}")
    unknown = set(fields) - {"family", *_FAMILY_FIELDS[family], *processing}
    if unknown:
        where = "" if processing else " inside a mixture component"
        raise ConfigError(f"family {family!r} takes no fields {sorted(unknown)}{where}")
    try:
        if family == "discrete":
            atoms = fields.get("atoms")
            if not (isinstance(atoms, list) and atoms
                    and all(isinstance(atom, list) and len(atom) == 2 for atom in atoms)):
                raise ConfigError('family "discrete" needs a nonempty "atoms" '
                                  "list of [location, mass] pairs")
            return Discrete([(_number(x, '"atoms" location'), _number(w, '"atoms" mass'))
                             for x, w in atoms])
        if family == "mixture":
            comps = fields.get("components")
            if not isinstance(comps, list) or not comps:
                raise ConfigError('family "mixture" needs a nonempty "components" list')
            parts = []
            for comp in comps:
                if not isinstance(comp, dict) or set(comp) != {"weight", "dist"}:
                    raise ConfigError('each mixture component holds exactly the fields '
                                      f'"weight" and "dist", got {comp!r}')
                parts.append((_number(comp["weight"], 'mixture "weight"'),
                              _parse_family(comp["dist"], ())))
            return Mixture(parts)
        values = _require(fields, family, *_FAMILY_FIELDS[family])
        if family == "two-piece-uniform":
            a1, b1, a2, b2 = values
            if not a1 < b1 <= a2 < b2:
                raise ConfigError("two-piece-uniform pieces must satisfy "
                                  f"a1 < b1 <= a2 < b2, got {values}")
            # uniform on the union: each piece weighted by its length
            total = (b1 - a1) + (b2 - a2)
            return Mixture([((b1 - a1) / total, Uniform(a1, b1)),
                            ((b2 - a2) / total, Uniform(a2, b2))])
        return {"uniform": Uniform, "beta": Beta, "exponential": Exponential,
                "truncated-normal": TruncatedNormal}[family](*values)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid parameters for family {family!r}: {exc}")


def build_distribution(fields: dict) -> Distribution:
    """Working law of a run: parsed family, centered, truncated, recentered."""
    dist = _parse_family(fields, _PROCESSING)
    center = fields.get("center", True)
    if not isinstance(center, bool):
        raise ConfigError(f'"center" must be true or false, got {center!r}')
    if center:
        dist = dist.center()
    if "truncate" in fields:
        radius = _number(fields["truncate"], '"truncate"')
        if not (math.isfinite(radius) and radius > 0):
            raise ConfigError(f'"truncate" must be a positive real, got {radius!r}')
        dist = dist.truncate(radius)
        if center:
            dist = dist.center()
    lo, hi = dist.support()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(
            "distribution has unbounded support; add a \"truncate\": R field "
            "to the distribution object to restrict it to [-R, R] with an "
            "origin atom")
    return dist


def _as_int(value, key) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _as_int_tuple(value, key) -> tuple[int, ...]:
    """A JSON list of integers; only the --n-list flag takes the comma form."""
    if isinstance(value, list):
        try:
            return tuple(_as_int(part, key) for part in value)
        except ConfigError:
            pass
    raise ConfigError(f"{key} must be a list of integers, got {value!r}")


def _comma_ints(text: str):
    """`--n-list 10,100` as a list; text with a part that is no integer stays
    text, for `_as_int_tuple` to refuse (argparse would exit on a type error)."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        return text


def _load_json_arg(text, what: str):
    """Text as inline JSON or as the path of a JSON file, where any ValueError
    (a 4301-digit integer too) is a config error; a parsed value as it is."""
    if not isinstance(text, str):
        return text
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"invalid inline JSON for {what}: {exc}")
    try:
        with open(text) as fh:
            return json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"invalid JSON in {what} file {text!r}: {exc}")


def _setting(default=MISSING, *, help, flag=None, parse=lambda value, key: str(value),
             least=None, role=None):
    """A RunConfig field that declares one setting: `help` and `flag` (an argparse
    type, or a tuple of choices) make its `--flag`, `parse` reads its config file
    entry or flag value, `least` is its least value, and `role` marks a file
    name: "out" is not hashed, "in" is hashed by its content."""
    return field(default=default, metadata={"help": help, "flag": flag, "parse": parse,
                                            "least": least, "role": role})


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one command after merging file and flags.

    Each field declares one setting (`_setting`): `build_parser` adds its flag,
    `merge_config` parses it, `__post_init__` checks it, `hash` reads its role.
    """

    dist: dict = _setting(help="distribution: JSON file path or inline JSON object; "
                          "centered before and after any truncation", parse=_load_json_arg)
    n: int = _setting(30, help="number of discretization cells", flag=int, parse=_as_int,
                      least=1)
    n_list: tuple[int, ...] = _setting(
        (), help="comma separated n values for the rates table", flag=_comma_ints,
        parse=_as_int_tuple, least=1)
    scheme: str = _setting("cdf", help="mass assignment scheme (default cdf)",
                           flag=("cdf", "pdf"))
    points: int = _setting(2048, help="boundary samples per half (default 2048)",
                           flag=int, parse=_as_int, least=1)
    coeffs: int | None = _setting(None, help="number of series coefficients to export",
                                  flag=int, parse=_as_int, least=1)
    out: str | None = _setting(None, help="output file path", role="out")
    svg: str | None = _setting(None, help="also render the boundary to this SVG",
                               role="out")
    walks: int = _setting(10_000, help="number of walks", flag=int, parse=_as_int, least=1)
    step: float = _setting(1e-4, help="walk-on-spheres shell width (default 1e-4)",
                           flag=float, parse=_number)
    seed: int = _setting(0, help="base RNG seed", flag=int, parse=_as_int)
    boundary: str | None = _setting(None, help="boundary CSV for simulate", role="in")
    samples: str | None = _setting(None, help="samples CSV for check", role="in")
    max_steps: int = _setting(10_000_000, help="per-walk sweep budget (default 1e7)",
                              flag=int, parse=_as_int, least=1)

    def __post_init__(self):
        for f in fields(self):
            value, least, flag = getattr(self, f.name), f.metadata["least"], f.metadata["flag"]
            entries = value if isinstance(value, tuple) else (value,)
            if least is not None and value is not None and any(v < least for v in entries):
                what = f"{f.name} entries" if isinstance(value, tuple) else f.name
                raise ConfigError(f"{what} must be >= {least}, got {value}")
            if isinstance(flag, tuple) and value not in flag:
                raise ConfigError(f"{f.name} must be {' or '.join(flag)}, got {value!r}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigError(f"step must be positive, got {self.step}")

    def hash(self) -> str:
        """Digest of every setting and input file content that shapes the output."""
        payload = {}
        for f in fields(self):
            value, role = getattr(self, f.name), f.metadata["role"]
            if role is None:
                payload[f.name] = value
            elif role == "in" and value is not None:
                digest = sha256()
                with open(value, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 16), b""):
                        digest.update(block)
                payload[f"{f.name}_sha256"] = digest.hexdigest()
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()[:12]

    def header(self) -> str:
        return f"mu-domain-kit v{__version__}, config hash {self.hash()}"


def merge_config(file_cfg: dict, args: argparse.Namespace) -> RunConfig:
    """Fold config file entries and flags into a RunConfig; flags win."""
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    names = {f.name for f in fields(RunConfig)}
    unknown = set(file_cfg) - names
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    merged = {**file_cfg, **{name: value for name, value in vars(args).items()
                             if name in names and value is not None}}
    if "dist" not in merged:
        raise ConfigError("no distribution given; use --dist or a config file")
    kwargs: dict = {"dist": merged["dist"]}
    for f in fields(RunConfig):
        if merged.get(f.name) is not None:
            kwargs[f.name] = f.metadata["parse"](merged[f.name], f.name)
    return RunConfig(**kwargs)


def _config_call(fn, *args, **kwargs):
    """fn(*args, **kwargs), with a law, scheme or size it refuses reported as a
    config error: numpy refuses a size beyond its index range with a ValueError or
    an OverflowError.  A pole or a domain off the origin stays numerical."""
    try:
        return fn(*args, **kwargs)
    except (PoleError, TopologyError):
        raise
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc))


def _build_polyline(cfg: RunConfig):
    """The build pipeline: normalize, discretize, trace, scale back.

    `scale_domain(traced, width, left)` inverts `normalize_support`, so the
    domain is the law's own, in the frame `map` and `rates` use.  The round
    trip is the identity up to rounding; it stays only because perfbench
    rebinds both names here and its error split reads the affine map
    (ROADMAP item 18).
    """
    dist = build_distribution(cfg.dist)
    norm, width, left = _config_call(normalize_support, dist)
    sq = _config_call(build_measure, norm, cfg.n, cfg.scheme)
    traced = _config_call(boundary_points, sq, num_points=cfg.points)
    return scale_domain(traced, width, left)


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
        sq = _config_call(build_measure, dist, n, cfg.scheme)
        l1 = l1_distance(dist, sq)
        rb = rate_bound(dist, n)
        rows.append((str(n), float_cell(l1), float_cell(rb.bound),
                     float_cell(rb.varpi)))
    write_csv(out, cfg.header(), ("n", "l1", "bound", "varpi"), rows)


def cmd_map(cfg: RunConfig) -> None:
    out = cfg.out or "map.csv"
    dist = build_distribution(cfg.dist)
    sq = _config_call(build_measure, dist, cfg.n, cfg.scheme)
    fc = _config_call(fourier_coefficients, sq, num_terms=cfg.coeffs)
    rows = ((str(k), float_cell(a))
            for k, a in enumerate(fc.coeffs, start=1))
    write_csv(out, cfg.header(), ("k", "a_k"), rows)


def _summary_path(out: str) -> str:
    return os.path.splitext(out)[0] + ".summary.json"


def _sample_report(samples: np.ndarray, dist) -> dict:
    """KS distance of exit samples to `dist`, their mean and std; None when empty."""
    if not samples.size:
        return dict.fromkeys(("ks", "mean", "std"))
    return {"ks": ks_distance(samples, dist), "mean": float(samples.mean()),
            "std": float(samples.std())}


def cmd_simulate(cfg: RunConfig) -> None:
    if not cfg.boundary:
        raise ConfigError("simulate needs --boundary pointing at a CSV "
                          "written by the build command")
    out = cfg.out or "samples.csv"
    dist = build_distribution(cfg.dist)
    bp = _read_input(load_csv, cfg.boundary)
    result = _config_call(simulate_exit, bp, walks=cfg.walks, step=cfg.step,
                          seed=cfg.seed, max_steps=cfg.max_steps)
    rows = ((str(w), float_cell(x))
            for w, x in zip(result.walk_ids, result.samples))
    write_csv(out, cfg.header(), ("walk", "x_exit"), rows)
    summary = {
        "walks": cfg.walks,
        "truncated": result.truncated_walks,
        "seed": cfg.seed,
        "step": cfg.step,
        **_sample_report(result.samples, dist),
    }
    with open(_summary_path(out), "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.truncation_warning:
        print(f"warning: {result.truncated_walks} of {cfg.walks} walks were "
              "truncated; the sample may be biased", file=sys.stderr)


def load_samples_csv(path) -> np.ndarray:
    """Exit abscissas from a samples.csv written by the simulate command."""
    return read_floats(path, ("walk", "x_exit"))[:, 1]


def cmd_check(cfg: RunConfig) -> None:
    if not cfg.samples:
        raise ConfigError("check needs --samples pointing at a samples CSV")
    dist = build_distribution(cfg.dist)
    samples = _read_input(load_samples_csv, cfg.samples)
    if not samples.size:
        raise ConfigError(f"no samples found in {cfg.samples}")
    report = {"samples": int(samples.size), **_sample_report(samples, dist)}
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if cfg.out:
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write(text + "\n")


_COMMANDS = {
    "build": (cmd_build, "trace a domain boundary to CSV (and optional SVG)"),
    "rates": (cmd_rates, "tabulate l1 errors and bounds over an n list"),
    "map": (cmd_map, "export the disc map's power series coefficients"),
    "simulate": (cmd_simulate, "sample Brownian exits from a built boundary"),
    "check": (cmd_check, "KS statistic of an existing sample file"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mudk` argument parser, built once per process and shared by
    every `main` call, so a caller must not change it.

    argparse links its parsers, actions and formatters in reference
    cycles, so a parser built per `main` call would wait for the cyclic
    collector every time.  Parsing keeps no state in the parser: every
    `parse_args` call starts from a fresh namespace.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", nargs="?", default=None,
                        help="JSON config file; flags override its entries")
    for f in fields(RunConfig):
        flag = f.metadata["flag"]
        common.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"],
                            **{"choices" if isinstance(flag, tuple) else "type": flag})

    parser = argparse.ArgumentParser(
        prog="mudk",
        description="Build and check planar domains whose Brownian exit "
                    "abscissa follows a prescribed law.")
    parser.add_argument("--version", action="version",
                        version=f"mu-domain-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, line) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=line)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; callable any number of
    times in one process."""
    args = build_parser().parse_args(argv)
    try:
        file_cfg = _load_json_arg(args.config, "config") if args.config else {}
        cfg = merge_config(file_cfg, args)
        _COMMANDS[args.command][0](cfg)
    except (ConfigError, UnboundedSupportError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, TopologyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, InputFileError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0
