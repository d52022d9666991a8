"""Command-line entry point: measure, bounds, sweep, verify.

Exit codes are a stable contract: 0 success, 1 verification violation,
2 usage or input error.  The checks behind ``verify`` live in
``supneg.verify``; this module parses arguments and writes the summary and
replay files.  Identical (config, seed) gives byte-identical files.

``main(argv)`` may be called any number of times in one process: the
parser is built on the first call and reused, since argparse keeps no state
between ``parse_args`` calls.  Each subcommand's ``cmd_*`` function is bound
(``set_defaults(fn=...)``) when the parser is built, so rebinding a
``cmd_*`` name afterwards does not reach ``main``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from . import library, measures
from .states import PureState, SuperpositionSpec, coefficient_weight, load_state, normalize
from .verify import run_verify

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

CLI_COEFF_TOL = 1e-6  # looser than the library check; CLI users type rounded values


class CliError(Exception):
    """Usage or input error; maps to exit code 2."""


def parse_complex(text: str) -> complex:
    """Parse 're+imi' coefficient syntax, e.g. '0.6+0.8i' or '0.7071'."""
    cleaned = text.strip().replace("i", "j").replace("I", "j")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise CliError(f"cannot parse complex number {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise CliError(f"coefficient {text!r} is not finite")
    return value


def _parse_params(text: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        if "=" not in chunk:
            raise CliError(f"malformed parameter {chunk!r} (expected key=value)")
        key, value = chunk.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def parse_named_state(spec_text: str) -> PureState:
    """Named-state syntax: ghz | ghz:d=3 | w | z:p=0.3,phi=0.0."""
    name, _, rest = spec_text.partition(":")
    params = _parse_params(rest)
    try:
        if name == "ghz":
            state = library.ghz(int(params.pop("d", "2")))
        elif name == "w":
            state = library.w_state()
        elif name == "z":
            spec = library.z_family(float(params.pop("p")), float(params.pop("phi", "0")))
            state, _ = normalize(spec.superposed())
        else:
            raise CliError(f"unknown named state {name!r} (try ghz, w, z:p=...)")
    except KeyError as exc:
        raise CliError(f"named state {name!r} is missing parameter {exc}") from exc
    except ValueError as exc:
        raise CliError(f"bad named state {spec_text!r}: {exc}") from exc
    if params:
        raise CliError(f"unused parameters for {name!r}: {sorted(params)}")
    return state


def resolve_state_source(source: str) -> PureState:
    """A state from 'named:<spec>', 'file:<path>', or a bare file path."""
    if source.startswith("named:"):
        return parse_named_state(source[len("named:"):])
    path = source[len("file:"):] if source.startswith("file:") else source
    try:
        state = load_state(path)
    except OSError as exc:
        raise CliError(f"cannot read state file {path!r}: {exc}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"invalid state file {path!r}: {exc}") from exc
    if len(state.dims) != 3:
        raise CliError(f"state file {path!r} has dims {state.dims}; supneg needs three subsystems")
    return _ensure_normalized(state, path)


def _ensure_normalized(state: PureState, origin: str) -> PureState:
    if state.is_normalized:
        return state
    warnings.warn(
        f"state from {origin!r} has squared norm {state.norm_sq!r}; normalizing",
        stacklevel=2,
    )
    return normalize(state)[0]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(rows: Sequence[dict], keys: Sequence[str] | None = None) -> str:
    """A header of ``keys`` and one line of full-precision values per row; by
    default the keys of the first row whose values are not dicts or lists."""
    if keys is None:
        keys = [k for k, v in rows[0].items() if not isinstance(v, (dict, list))]
    lines = [",".join(keys)] + [",".join(repr(row[k]) for k in keys) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- commands


def cmd_measure(args: argparse.Namespace) -> int:
    if args.named is not None:
        state = parse_named_state(args.named)
    else:
        state = resolve_state_source(args.file)
    report = measures.measure_report(state).to_dict()
    text = _csv_text([report]) if args.format == "csv" else _json_text(report)
    _emit(text, args.out)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.p is not None and (args.a1 is not None or args.a2 is not None):
        raise CliError("--p sets both coefficients; do not combine it with --a1 or --a2")
    psi1 = resolve_state_source(args.s1)
    psi2 = resolve_state_source(args.s2)
    if args.p is not None:
        # magnitudes-only shortcut: exactly unit coefficients, no quoting issues
        if not 0.0 <= args.p <= 1.0:
            raise CliError(f"--p must lie in [0, 1], got {args.p!r}")
        a1 = complex(math.sqrt(args.p))
        a2 = complex(math.sqrt(1.0 - args.p))
    elif args.a1 is not None and args.a2 is not None:
        a1 = parse_complex(args.a1)
        a2 = parse_complex(args.a2)
    else:
        raise CliError("bounds needs either --p or both --a1 and --a2")
    weight = coefficient_weight(a1, a2)
    if abs(weight - 1.0) > CLI_COEFF_TOL and not args.no_coeff_check:
        raise CliError(
            f"|a1|^2 + |a2|^2 = {weight!r} is off unit by more than {CLI_COEFF_TOL}; "
            "fix the coefficients or pass --no-coeff-check"
        )
    spec = SuperpositionSpec(a1, a2, psi1, psi2, coeff_check=False)
    report = bounds_mod.evaluate_bounds(spec)
    payload = report.to_dict()
    payload["a1"] = [a1.real, a1.imag]
    payload["a2"] = [a2.real, a2.imag]
    if args.dump_terms:
        payload["cross_terms"] = report.terms.to_dict()
    text = _csv_text([payload]) if args.format == "csv" else _json_text(payload)
    _emit(text, args.out)
    return EXIT_OK


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"grid must be 'start,stop,steps', got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise CliError(f"bad grid {text!r}: {exc}") from exc
    if steps < 1:
        raise CliError("grid needs at least one step")
    return np.linspace(start, stop, steps)


SWEEP_COLUMNS = ("p", "phi", "norm_sq", "n_exact", "t1_upper", "t1_lower", "ngme_exact",
                 "t2_upper", "t2_lower", "t2_gap")


def sweep_sidecar(p_grid: np.ndarray, phi: float, reports) -> dict:
    """The closed form fitted to the t1 and t2 upper-bound curves, which it
    spans exactly, with the reported constants over 4 (ordered generator
    pairs) over each fit: (sqrt 2, sqrt 2, 1), the sqrt 2 being W's entry-wise
    sum of |B| over its trace norm.  The exact GME curve, not in that span, is
    checked against sqrt(5p^2 - 4p + 8)/3 instead."""
    curves = {}
    for name, reported in (("t1_upper", bounds_mod.REPORTED_TOTAL_CONSTANTS),
                           ("t2_upper", bounds_mod.REPORTED_GME_CONSTANTS)):
        fit = bounds_mod.fit_gme_closed_form(p_grid, [getattr(r, name) for r in reports])
        curves[name] = {
            "fit": fit._asdict(),
            "reported_over_4_over_fit": [c / 4.0 / f for c, f in zip(reported, fit[:3])],
        }
    exact = np.array([r.ngme_exact for r in reports])
    return {
        "grid": {"phi": float(phi), "points": [float(p) for p in p_grid]},
        "max_t2_gap": max(r.t2_gap for r in reports),
        "ngme_exact_max_deviation": float(
            np.abs(exact - np.sqrt(5.0 * p_grid**2 - 4.0 * p_grid + 8.0) / 3.0).max()
        ),
        **curves,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    p_grid = _parse_grid(args.grid)
    if p_grid.min() < 0.0 or p_grid.max() > 1.0:
        raise CliError("sweep grid must stay inside [0, 1]")
    sidecar_path = args.sidecar or (None if args.out is None else f"{args.out}.fit.json")
    if sidecar_path and p_grid.size < 4:  # before anything is written
        raise CliError("the sidecar's closed-form fit needs a grid of at least 4 steps")
    specs = [library.z_family(float(p), args.phi) for p in p_grid]
    reports = bounds_mod.evaluate_bounds_batch(specs)
    rows = [{"p": float(p), "phi": args.phi, **r.to_dict()} for p, r in zip(p_grid, reports)]
    _emit(_csv_text(rows, SWEEP_COLUMNS), args.out)
    if sidecar_path:
        Path(sidecar_path).write_text(
            _json_text(sweep_sidecar(p_grid, args.phi, reports)), encoding="utf-8"
        )
    return EXIT_OK


# ----------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise CliError("verify needs at least one sample")
    summary, checks = run_verify(args.samples, args.seed, args.tol)
    _emit(_json_text(summary), args.out)
    failed = [c for c in checks if not c.passed]
    for check in failed:
        base = Path(args.out).parent if args.out else Path.cwd()
        replay = base / f"supneg_violation_{check.name}.json"
        replay.write_text(
            _json_text(
                {
                    "check": check.name,
                    "seed": args.seed,
                    "tol": args.tol,
                    "max_violation": check.max_violation,
                    "inputs": check.worst,
                }
            ),
            encoding="utf-8",
        )
        print(
            f"violation in {check.name}: max_violation={check.max_violation!r}, "
            f"offending inputs written to {replay}",
            file=sys.stderr,
        )
    return EXIT_VIOLATION if failed else EXIT_OK


# ------------------------------------------------------------------ parser


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``supneg`` parser, built once per process and shared by ``main``."""
    parser = argparse.ArgumentParser(
        prog="supneg",
        description="Entanglement measures and superposition bounds for "
        "tripartite pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="evaluate all measures of one state")
    group = p_measure.add_mutually_exclusive_group(required=True)
    group.add_argument("--named", help="named state, e.g. ghz, ghz:d=3, w, z:p=0.3")
    group.add_argument("--file", help="state JSON file")
    p_measure.add_argument("--out", default=None)
    p_measure.add_argument("--format", choices=("json", "csv"), default="json")
    p_measure.set_defaults(fn=cmd_measure)

    p_bounds = sub.add_parser("bounds", help="superposition bounds for two states")
    p_bounds.add_argument("--s1", required=True, help="named:<spec> or file path")
    p_bounds.add_argument("--s2", required=True)
    p_bounds.add_argument("--a1", default=None, help="complex, e.g. 0.6+0.8i")
    p_bounds.add_argument("--a2", default=None)
    p_bounds.add_argument(
        "--p", type=float, default=None, help="shortcut: a1=sqrt(p), a2=sqrt(1-p)"
    )
    p_bounds.add_argument("--dump-terms", action="store_true")
    p_bounds.add_argument("--no-coeff-check", action="store_true")
    p_bounds.add_argument("--out", default=None)
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.set_defaults(fn=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="GHZ/W family sweep over mixing weights")
    p_sweep.add_argument("--grid", default="0,1,21", help="start,stop,steps")
    p_sweep.add_argument("--phi", default="0.0", type=float)
    p_sweep.add_argument("--out", default=None, help="CSV path; sidecar goes next to it")
    p_sweep.add_argument("--sidecar", default=None, help="fit JSON path; needs no --out")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the property-check harness")
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
