"""Property harness: seeded checks of the fast paths and the bounds.

``CHECKS`` is a table of block checks.  Each takes the sample count and the
run seed and returns one row per sample: one violation per check name it
produces, plus the inputs that replay the sample.  Sample ``i`` draws from
its own stream keyed by ``seed ^ i``, so results do not depend on how the
samples are grouped; a block check can therefore batch work across its
samples.  The Haar check is one entry for three names (dual path,
concurrence identity, GME positivity): it draws the Haar states once and
makes one ``measures.cut_measures`` call over their cuts (one cross-sum
kernel call, stacked Schmidt SVDs) and one Jacobi-oracle call.  The sandwich
check makes one ``bounds.evaluate_bounds_batch`` call (stacked SVDs, one
kernel call), the biseparability check one ``singular_values`` call for the
Schmidt-path negativities 2 ``pair_sum(s)`` that ``measure`` reports, the
lemma check one ``bounds.combine_bounds`` call per sample, the combination
both bounds use.
A check passes when its largest violation over the samples is within
tolerance (the run's, or its entry in ``FIXED_TOLS``); a failing check keeps
the inputs of its worst sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, library, measures, oracle
from .states import (Bipartition, PureState, SuperpositionSpec, bipartitions, pair_sum,
                     singular_values)

HAAR_GME_FLOOR = 1e-6  # Haar states must clear this GME negativity
FIXED_TOLS = {"haar_gme_positive": 0.0}  # names not held to the run's tolerance
WORST_SAMPLE_FLOOR = 1e-12  # 1e-3 x the default tolerance: ties for worst_sample


@dataclass
class CheckResult:
    name: str
    samples: int
    max_violation: float
    passed: bool
    worst_sample: int
    margin: float  # tolerance minus max_violation; negative when failing
    worst: dict | None = None


Row = tuple[tuple[float, ...], dict]  # (violation per check name, replay inputs)


class Check(NamedTuple):
    names: tuple[str, ...]
    rows: Callable[[int, int], list[Row]]  # (samples, seed) -> one row per sample


def _sample_dims(index: int) -> list[int]:
    return [2, 2, 2] if index % 2 == 0 else [3, 3, 3]


def _haar_samples(samples: int, seed: int) -> tuple[list[PureState], list[dict]]:
    """Haar sample ``i`` from ``seed ^ i``, with the inputs that replay it."""
    states = [library.haar_random(_sample_dims(i), seed ^ i) for i in range(samples)]
    return states, [{"sample": i, "state": s.to_dict()} for i, s in enumerate(states)]


def _cut_pairs(states: list[PureState]) -> list[tuple[PureState, Bipartition]]:
    return [(state, cut) for state in states for cut in bipartitions(state)]


def _by_state(values: list) -> list[list]:
    """Per-pair values of ``_cut_pairs`` regrouped as three cuts per state."""
    return [values[k : k + 3] for k in range(0, len(values), 3)]


def _max(*values: float) -> float:
    """max(values), but nan when any value is nan: the built-in max drops a
    nan unless it comes first."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _min(*values: float) -> float:
    """min(values), but nan when any value is nan, as ``_max``."""
    return math.nan if any(map(math.isnan, values)) else min(values)


def _haar(samples: int, seed: int) -> list[Row]:
    states, inputs = _haar_samples(samples, seed)
    pairs = _cut_pairs(states)
    per_state = _by_state(measures.cut_measures(pairs))
    n_pt = _by_state(list(oracle.negativities_pt_oracle(pairs)))
    rows = []
    for cuts, pts, replay in zip(per_state, n_pt, inputs):
        gaps = [abs(c.negativity - pt) for c, pt in zip(cuts, pts)]
        gaps += [abs(c.negativity - c.schmidt) for c in cuts]
        # the non-raising paths, so a broken convention is a measured violation
        concurrence = _max(0.0, *(abs(c.difference) for c in cuts))
        gme = _max(0.0, *(HAAR_GME_FLOOR - c.negativity for c in cuts))  # floor - min(N)
        rows.append(((_max(*gaps), concurrence, gme), replay))
    return rows


def _degenerate_spec(seed: int) -> SuperpositionSpec:
    # parallel components with cancelling coefficients: chi is (near) zero
    psi = library.haar_random([2, 2, 2], seed)
    theta = 0.7345
    psi2 = PureState(psi.dims, np.exp(1j * theta) * psi.amplitudes)
    a1 = complex(np.sqrt(0.5))
    a2 = -np.exp(-1j * theta) * np.sqrt(0.5)
    return SuperpositionSpec(a1, a2, psi, psi2)


def _sandwiches(samples: int, seed: int) -> list[Row]:
    # sample 0 exercises the documented degenerate parallel superposition
    specs = [
        _degenerate_spec(seed)
        if i == 0
        else library.random_superposition_spec(_sample_dims(i), seed ^ i)
        for i in range(samples)
    ]
    rows = []
    for i, (spec, r) in enumerate(zip(specs, bounds.evaluate_bounds_batch(specs))):
        if r.norm_sq < 1e-12:
            warnings.warn(
                "superposition has near-zero norm; normalized-state values are "
                "undefined, checking bounds on the raw scaled values"
            )
        v1 = _max(r.t1_lower_raw - r.n_exact, r.n_exact - r.t1_upper)
        v2 = _max(r.t2_lower_raw - r.ngme_exact, r.ngme_exact - r.t2_upper)
        payload = {
            "a1": [spec.a1.real, spec.a1.imag],
            "a2": [spec.a2.real, spec.a2.imag],
            "psi1": spec.psi1.to_dict(),
            "psi2": spec.psi2.to_dict(),
        }
        rows.append(((_max(v1, 0.0), _max(v2, 0.0)), {"sample": i, "spec": payload}))
    return rows


def _lemma_violations(terms: np.ndarray) -> list[float]:
    """Per sample of an (n, 3 terms, 3 cuts) array, how far ``bounds.combine_bounds``
    on each term's min and max over cuts misses the per-cut values: 0.0 when
    the min/max lemma holds."""
    b, c, d = terms[:, 0], terms[:, 1], terms[:, 2]
    summed = (b + c + d).min(axis=1)
    signed = np.max([(b - c - d).min(axis=1), (-b + c - d).min(axis=1),
                     (-b - c + d).min(axis=1)], axis=0)
    violations = []
    for lo, hi, top, bottom in zip(terms.min(axis=2).tolist(), terms.max(axis=2).tolist(),
                                   summed.tolist(), signed.tolist()):
        upper, lower_raw = bounds.combine_bounds(lo, hi)
        violations.append(_max(0.0, top - upper, lower_raw - bottom))
    return violations


def _lemma(samples: int, seed: int) -> list[Row]:
    terms = np.array([library._rng(seed ^ i).uniform(1e-6, 10.0, size=(3, 3))
                      for i in range(samples)])
    return [
        ((violation,), {"sample": i, "b": list(b), "c": list(c), "d": list(d)})
        for i, (violation, (b, c, d)) in enumerate(zip(_lemma_violations(terms), terms))
    ]


def _biseparable(samples: int, seed: int) -> list[Row]:
    states = []
    for i in range(samples):
        dims = _sample_dims(i)
        cut = Bipartition.of(dims, i % 3)
        states.append(library.random_biseparable(cut, dims, seed ^ i))
    negs = _by_state([2.0 * pair_sum(s) for s in singular_values(_cut_pairs(states))])
    return [
        ((_min(*cuts),), {"sample": i, "state": state.to_dict()})
        for i, (state, cuts) in enumerate(zip(states, negs))
    ]


CHECKS = (
    Check(("dual_path_negativity", "concurrence_identity", "haar_gme_positive"), _haar),
    Check(("t1_sandwich", "t2_sandwich"), _sandwiches),
    Check(("min_combine_lemma",), _lemma),
    Check(("biseparable_gme_zero",), _biseparable),
)


def run_verify(samples: int, seed: int, tol: float) -> tuple[dict, list[CheckResult]]:
    """Run every property check; returns (summary dict, individual results).

    A check's worst sample is its first (failing, if the check fails) within
    WORST_SAMPLE_FLOOR of its largest violation: rounding cannot move it.  A
    nan violation fails its check, with the first nan sample as the worst.
    A tolerance that is not a finite number >= 0 raises ValueError."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"verify tolerance must be finite and >= 0, got {tol!r}")
    results = []
    for check in CHECKS:
        rows = check.rows(samples, seed)
        for k, name in enumerate(check.names):
            limit = FIXED_TOLS.get(name, tol)
            column = [float(violations[k]) for violations, _ in rows]
            top = _max(*column)
            passed = top <= limit
            worst = next(
                i for i, v in enumerate(column)
                if math.isnan(v) or v >= top - WORST_SAMPLE_FLOOR and (passed or v > limit)
            )
            inputs = None if passed else rows[worst][1]
            results.append(
                CheckResult(name, samples, top, passed, worst, limit - top, inputs)
            )
    summary = {
        c.name: {
            "samples": c.samples,
            "max_violation": c.max_violation,
            "pass": c.passed,
            "worst_sample": c.worst_sample,
            "margin": c.margin,
        }
        for c in results
    }
    return summary, results
