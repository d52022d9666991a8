"""Property harness: seeded checks of the fast paths and the bounds.

``CHECKS`` is a table of block checks, each one sample contract:
``draw(key, i)`` returns sample ``i`` drawn from its key, ``violations``
scores a list of samples in one batch (per sample, one violation per check
name) and ``replay`` returns the JSON inputs of one sample.  ``run_verify``
alone derives the per-sample seeds, as ``seed XOR index``, so results do not
depend on how the samples are grouped, and it calls ``replay`` only for the
worst sample of a failing check.  The Haar check is one entry for three
names (dual path, concurrence identity, GME positivity): it scores its
states with one ``measures.cut_measures`` call over their cuts (one
cross-sum kernel call, stacked Schmidt SVDs) and one Jacobi-oracle call.
The sandwich check makes one ``bounds.evaluate_bounds_batch`` call (stacked
SVDs, one kernel call); its sample 0 is a degenerate superposition, and its
samples 2 mod 4 are specs where ``t1_upper`` is attained (``t2_upper`` too
at 6 mod 8), so a fault in the sums ``bounds`` reads shows as a violation.
The biseparability check makes one ``singular_values`` call for the
Schmidt-path negativities 2 ``pair_sum(s)`` that ``measure`` reports, the
lemma check one ``bounds.combine_bounds`` call per sample, the combination
both bounds use.  A check passes when its largest violation over the samples
is within tolerance (the run's, or its entry in ``FIXED_TOLS``); a failing
check keeps the inputs of its worst sample.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

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


class Check(NamedTuple):
    names: tuple[str, ...]
    draw: Callable[[int, int], Any]  # (key, i) -> sample i
    violations: Callable[[list], Sequence[tuple[float, ...]]]  # per sample, one per name
    replay: Callable[[Any], dict]  # sample -> its JSON inputs


def _sample_dims(index: int) -> list[int]:
    return [2, 2, 2] if index % 2 == 0 else [3, 3, 3]


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


def _state_replay(state: PureState) -> dict:
    return {"state": state.to_dict()}


def _haar_violations(states: list[PureState]) -> list[tuple[float, ...]]:
    pairs = _cut_pairs(states)
    per_state = _by_state(measures.cut_measures(pairs))
    n_pt = _by_state(list(oracle.negativities_pt_oracle(pairs)))
    rows = []
    for cuts, pts in zip(per_state, n_pt):
        gaps = [abs(c.negativity - pt) for c, pt in zip(cuts, pts)]
        gaps += [abs(c.negativity - c.schmidt) for c in cuts]
        # the non-raising paths, so a broken convention is a measured violation
        concurrence = _max(0.0, *(abs(c.difference) for c in cuts))
        gme = _max(0.0, *(HAAR_GME_FLOOR - c.negativity for c in cuts))  # floor - min(N)
        rows.append((_max(*gaps), concurrence, gme))
    return rows


def _degenerate_spec(seed: int) -> SuperpositionSpec:
    # parallel components with cancelling coefficients: chi is (near) zero
    psi = library.haar_random([2, 2, 2], seed)
    theta = 0.7345
    psi2 = PureState(psi.dims, np.exp(1j * theta) * psi.amplitudes)
    a1 = complex(np.sqrt(0.5))
    a2 = -np.exp(-1j * theta) * np.sqrt(0.5)
    return SuperpositionSpec(a1, a2, psi, psi2)


def _attained_spec(key: int, dims: list[int], symmetric: bool) -> SuperpositionSpec:
    """psi2 = e^{i theta} psi1 and a2 = e^{-i theta} sqrt(1 - w), in phase with
    a1 = sqrt(w): chi = (a1 + |a2|) psi1 and s11 = s22 = s12 on every cut, so
    t1_upper is attained.  A psi1 symmetric under the axis permutations has
    equal cuts, so t2_upper is attained too."""
    rng = library._rng(key)
    amps = library._haar_vec(rng, math.prod(dims))
    if symmetric:
        cube = amps.reshape(dims)
        amps = sum(cube.transpose(p) for p in itertools.permutations(range(3))).reshape(-1)
        amps /= np.linalg.norm(amps)
    theta, w = rng.uniform(0.0, 2.0 * np.pi), rng.uniform()
    psi = PureState(dims, amps)
    psi2 = PureState(psi.dims, np.exp(1j * theta) * amps)
    return SuperpositionSpec(complex(np.sqrt(w)), np.exp(-1j * theta) * np.sqrt(1.0 - w),
                             psi, psi2)


def _sandwich_draw(key: int, i: int) -> SuperpositionSpec:
    if i == 0:  # the documented degenerate parallel superposition
        return _degenerate_spec(key)
    if i % 4 == 2:  # a bound attained; each kind alternates dims every 8 samples
        return _attained_spec(key, _sample_dims(i // 8), symmetric=i % 8 == 6)
    return library.random_superposition_spec(_sample_dims(i), key)


def _sandwich_violations(specs: list[SuperpositionSpec]) -> list[tuple[float, ...]]:
    rows = []
    for r in bounds.evaluate_bounds_batch(specs):
        if r.norm_sq < 1e-12:
            warnings.warn(
                "superposition has near-zero norm; normalized-state values are "
                "undefined, checking bounds on the raw scaled values"
            )
        v1 = _max(r.t1_lower_raw - r.n_exact, r.n_exact - r.t1_upper)
        v2 = _max(r.t2_lower_raw - r.ngme_exact, r.ngme_exact - r.t2_upper)
        rows.append((_max(v1, 0.0), _max(v2, 0.0)))
    return rows


def _spec_replay(spec: SuperpositionSpec) -> dict:
    return {"spec": {
        "a1": [spec.a1.real, spec.a1.imag],
        "a2": [spec.a2.real, spec.a2.imag],
        "psi1": spec.psi1.to_dict(),
        "psi2": spec.psi2.to_dict(),
    }}


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


def _biseparable_draw(key: int, i: int) -> PureState:
    dims = _sample_dims(i)
    return library.random_biseparable(Bipartition.of(dims, i % 3), dims, key)


def _biseparable_violations(states: list[PureState]) -> list[tuple[float, ...]]:
    negs = _by_state([2.0 * pair_sum(s) for s in singular_values(_cut_pairs(states))])
    return [(_min(*cuts),) for cuts in negs]


CHECKS = (
    Check(("dual_path_negativity", "concurrence_identity", "haar_gme_positive"),
          lambda key, i: library.haar_random(_sample_dims(i), key), _haar_violations,
          _state_replay),
    Check(("t1_sandwich", "t2_sandwich"), _sandwich_draw, _sandwich_violations, _spec_replay),
    Check(("min_combine_lemma",), lambda key, i: library._rng(key).uniform(1e-6, 10.0, (3, 3)),
          lambda terms: [(v,) for v in _lemma_violations(np.array(terms))],
          lambda t: {"b": list(t[0]), "c": list(t[1]), "d": list(t[2])}),
    Check(("biseparable_gme_zero",), _biseparable_draw, _biseparable_violations,
          _state_replay),
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
        drawn = [check.draw(seed ^ i, i) for i in range(samples)]  # sample i's key
        rows = check.violations(drawn)
        for k, name in enumerate(check.names):
            limit = FIXED_TOLS.get(name, tol)
            column = [float(violations[k]) for violations in rows]
            top = _max(*column)
            passed = top <= limit
            worst = next(
                i for i, v in enumerate(column)
                if math.isnan(v) or v >= top - WORST_SAMPLE_FLOOR and (passed or v > limit)
            )
            inputs = None if passed else {"sample": worst, **check.replay(drawn[worst])}
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
