"""Upper and lower bounds on negativities of two-component superpositions.

For chi = a1*psi1 + a2*psi2 the bilinear-form matrix of chi splits into the
component matrices, so by the norm triangle inequality the per-cut cross
sums S_gamma(psi_i, psi_j) sandwich both ||chi||^2 N(chi') (total negativity,
cut sums weighted by the global factor 2) and ||chi||^2 N_GME(chi') (min over
cuts, combined through the min/max lemma), both through ``combine_bounds``.
Lower bounds may be negative as stated; clamped-at-zero variants are reported
alongside.  The self sums S_gamma(psi, psi), exact values included, are
2 sum_{i<j} s_i s_j over the singular values s of the matricization, by
``states.pair_sum``, the formula of the Schmidt path in ``measures``; only
S_gamma(psi1, psi2) takes the cross-sum kernel.  None of the nine component
sums depends on the coefficients, so a batch computes them once per distinct
(psi1, psi2) and a module-level memo keeps those of the last pair: a
coefficient sweep and repeated calls on one pair pay the kernel once.
Each sum has the same bits alone as in any batch, so a memo hit returns the
bytes a recomputation would.  The superposition itself, ``SuperpositionSpec``,
lives in ``supneg.states`` with its coefficient checks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .measures import cross_sums
from .states import (Bipartition, PureState, SuperpositionSpec, bipartitions, pair_sum,
                     singular_values)

# Reported closed-form constants of the t1 and t2 upper-bound curves of the
# GHZ/W-superposition family, which the sweep sidecar divides by its fits.
# They come out exactly with ordered generator pairs (4x every sum here) and
# the entry-wise sum of |B| instead of the trace norm.  That sum is at least
# the trace norm, so upper bounds in that form still bound 4x the negativity;
# lower bounds do not.
REPORTED_TOTAL_CONSTANTS = (32.0, 16.0 * np.sqrt(6.0), 24.0)
REPORTED_GME_CONSTANTS = (16.0 / 3.0, (8.0 / 3.0) * np.sqrt(6.0), 4.0)

# The nine component sums S(psi1,psi1), S(psi2,psi2), S(psi1,psi2) of the last
# _PAIR_MEMO_SIZE component pairs, keyed by ``_pair_key``; a d = 12 key holds
# 55 kB of amplitude bytes.  One pair: repeated bounds calls reuse only the
# previous call's pair, and a batch shares its pairs without the memo.
_PAIR_MEMO_SIZE = 1
_pair_memo: dict[tuple, tuple[float, ...]] = {}


@dataclass(frozen=True)
class CrossTermTable:
    """Per-cut raw cross sums and the derived bound coefficients.

    ``s11``, ``s22``, ``s12`` hold S_gamma(psi_i, psi_j) in cut order
    (A|BC, B|AC, C|AB).  The *_multi scalars aggregate over cuts with the
    total-negativity prefactor 2 (so f11_multi = |a1|^2 N(psi1)); the
    f/g scalars take the max/min over cuts without that prefactor.
    """

    s11: tuple[float, float, float]
    s22: tuple[float, float, float]
    s12: tuple[float, float, float]
    f11_multi: float
    f22_multi: float
    f12_multi: float
    f11: float
    f22: float
    f12: float
    g11: float
    g22: float
    g12: float

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


@dataclass(frozen=True)
class BoundsReport:
    """Exact scaled negativities of a superposition next to all four bounds."""

    norm_sq: float
    n_exact: float  # ||chi||^2 N(chi')
    ngme_exact: float  # ||chi||^2 N_GME(chi')
    t1_upper: float
    t1_lower_raw: float
    t1_lower: float
    t2_upper: float
    t2_lower_raw: float
    t2_lower: float
    terms: CrossTermTable  # the table the bounds came from; not serialized

    @property
    def t2_gap(self) -> float:
        return self.t2_upper - self.ngme_exact

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "terms"}
        out["t2_gap"] = self.t2_gap
        return out


def _self_sums(pairs: Iterable[tuple[PureState, Bipartition]]) -> list[float]:
    """S_gamma(psi, psi) of every (state, cut) pair as 2 ``pair_sum(s)``."""
    return [2.0 * pair_sum(s) for s in singular_values(pairs)]


def _table(spec: SuperpositionSpec, sums: Sequence[float]) -> CrossTermTable:
    """The table of one spec from its nine cross sums: s11, s22, s12 in cut order."""
    s11, s22, s12 = (tuple(sums[k : k + 3]) for k in (0, 3, 6))
    w11 = abs(spec.a1) ** 2
    w22 = abs(spec.a2) ** 2
    w12 = abs(spec.a1 * spec.a2)
    return CrossTermTable(
        s11=s11,
        s22=s22,
        s12=s12,
        f11_multi=w11 * 2.0 * sum(s11),
        f22_multi=w22 * 2.0 * sum(s22),
        f12_multi=w12 * 2.0 * sum(s12),
        f11=w11 * max(s11),
        f22=w22 * max(s22),
        f12=w12 * max(s12),
        g11=w11 * min(s11),
        g22=w22 * min(s22),
        g12=w12 * min(s12),
    )


def combine_bounds(lo: Sequence[float], hi: Sequence[float]) -> tuple[float, float]:
    """Bounds on x_0 + x_1 + x_2 from 0 <= lo[k] <= x_k <= hi[k]: upper is the
    min over k of the sum with term k at lo[k] and the others at hi, lower_raw
    the max over k of that sum signed + on term k and - on the others, each
    added in term order.  lo = hi gives the triangle bounds; per-cut minima and
    maxima give the min/max lemma.  A length other than 3, or a negative or NaN
    entry, raises ValueError."""
    if len(lo) != 3 or len(hi) != 3:
        raise ValueError("expected three terms in lo and hi")
    if not all(x >= 0.0 for x in (*lo, *hi)):
        raise ValueError(f"terms must be numbers >= 0, got lo={lo!r}, hi={hi!r}")
    (l0, l1, l2), (h0, h1, h2) = lo, hi
    upper = min(l0 + h1 + h2, h0 + l1 + h2, h0 + h1 + l2)
    lower_raw = max(l0 - h1 - h2, -h0 + l1 - h2, -h0 - h1 + l2)
    return upper, lower_raw


def _pair_key(spec: SuperpositionSpec) -> tuple:
    """The memo key of a spec's component pair: dims and both amplitude byte strings."""
    return (spec.psi1.dims, spec.psi1.amplitudes.tobytes(), spec.psi2.amplitudes.tobytes())


def evaluate_bounds_batch(specs: Sequence[SuperpositionSpec]) -> list[BoundsReport]:
    """``evaluate_bounds`` of every spec, in order, bit for bit.  The six self
    sums and three cross sums of a component pair missing from the pair memo
    come from one stacked SVD per matricization shape, shared with every
    spec's chi, and one kernel call for the psi1-psi2 triples; each pair is
    computed once per batch and the memo updated after both calls.  Reads
    and evictions tolerate other threads: a race costs a recomputation."""
    chis = [spec.superposed() for spec in specs]
    keys = [_pair_key(spec) for spec in specs]
    hits = ((key, _pair_memo.get(key)) for key in keys)
    pair_sums = {key: sums for key, sums in hits if sums is not None}
    missing = {key: spec for key, spec in zip(keys, specs) if key not in pair_sums}
    selfs = _self_sums([(state, cut) for spec in missing.values()
                        for state in (spec.psi1, spec.psi2) for cut in bipartitions(state)]
                       + [(chi, cut) for chi in chis for cut in bipartitions(chi)])
    s12 = cross_sums([(sp.psi1, sp.psi2, cut) for sp in missing.values()
                      for cut in bipartitions(sp.psi1)])
    for j, key in enumerate(missing):
        pair_sums[key] = _pair_memo[key] = (*selfs[6 * j : 6 * j + 6], *s12[3 * j : 3 * j + 3])
    for key in list(_pair_memo)[:-_PAIR_MEMO_SIZE]:  # all but the newest inserts
        _pair_memo.pop(key, None)
    chi_sums = selfs[6 * len(missing) :]
    reports = []
    for k, (spec, chi) in enumerate(zip(specs, chis)):
        table = _table(spec, pair_sums[keys[k]])
        per_cut = chi_sums[3 * k : 3 * k + 3]
        multi = (table.f11_multi, table.f22_multi, 2.0 * table.f12_multi)
        t1_upper, t1_lower_raw = combine_bounds(multi, multi)
        t2_upper, t2_lower_raw = combine_bounds(
            (table.g11, table.g22, 2.0 * table.g12), (table.f11, table.f22, 2.0 * table.f12)
        )
        reports.append(
            BoundsReport(
                norm_sq=chi.norm_sq,
                n_exact=2.0 * sum(per_cut),
                ngme_exact=min(per_cut),
                t1_upper=t1_upper,
                t1_lower_raw=t1_lower_raw,
                t1_lower=max(t1_lower_raw, 0.0),
                t2_upper=t2_upper,
                t2_lower_raw=t2_lower_raw,
                t2_lower=max(t2_lower_raw, 0.0),
                terms=table,
            )
        )
    return reports


def evaluate_bounds(spec: SuperpositionSpec) -> BoundsReport:
    """Exact scaled negativities of the superposition and all four bounds.

    The exact values come straight from the cross sums of the raw chi:
    a cross sum is quadratic in its arguments, so no normalization step is
    needed and a vanishing-norm chi simply yields exact values near zero.
    """
    return evaluate_bounds_batch([spec])[0]


class GmeCurveFit(NamedTuple):
    c1: float
    c2: float
    c3: float
    max_residual: float


def fit_gme_closed_form(p_grid: Sequence[float], values: Sequence[float]) -> GmeCurveFit:
    """Least-squares fit of c1*(1-p) + c2*sqrt(p(1-p)) + c3*p to a curve.

    On the GHZ/W family this form is exact for the upper-bound curves
    ``t1_upper`` and ``t2_upper`` (residual below 1e-14), the curves the
    reported constants describe.  The exact curves are not in its span:
    ``ngme_exact`` is sqrt(5p^2 - 4p + 8)/3, so fit only the upper bounds.
    Three points fix the three coefficients and leave no residual whatever
    the curve, so the fit takes at least four.
    """
    p = np.asarray(p_grid, dtype=float)
    y = np.asarray(values, dtype=float)
    if p.size != y.size or p.size < 4:
        raise ValueError("need matching grids with at least 4 points")
    design = np.stack([1.0 - p, np.sqrt(p * (1.0 - p)), p], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.abs(design @ coef - y).max())
    return GmeCurveFit(float(coef[0]), float(coef[1]), float(coef[2]), residual)
