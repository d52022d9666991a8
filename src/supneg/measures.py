"""Entanglement measures from antisymmetric-generator bilinear forms.

Per cut gamma|rest, every pair alpha=(i,j) of kept-subsystem basis indices
and beta=(k,l) of complement indices selects one product J = L_alpha x S_beta
of antisymmetric generators L = |i><j| - |j><i| (unnormalized convention; the
1/sqrt(2)-scaled variant breaks the identities below by factors 2 and 4).
The bilinear forms B = <psi| J |phi*> assemble into a D1 x D2 matrix T whose

  * squared Frobenius norm gives the squared concurrence 2(1 - Tr rho^2), and
  * trace norm gives the negativity ||rho^{T_gamma}||_1 - 1

for psi = phi normalized.  The trace norm is the evaluation used throughout:
the entry-wise sum of |B| is basis dependent and overshoots the negativity
for states whose matricization is not Schmidt aligned.

Cross sums never form T densely.  For an r x c matricization T has
C(r,2) x C(c,2) entries, each a sum of 2x2 minors: T(P, Q) = C2(P + Q) -
C2(P) - C2(Q) for the conjugated matricizations P, Q, with C2 the second
compound.  A thin LQ [P; Q] = L W with W W^dagger = I gives
T(P, Q) = T(L_P, L_Q) C2(W) by Cauchy-Binet, and C2(W) is a co-isometry
(Horn & Johnson, Matrix Analysis, sec. 0.8.1).  So the smaller matrix
T(L_P, L_Q), C(r,2) x C(min(2r, c),2) or C(r,2) x C(min(r, c),2) for
psi = phi, has the singular values of T.  L is lower trapezoidal, so L_P is
zero from column r on and the columns (k, l) of T(L_P, L_Q) with k >= r
vanish; they are not built (66 of 276 at d = 12; none for psi = phi, where L
has at most r columns).

The kernel ``cross_sum_spectra`` takes a batch of (psi, phi, cut) triples;
each verify check that uses it makes one call (the Haar check serves three
check names with one).  Bounds send it only their psi1-psi2 triples: a self
sum T(P, P) = 2 C2(P) has singular values 2 s_i s_j, i < j, so ``bounds``
and ``schmidt_paths`` read it off the singular values s of P as
2 ``states.pair_sum(s)``.  ``measure_report`` reads every value off one
``schmidt_paths`` call, one stacked SVD per matricization shape; the
kernel's self path is the witness verify compares it with.  Triples of one
stacked shape share one QR of their stacked transposes; T(L_P, L_Q) is then
built T_CHUNK_ENTRIES entries at a time, one t_matrix call and one SVD per
chunk, so the temporaries of a stack stay in cache (three d = 12 cross-pair
T built at once took 2.2-2.6 ms, against 0.6 ms one at a time).  LAPACK factors
each matrix of a stack on its own and T is entry-wise, so a triple gets the
same bits alone as in any batch.  The dense T and the single bilinear form,
the references this kernel is checked against, live in ``tests/reference.py``.

Determinism: generator pairs are enumerated lexicographically and every
reduction has a fixed order, so identical inputs give bit-identical results
at a fixed BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterable

import numpy as np

from .states import (
    Bipartition,
    PureState,
    bipartitions,
    matricize,
    pair_sum,
    require_normalized,
    singular_values,
)

T_CHUNK_ENTRIES = 2**14  # T entries per t_matrix call: keeps stacked temporaries in cache


@lru_cache(maxsize=64)
def _pair_indices(n: int, below: int | None = None) -> tuple[np.ndarray, ...]:
    """Generator pairs i < j of range(n), lexicographic, with i < ``below``
    when given; read-only, as cached."""
    pairs = np.triu_indices(n, 1)
    if below is not None:
        pairs = tuple(side[pairs[0] < below] for side in pairs)
    for side in pairs:
        side.setflags(write=False)
    return pairs


def t_matrix(p: np.ndarray, q: np.ndarray, below: int | None = None) -> np.ndarray:
    """T(p, q) = C2(p + q) - C2(p) - C2(q) for two same-shape (stacks of) matrices.

    Rows alpha and columns beta are generator pairs, lexicographic; entry
    p[i,k] q[j,l] + q[i,k] p[j,l] - p[i,l] q[j,k] - q[i,l] p[j,k], grouped so
    that swapping p and q gives the same matrix bit for bit.  Entry-wise, so
    a stack gets the bits of its members built one at a time.  With ``below``
    only the columns k < l with k < below are built: each term has a factor
    p[., k] or p[., l], so the others are zero when p is zero from column
    ``below`` on.
    """
    ri, rj = _pair_indices(p.shape[-2])
    ci, cj = _pair_indices(p.shape[-1], below)
    pi, pj = p[..., ri, :], p[..., rj, :]
    qi, qj = q[..., ri, :], q[..., rj, :]
    # in place on fresh gathers: at most four T-sized arrays live at once
    t = pi[..., ci] * qj[..., cj]
    x = qi[..., ci]
    x *= pj[..., cj]
    t += x
    u = pi[..., cj]
    u *= qj[..., ci]
    x = qi[..., cj]
    x *= pj[..., ci]
    u += x
    t -= u
    return t


def _stacked_lq(members: list[list[np.ndarray]]) -> np.ndarray:
    """L of a thin LQ [P_1; P_2; ...] = L W, W W^dagger = I, for each member.

    Each member lists its matricizations P_k; the result stacks the members'
    L.  L is the conjugate transpose of R from a QR of the stacked transpose,
    never a factor of the Gram matrix, which would square the condition number.
    """
    n = len(members[0])
    rows, cols = members[0][0].shape
    stacked = np.empty((len(members), cols, n * rows), dtype=complex)
    for j, mats in enumerate(members):
        for b, m in enumerate(mats):
            stacked[j, :, b * rows : (b + 1) * rows] = m.T
    return np.linalg.qr(stacked, mode="r").conj().transpose(0, 2, 1)


def _byte_ordered(psi: PureState, phi: PureState) -> tuple[PureState, ...]:
    """(psi,) for equal amplitude bytes, else both states in byte order."""
    a, b = psi.amplitudes.tobytes(), phi.amplitudes.tobytes()
    return (psi,) if a == b else (psi, phi) if a < b else (phi, psi)


def cross_sum_spectra(
    triples: Iterable[tuple[PureState, PureState, Bipartition]],
) -> list[np.ndarray]:
    """Singular values of T(P, Q) for every (psi, phi, cut) triple, in order.

    Read off the compressed T(L_P, L_Q), with L_P, L_Q the row blocks of L
    from ``_stacked_lq``.  Keyed on amplitude bytes: equal states factor P
    alone, and distinct ones stack in byte order, so swapping psi and phi
    changes no bit.  Triples of one stacked shape share one QR, and T is
    built in chunks of T_CHUNK_ENTRIES with one SVD per chunk; each triple
    gets the same bits alone as in any batch.  The module-level t_matrix is
    looked up per call, so a test can swap it.
    """
    triples = list(triples)
    blocks: list[list[np.ndarray]] = []
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, (psi, phi, cut) in enumerate(triples):
        if psi.dims != phi.dims:
            raise ValueError(f"dims mismatch: {psi.dims} vs {phi.dims}")
        ordered = _byte_ordered(psi, phi)
        blocks.append([matricize(state, cut) for state in ordered])
        groups.setdefault((len(ordered), cut.row_dim, cut.col_dim), []).append(i)
    # every QR first, so that no matricization is held while T is built
    lqs = [_stacked_lq([blocks[i] for i in members]) for members in groups.values()]
    del blocks
    spectra: list = [None] * len(triples)
    for ((_, rows, _), members), factors in zip(groups.items(), lqs):
        lp, lq = factors[:, :rows], factors[:, -rows:]
        # L is lower trapezoidal, so L_P is zero from column rows on
        entries = math.comb(rows, 2) * _pair_indices(factors.shape[2], rows)[0].size  # of one T
        step = max(1, T_CHUNK_ENTRIES // entries)
        for start in range(0, len(members), step):
            chunk = slice(start, start + step)
            sv = np.linalg.svd(t_matrix(lp[chunk], lq[chunk], rows), compute_uv=False)
            for i, sigma in zip(members[chunk], sv):
                spectra[i] = sigma
    return spectra


def cross_sums(
    triples: Iterable[tuple[PureState, PureState, Bipartition]],
) -> list[float]:
    """Trace norm of T(P, Q) for every (psi, phi, cut) triple, from one kernel
    call: nonnegative, symmetric in (psi, phi) bit for bit, and quadratic in
    each state, so on a raw chi it is ||chi||^2 times the per-cut negativity."""
    return [float(sigma.sum()) for sigma in cross_sum_spectra(triples)]


@lru_cache(maxsize=64)
def _upper_mask(n: int) -> np.ndarray:
    """0/1 (n, n) mask of the entries above the diagonal; read-only, as cached."""
    mask = np.triu(np.ones((n, n)), 1)
    mask.setflags(write=False)
    return mask


def schmidt_paths(pairs: list[tuple[PureState, Bipartition]]) -> list[tuple[float, float]]:
    """(negativity, squared concurrence) of every (normalized state, cut) pair
    off its Schmidt values s, from one ``singular_values`` call.

    The negativity is the self sum ``bounds`` reads, 2 ``pair_sum(s)``.  The
    concurrence is the density path 4 sum_{i<j} lambda_i lambda_j,
    lambda = s^2, which equals 2(1 - Tr rho^2) at unit norm without its
    cancellation, so a product cut reads ~1e-32, not ~1e-16.  The cached mask
    zeroes what ``np.triu`` would, so the sum has the same terms in the same
    order.
    """
    values = []
    for s in singular_values(pairs):
        # s >= 0: only the upper end of [0, 1] can need clipping, and np.clip costs 5x more
        lam = np.minimum(s * s, 1.0)
        density = 4.0 * float((np.outer(lam, lam) * _upper_mask(lam.size)).sum())
        values.append((2.0 * pair_sum(s), density))
    return values


@dataclass(frozen=True)
class MeasureReport:
    """All scalar measures of one state, in fixed serialization order."""

    n_a: float
    n_b: float
    n_c: float
    n_multi: float
    n_gme: float
    c2_a: float
    c2_b: float
    c2_c: float
    c2_multi: float
    c_gme: float
    diagnostics: dict

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["diagnostics"] = dict(self.diagnostics)
        return out


def measure_report(state: PureState) -> MeasureReport:
    """Evaluate every measure of a normalized tripartite state.

    Every value comes off the Schmidt values of the three cuts, from one
    ``schmidt_paths`` call: the per-cut negativities 2 ``pair_sum(s)`` and
    the density-path concurrences; no T is built.  The multipartite
    negativity is 2 * sum of the per-cut values and the GME negativity is
    their min, both by construction.  Diagnostics carry the Schmidt-path
    negativities (the per-cut values themselves) and the GME concurrence
    without the factor 2 under the root (an alternate convention some
    references use).
    """
    require_normalized(state, "measure_report")
    paths = schmidt_paths([(state, cut) for cut in bipartitions(state)])
    negs = [n for n, _ in paths]
    c2 = [c for _, c in paths]
    return MeasureReport(
        n_a=negs[0],
        n_b=negs[1],
        n_c=negs[2],
        n_multi=2.0 * sum(negs),
        n_gme=min(negs),
        c2_a=c2[0],
        c2_b=c2[1],
        c2_c=c2[2],
        c2_multi=sum(c2),
        c_gme=float(np.sqrt(min(c2))),
        diagnostics={
            "n_schmidt": negs,
            "c_gme_unit_prefactor": float(np.sqrt(min(c2) / 2.0)),
        },
    )
