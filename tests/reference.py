"""Test references: the per-entry bilinear forms and the dense T they fill, a
Jacobi trace norm, the reduced density matrix, Haar local unitaries, and the
aggregates of a cross-term table.

No ``supneg`` path calls these; the tests check the compressed cross-sum
kernel, the Schmidt and density paths, local-unitary invariance and
``CrossTermTable`` against them.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from supneg import measures
from supneg.library import _rng
from supneg.oracle import hermitian_eigenvalues
from supneg.states import Bipartition, PureState, matricize, require_normalized


class GeneratorPair(NamedTuple):
    """Index pair (i, j), i < j, selecting one antisymmetric generator."""

    i: int
    j: int


def generator_pairs(dim: int) -> list[GeneratorPair]:
    """All (i, j) with i < j < dim, lexicographic; dim*(dim-1)/2 of them."""
    if dim < 2:
        raise ValueError(f"generator pairs need dimension >= 2, got {dim}")
    return [GeneratorPair(i, j) for i in range(dim - 1) for j in range(i + 1, dim)]


def _conj_matricizations(
    psi: PureState, phi: PureState, cut: Bipartition
) -> tuple[np.ndarray, np.ndarray]:
    if psi.dims != phi.dims:
        raise ValueError(f"dims mismatch: {psi.dims} vs {phi.dims}")
    return matricize(psi, cut).conj(), matricize(phi, cut).conj()


def bilinear_form(
    psi: PureState,
    phi: PureState,
    cut: Bipartition,
    alpha: GeneratorPair,
    beta: GeneratorPair,
) -> complex:
    """<psi| L_alpha x S_beta |phi*> for one generator pair.

    Each J has exactly 4 nonzero entries, so this is four products of
    conjugated amplitudes read off the matricizations:

        B = p[i,k] q[j,l] - p[i,l] q[j,k] - p[j,k] q[i,l] + p[j,l] q[i,k]

    with p, q the conjugated matricizations of psi, phi.
    """
    p, q = _conj_matricizations(psi, phi, cut)
    i, j = alpha
    k, l = beta
    if not (0 <= i < j < cut.row_dim and 0 <= k < l < cut.col_dim):
        raise ValueError(f"generator pair out of range for cut {cut.label}")
    # grouped so psi <-> phi swaps summands pairwise: exact symmetry in floats
    return complex(
        (p[i, k] * q[j, l] + q[i, k] * p[j, l])
        - (p[i, l] * q[j, k] + q[i, l] * p[j, k])
    )


def bilinear_matrix(psi: PureState, phi: PureState, cut: Bipartition) -> np.ndarray:
    """All bilinear forms as a dense D1 x D2 matrix, rows alpha, columns beta.

    Row and column pairs run lexicographically.  For psi = phi the entries
    are twice the 2x2 minors of the conjugated matricization.  This is the
    reference for the compressed kernel; cross sums never build it.
    """
    return measures.t_matrix(*_conj_matricizations(psi, phi, cut))


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(matrix)).sum())


def reduced_density(state: PureState, cut: Bipartition) -> np.ndarray:
    """Reduced density matrix of the kept subsystem of a normalized state,
    rho = M M^dagger."""
    require_normalized(state, "reduced_density")
    m = matricize(state, cut)
    return m @ m.conj().T


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    rng = _rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_product_unitary(state: PureState, unitaries: Sequence[np.ndarray]) -> PureState:
    """Apply U_1 x U_2 x ... x U_n to an n-partite state."""
    if len(unitaries) != len(state.dims):
        raise ValueError("need one unitary per subsystem")
    t = state.tensor()
    for k, u in enumerate(unitaries):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)
    return PureState(state.dims, t.reshape(-1))


def cross_term_table(
    a1: complex, a2: complex, s11: Sequence[float], s22: Sequence[float], s12: Sequence[float]
) -> dict[str, float]:
    """Every aggregate field of a ``CrossTermTable`` from its per-cut sums, by
    name: with w the pair's weight |a_i a_j|, f*_multi = w 2 (sum over cuts),
    f* = w (max over cuts), g* = w (min over cuts)."""
    table = {}
    for key, w, sums in (("11", abs(a1) ** 2, s11), ("22", abs(a2) ** 2, s22),
                         ("12", abs(a1 * a2), s12)):
        x, y, z = sums
        ordered = sorted(sums)
        table[f"f{key}_multi"] = w * 2.0 * (x + y + z)
        table[f"f{key}"] = w * ordered[-1]
        table[f"g{key}"] = w * ordered[0]
    return table
