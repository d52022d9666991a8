"""Dense brute-force verification path.

Everything here is deliberately independent of the generator-sum machinery:
density matrices are built as explicit outer products, the partial transpose
is an axis swap on the dense array, and eigenvalues come from a hand-rolled
cyclic Jacobi solver rather than LAPACK.  This module is the ground truth
that the fast paths are certified against.

The solver takes a stack of matrices and rotates all of them at once, with
each matrix's own scale and convergence test, so ``negativities_pt_oracle``
certifies a whole batch of (state, cut) pairs in one solve per total
dimension.  A sweep is a round-robin (circle method) ordering in the manner
of Brent & Luk (SIAM J. Sci. Stat. Comput. 6, 1985): each round rotates
floor(n/2) disjoint pairs together, on a batch-last ``(n, n, k)`` working
copy of the stack whose row and column gathers are contiguous.  A round
reads its a_pq, a_pp and a_qq in one gather of flat indices and zeroes a_pq
and a_qp in one flat write; a size's rounds and their indices are built on
its first solve and cached read-only for the process.  The Hermiticity check,
the symmetrization, the scales and the per-sweep residuals are whole-stack
array operations; each norm is summed in entry order, so a matrix's residual
has the same bits alone as in any stack.  Jacobi stays the accuracy
reference (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992); the
ordering and the stack only remove Python-level steps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .states import Bipartition, PureState

# Dense work is capped so verification runs stay interactive.
DEFAULT_MAX_DIM = 256

HERMITICITY_TOL = 1e-10
JACOBI_REL_TOL = 1e-12  # off-diagonal Frobenius norm over the matrix's, at convergence
JACOBI_MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Raised when the cyclic Jacobi sweep cap is hit before convergence."""

    def __init__(self, residual: float, sweeps: int):
        self.residual = residual
        self.sweeps = sweeps
        super().__init__(
            f"Jacobi eigensolver did not converge in {sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e})"
        )


def density_matrix(state: "PureState") -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized pure state."""
    amps = state.amplitudes
    if amps.size > DEFAULT_MAX_DIM:
        raise ValueError(
            f"dense oracle capped at total dimension {DEFAULT_MAX_DIM}, got {amps.size}"
        )
    # its own check, not states.require_normalized: the oracle stays independent
    if not abs(state.norm_sq - 1.0) <= 1e-10:  # a nan norm fails too
        raise ValueError("density_matrix requires a normalized state")
    return np.outer(amps, amps.conj())


def partial_transpose(
    rho: np.ndarray, dims: Sequence[int], subsystem: int
) -> np.ndarray:
    """Transpose the indices of one subsystem of a dense density matrix."""
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"matrix shape {rho.shape} inconsistent with dims {dims}")
    n = len(dims)
    if not 0 <= subsystem < n:
        raise ValueError(f"subsystem {subsystem} out of range for {n} factors")
    t = rho.reshape(dims + dims)
    t = np.swapaxes(t, subsystem, subsystem + n)
    return np.ascontiguousarray(t.reshape(total, total))


def _frobenius_norms(a: np.ndarray, off_diagonal: bool = False) -> np.ndarray:
    """Frobenius norm of each matrix of a batch-last stack ``(n, n, k)``.

    Summed in entry order by ``np.add.accumulate`` for every k; an axis-0
    sum goes pairwise at k = 1.  The off-diagonal norm sums the off-diagonal
    entries: ||A||^2 - ||diag||^2 cancels catastrophically at tiny residuals.
    """
    n, _, k = a.shape
    sq = np.square(a.real).reshape(n * n, k)
    sq += np.square(a.imag).reshape(n * n, k)
    if off_diagonal:
        sq[:: n + 1] = 0.0
    # in place: a norm adds one stack-sized buffer of reals, not two
    return np.sqrt(np.add.accumulate(sq, axis=0, out=sq)[-1]) if n else np.zeros(k)


def _rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep of the round-robin (circle method) ordering for n indices.

    Each round is a pair of index arrays ``(P, Q)``, ``P < Q`` elementwise,
    whose pairs are disjoint; the n(n-1)/2 pairs appear once per sweep, in
    n - 1 rounds for even n and n for odd n (the partner of a padded dummy
    index sits the round out).
    """
    m = n + n % 2  # odd n is padded with a dummy index n
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted(
            (min(i, j), max(i, j))
            for i, j in zip(seats[: m // 2], seats[::-1])
            if max(i, j) < n
        )
        p, q = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        rounds.append((p, q))
        # circle method: seat 0 stays put, every other index moves one seat on
        seats[1:] = seats[-1:] + seats[1:-1]
    return rounds


@lru_cache(maxsize=64)
def _schedule(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """``_rounds(n)`` as ``_rotate_round`` takes them, with each round's flat
    gather and zero indices; read-only, as cached."""
    rounds = []
    for p, q in _rounds(n):
        rnd = (p, q, np.concatenate((p * n + q, p * (n + 1), q * (n + 1))),
               np.concatenate((p * n + q, q * n + p)))
        for index in rnd:
            index.setflags(write=False)
        rounds.append(rnd)
    return tuple(rounds)


def _mix(x, y, c, t, g01, g11, out) -> tuple[np.ndarray, np.ndarray]:
    """Return ``c x + g01 y`` and ``s x + g11 y``, with ``s x`` as ``t (c x)``.

    x and y are scratch gathers and are consumed; the results land in
    ``out`` and ``y``, so a round needs three scratch buffers, not four.
    """
    np.multiply(y, g01, out=out)
    y *= g11
    x *= c
    out += x
    x *= t
    y += x
    return out, y


def _rotate_round(
    a: np.ndarray, rnd: tuple, skip: np.ndarray, scratch: list[np.ndarray]
) -> None:
    """Annihilate every a[p_i, q_i] of one round on the stack ``(n, n, k)``.

    The pairs are disjoint and each angle reads only a_pp, a_qq and a_pq,
    which the round's other rotations do not touch; so all angles come from
    the current matrices, then every row update, then every column update.
    ``rnd`` is ``(p, q, gather, zero)``: the round's pairs, the flat entry
    indices of a_pq, a_pp and a_qq, read in one take, and those of a_pq and
    a_qp, zeroed in one write.
    A pair at or below its matrix's ``skip`` gets the identity rotation and
    keeps its 2x2 block.  Everything is elementwise per matrix.  The three
    ``scratch`` buffers hold at least ``p.size * n * k`` entries each; the
    row and column gathers go there, so a round allocates nothing large.
    """
    p, q, gather, zero = rnd
    n, _, k = a.shape
    flat = a.reshape(n * n, k)
    m = p.size
    entries = np.take(flat, gather, axis=0)
    apq = entries[:m]
    mag = np.abs(apq)
    hit = mag > skip
    if not hit.any():
        return
    miss = ~hit
    mag[miss] = 1.0
    w = apq / mag
    w[miss] = 1.0
    tau = entries[2 * m :].real - entries[m : 2 * m].real
    tau /= 2.0 * mag
    # t = sign(tau) / (|tau| + sqrt(1 + tau^2)), and 1 at tau = 0
    t = np.abs(tau)
    t += np.hypot(1.0, tau)
    np.divide(1.0, t, out=t)
    np.copysign(t, tau, out=t)
    t[miss] = 0.0
    c = 1.0 / np.hypot(1.0, t)
    s = t * c
    # V = phase * rotation; rows mix with V^dagger = [[c, -s w], [s, c w]],
    # columns with V
    g01, g11 = -(s * w), c * w

    size = m * n * k
    x, y, out = (b[:size].reshape(m, n, k) for b in scratch)
    # the indices are in range; mode="raise" would buffer the out= copy
    np.take(a, p, axis=0, out=x, mode="clip")
    np.take(a, q, axis=0, out=y, mode="clip")
    a[p], a[q] = _mix(x, y, c[:, None], t[:, None], g01[:, None], g11[:, None], out)
    x, y, out = (b[:size].reshape(n, m, k) for b in scratch)
    np.take(a, p, axis=1, out=x, mode="clip")
    np.take(a, q, axis=1, out=y, mode="clip")
    a[:, p], a[:, q] = _mix(x, y, c, t, np.conj(g01), np.conj(g11), out)

    positions = zero[:, None] * k + np.arange(k)  # in the raveled stack
    a.reshape(-1)[positions[np.concatenate((hit, hit))]] = 0.0
    # a diagonal entry changes only in its own rotation, which leaves it
    # real: every diagonal imaginary part is an unwritten zero or rounding
    flat[:: n + 1].imag = 0.0


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of complex Hermitian matrices, descending.

    Takes one ``(n, n)`` matrix and returns ``(n,)``, or a stack ``(k, n, n)``
    and returns ``(k, n)``; a single matrix is the ``k = 1`` stack.  Cyclic
    Jacobi with complex plane rotations: each (p, q) element is phased real
    and annihilated by a 2x2 rotation.  A sweep is the round-robin ordering
    of ``_rounds``, each round applied to every matrix of the stack in a few
    array operations on the batch-last working copy.  Every operation is
    elementwise per matrix or a reduction in a fixed order per matrix (no
    matmul, whose reductions could make a matrix's bits depend on its stack).
    A matrix converges when its off-diagonal Frobenius norm drops below
    ``JACOBI_REL_TOL`` times its Frobenius norm; it leaves the sweeps then,
    and skips a rotation whose ``|a_pq|`` is negligible at its own scale.
    So a matrix gets the same eigenvalues alone as inside any stack.
    Robustness over speed -- intended for the <= 256 dimensional matrices
    this package produces.
    """
    stack = np.asarray(matrix)
    single = stack.ndim == 2
    if single:
        stack = stack[np.newaxis]
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("expected a square matrix or a stack of them")
    k, n = stack.shape[:2]
    a = np.array(stack.transpose(1, 2, 0), dtype=complex, order="C")
    if not np.isfinite(a).all():  # nan compares false: it would pass the checks below
        raise ValueError("matrix has non-finite entries")
    limit = HERMITICITY_TOL * np.maximum(1.0, np.abs(a).max(axis=(0, 1), initial=0.0))
    asym = a.conj().transpose(1, 0, 2)
    asym -= a  # in place, as the symmetrization below: one temporary at a time
    if (np.abs(asym).max(axis=(0, 1), initial=0.0) > limit).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    del asym
    a += a.conj().transpose(1, 0, 2)
    a /= 2.0
    scale = _frobenius_norms(a)
    # rotating entries this small cannot help convergence, only cost time
    skip = JACOBI_REL_TOL * scale / (n * n)

    rounds = _schedule(n)
    scratch = [np.empty(n // 2 * n * k, dtype=complex) for _ in range(3)]
    eigs = np.empty((k, n))
    live = np.arange(k)  # the stack member held in each column of a
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        residual = _frobenius_norms(a, off_diagonal=True)
        unconverged = residual > JACOBI_REL_TOL * scale
        if not unconverged.all():
            eigs[live[~unconverged]] = np.diagonal(a).real[~unconverged]
            keep = np.flatnonzero(unconverged)
            a = np.take(a, keep, axis=2)
            live, scale, skip = live[keep], scale[keep], skip[keep]
        if live.size == 0:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise JacobiConvergenceError(
                float(residual[unconverged].max()), JACOBI_MAX_SWEEPS
            )
        for rnd in rounds:
            _rotate_round(a, rnd, skip, scratch)

    eigs = np.sort(eigs, axis=1)[:, ::-1]
    return eigs[0].copy() if single else np.ascontiguousarray(eigs)


def negativities_pt_oracle(
    pairs: Iterable[tuple["PureState", "Bipartition"]],
) -> np.ndarray:
    """Negativity of every (state, cut) pair as trace norm of its partial
    transpose, minus one; returned in pair order.

    The fully dense reference path: outer product, axis-swap partial
    transpose, Jacobi spectrum.  Shares nothing with the generator-sum or
    Schmidt evaluations beyond the input amplitudes; they use LAPACK SVDs,
    and only this module calls the Jacobi solver.  Pairs of one total
    dimension are diagonalized in one stacked solve, so a batch costs one
    ``hermitian_eigenvalues`` call per distinct total dimension.
    """
    pairs = list(pairs)
    groups: dict[int, list[int]] = {}
    for i, (state, _) in enumerate(pairs):
        groups.setdefault(state.total_dim, []).append(i)
    negativities = np.empty(len(pairs))
    for n, members in groups.items():
        stack = np.empty((len(members), n, n), dtype=complex)
        for j, i in enumerate(members):
            state, cut = pairs[i]
            stack[j] = partial_transpose(density_matrix(state), state.dims, cut.kept)
        eigs = hermitian_eigenvalues(stack)
        negativities[members] = np.abs(eigs).sum(axis=1) - 1.0
    return negativities
