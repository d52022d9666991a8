"""Dense brute-force verification path.

Everything here is deliberately independent of the generator-sum machinery:
density matrices are built as explicit outer products, the partial transpose
is an axis swap on the dense array, and eigenvalues come from a hand-rolled
cyclic Jacobi solver rather than LAPACK.  This module is the ground truth
that the fast paths are certified against.

The solver takes a stack of matrices and rotates all of them at once, with
each matrix's own scale and convergence test, so ``negativities_pt_oracle``
certifies a whole batch of (state, cut) pairs in one solve per total
dimension.  Jacobi stays the accuracy reference (Demmel & Veselic, SIAM J.
Matrix Anal. Appl. 13, 1992); the stack only removes per-matrix Python
overhead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .states import Bipartition, PureState

# Dense work is capped so verification runs stay interactive; raise per call
# if you really want bigger systems.
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


def density_matrix(state: "PureState", max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized pure state."""
    amps = state.amplitudes
    if amps.size > max_dim:
        raise ValueError(
            f"dense oracle capped at total dimension {max_dim}, got {amps.size}"
        )
    # its own check, not states.require_normalized: the oracle stays independent
    if abs(state.norm_sq - 1.0) > 1e-10:
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


def _check_hermitian(a: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.conj().T).max(initial=0.0)) > HERMITICITY_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")


def _off_norm(a: np.ndarray) -> float:
    # summed directly over off-diagonal entries: the ||A||^2 - ||diag||^2
    # shortcut cancels catastrophically once the residual is tiny
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of complex Hermitian matrices, descending.

    Takes one ``(n, n)`` matrix and returns ``(n,)``, or a stack ``(k, n, n)``
    and returns ``(k, n)``; a single matrix is the ``k = 1`` stack.  Cyclic
    Jacobi with complex plane rotations: each (p, q) element is phased real
    and annihilated by a 2x2 rotation, on every matrix of the stack at once.
    A matrix converges when its off-diagonal Frobenius norm drops below
    ``JACOBI_REL_TOL`` times its Frobenius norm; it leaves the sweeps then,
    and skips a rotation whose ``|a_pq|`` is negligible at its own scale.
    Every step is per matrix, so a matrix gets the same eigenvalues alone as
    inside any stack.  Robustness over speed -- intended for the <= 256
    dimensional matrices this package produces.
    """
    a = np.array(matrix, dtype=complex)
    single = a.ndim == 2
    if single:
        a = a[np.newaxis]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a square matrix or a stack of them")
    # norms and checks go one matrix at a time: their temporaries stay the
    # size of one matrix, and a matrix's norm does not depend on its stack
    for m in a:
        _check_hermitian(m)
        m += m.conj().T
    a /= 2.0

    n = a.shape[1]
    scale = np.array([np.linalg.norm(m) for m in a])
    # rotating entries this small cannot help convergence, only cost time
    skip = JACOBI_REL_TOL * scale / (n * n)

    live = np.arange(a.shape[0])
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        residual = np.array([_off_norm(a[i]) for i in live])
        unconverged = residual > JACOBI_REL_TOL * scale[live]
        live = live[unconverged]
        if live.size == 0:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise JacobiConvergenceError(
                float(residual[unconverged].max()), JACOBI_MAX_SWEEPS
            )
        # the whole stack by view while it is all live, else by index
        members = slice(None) if live.size == len(a) else live
        for p in range(n - 1):
            for q in range(p + 1, n):
                pq = slice(p, q + 1, q - p)  # rows or columns p and q
                blk = a[members, pq, pq]
                mag = np.abs(blk[:, 0, 1])
                hit = mag > skip[members]
                if not hit.all():
                    if not hit.any():
                        continue
                    rot = live[hit]
                    blk, mag = blk[hit], mag[hit]
                else:
                    rot = members
                w = blk[:, 0, 1] / mag
                tau = (blk[:, 1, 1].real - blk[:, 0, 0].real) / (2.0 * mag)
                t = np.where(
                    tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau))
                )
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # V = phase * rotation; rows mix with g = V^dagger, columns with V
                g = np.empty((len(mag), 2, 2), dtype=complex)
                g[:, 0, 0] = c
                g[:, 0, 1] = -(s * w)
                g[:, 1, 0] = s
                g[:, 1, 1] = c * w
                r = a[rot, pq, :]
                a[rot, pq, :] = g[:, :, :1] * r[:, :1, :] + g[:, :, 1:] * r[:, 1:, :]
                v = np.conj(g)[:, np.newaxis]
                r = a[rot, :, pq]
                a[rot, :, pq] = r[:, :, :1] * v[:, :, :, 0] + r[:, :, 1:] * v[:, :, :, 1]
                blk = a[rot, pq, pq]
                blk.imag = 0.0
                blk[:, 0, 1] = blk[:, 1, 0] = 0.0
                a[rot, pq, pq] = blk

    eigs = np.sort(np.diagonal(a, axis1=1, axis2=2).real, axis=1)[:, ::-1]
    return eigs[0].copy() if single else np.ascontiguousarray(eigs)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(matrix)).sum())


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


def negativity_pt_oracle(state: "PureState", cut: "Bipartition") -> float:
    """``negativities_pt_oracle`` of the one pair (state, cut)."""
    return float(negativities_pt_oracle([(state, cut)])[0])
