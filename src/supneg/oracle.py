"""Dense brute-force verification path.

Everything here is deliberately independent of the generator-sum machinery:
density matrices are built as explicit outer products, the partial transpose
is an axis swap on the dense array, and eigenvalues come from a hand-rolled
cyclic Jacobi solver rather than LAPACK.  This module is the ground truth
that the fast paths are certified against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

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


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix, descending.

    Cyclic Jacobi with complex plane rotations: each (p, q) element is
    phased real and annihilated by a 2x2 rotation.  Converged when the
    off-diagonal Frobenius norm drops below ``JACOBI_REL_TOL`` times the matrix
    Frobenius norm.  Robustness over speed -- intended for the <= 256
    dimensional matrices this package produces.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    _check_hermitian(a)
    a = (a + a.conj().T) / 2.0

    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    if scale == 0.0 or n == 1:
        return np.sort(np.diag(a).real)[::-1].copy()

    # rotating entries this small cannot help convergence, only cost time
    skip = JACOBI_REL_TOL * scale / (n * n)

    def _off_norm() -> float:
        # summed directly over off-diagonal entries: the ||A||^2 - ||diag||^2
        # shortcut cancels catastrophically once the residual is tiny
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    for sweep in range(JACOBI_MAX_SWEEPS):
        if _off_norm() <= JACOBI_REL_TOL * scale:
            return np.sort(np.diag(a).real)[::-1].copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= skip:
                    continue
                w = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # rows mix with V^dagger, columns with V (V = phase * rotation)
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - (s * w) * rq
                a[q, :] = s * rp + (c * w) * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - (s * np.conj(w)) * cq
                a[:, q] = s * cp + (c * np.conj(w)) * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real

    residual = _off_norm()
    if residual <= JACOBI_REL_TOL * scale:
        return np.sort(np.diag(a).real)[::-1].copy()
    raise JacobiConvergenceError(residual, JACOBI_MAX_SWEEPS)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(matrix)).sum())


def negativity_pt_oracle(state: "PureState", cut: "Bipartition") -> float:
    """Negativity as trace norm of the partial transpose, minus one.

    The fully dense reference path: outer product, axis-swap partial
    transpose, Jacobi spectrum.  Shares nothing with the generator-sum or
    Schmidt evaluations beyond the input amplitudes; they use LAPACK SVDs,
    and only this module calls the Jacobi solver.
    """
    rho = density_matrix(state)
    rho_pt = partial_transpose(rho, state.dims, cut.kept)
    eigs = hermitian_eigenvalues(rho_pt)
    return float(np.abs(eigs).sum() - 1.0)
