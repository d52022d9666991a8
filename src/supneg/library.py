"""Named reference states and seeded random ensembles.

Random sampling uses numpy's Philox bit generator, a 64-bit counter-based
generator with a documented, platform-independent algorithm, so seeded
outputs (and any golden files derived from them) reproduce bit-for-bit
everywhere.  Seeds are 64-bit unsigned integers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .states import Bipartition, PureState, SuperpositionSpec, new_state, validate_dims


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def _haar_vec(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit vector of n i.i.d. complex Gaussians, real parts drawn first."""
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def ghz(d: int = 2) -> PureState:
    """Equal superposition of |iii> over i < d, for qudits of dimension d."""
    dims = validate_dims([d, d, d])
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[:: d * d + d + 1] = 1.0  # |iii> sits at index (i d + i) d + i
    return new_state(dims, amps / np.sqrt(d))


def w_state() -> PureState:
    """The three-qubit state (|001> + |010> + |100>) / sqrt(3)."""
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    return new_state([2, 2, 2], amps)


def z_family(p: float, phi: float = 0.0) -> SuperpositionSpec:
    """Two-component spec sqrt(p)*GHZ + e^{i phi} sqrt(1-p)*W on qubits, for a
    mixing weight p in [0, 1] and a relative phase phi (radians).

    The phase sits on the W component only; GHZ and W are orthogonal so the
    superposed vector has unit norm for every p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if not math.isfinite(phi):  # before np.exp turns it into nan coefficients
        raise ValueError(f"phi must be finite, got {phi!r}")
    return SuperpositionSpec(
        a1=complex(np.sqrt(p)),
        a2=np.exp(1j * phi) * np.sqrt(1.0 - p),
        psi1=ghz(2),
        psi2=w_state(),
    )


def haar_random(dims: Sequence[int], seed: int) -> PureState:
    """Haar-distributed pure state: normalized i.i.d. complex Gaussians."""
    dims = validate_dims(dims)
    return new_state(dims, _haar_vec(_rng(seed), math.prod(dims)))


def random_superposition_spec(dims: Sequence[int], seed: int) -> SuperpositionSpec:
    """Two Haar components with Haar-phase unit coefficients, one generator.

    Coefficients are a complex 2-vector of i.i.d. Gaussians scaled to the
    unit sphere, so |a1|^2 + |a2|^2 = 1 with random moduli and phases.
    """
    dims = validate_dims(dims)
    rng = _rng(seed)
    n = math.prod(dims)
    psi1 = PureState(dims, _haar_vec(rng, n))
    psi2 = PureState(dims, _haar_vec(rng, n))
    coeffs = _haar_vec(rng, 2)
    return SuperpositionSpec(complex(coeffs[0]), complex(coeffs[1]), psi1, psi2)


def random_biseparable(cut: Bipartition, dims: Sequence[int], seed: int) -> PureState:
    """Haar state on the kept subsystem tensored with a Haar state on the rest.

    Product across the chosen cut by construction; the complement factor is
    generically entangled within itself, so the other two cuts stay entangled.
    """
    dims = validate_dims(dims)
    if len(dims) != 3:
        raise ValueError("random_biseparable is defined for tripartite states")
    rng = _rng(seed)
    rest = [d for k, d in enumerate(dims) if k != cut.kept]
    kept_vec = _haar_vec(rng, dims[cut.kept])
    rest_vec = _haar_vec(rng, math.prod(rest))
    m = np.outer(kept_vec, rest_vec).reshape([dims[cut.kept]] + rest)
    return PureState(dims, np.moveaxis(m, 0, cut.kept).reshape(-1))
