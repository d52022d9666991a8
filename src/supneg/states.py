"""Pure-state containers and the tensor bookkeeping built on top of them.

``PureState`` holds one state.  ``SuperpositionSpec`` holds a two-component
superposition a1*psi1 + a2*psi2 and is the only builder of its vector;
``bounds`` evaluates specs, and the CLI checks its coefficients with the
spec's own ``coefficient_weight``.

Amplitudes are flat complex vectors in row-major subsystem order: for a
tripartite state the entry for basis label (i_A, i_B, i_C) sits at index
``(i_A * d_B + i_B) * d_C + i_C``.  All containers are immutable and every
operation is a pure function of its arguments.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

NORMALIZED_TOL = 1e-12  # |<psi|psi> - 1| for a state considered normalized
ZERO_NORM_TOL = 1e-14  # vectors shorter than this count as the zero vector
COEFF_TOL = 1e-10  # tolerance on |a1|^2 + |a2|^2 = 1 for superpositions

_CUT_NAMES = ("A|BC", "B|AC", "C|AB")


def validate_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """Dims as a tuple of integers >= 2, else ValueError: no bool, 2.0 or str."""
    if type(dims) is tuple and all(type(d) is int and d >= 2 for d in dims):
        return dims  # already validated: the common case, from PureState.dims
    if (
        isinstance(dims, (str, bytes))
        or not isinstance(dims, (Sequence, np.ndarray))
        or any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) for d in dims)
    ):
        raise ValueError(f"dims must be a list of integers, got {dims!r}")
    dims = tuple(map(operator.index, dims))
    if any(d < 2 for d in dims):
        raise ValueError(f"all subsystem dimensions must be >= 2, got {dims}")
    return dims


@dataclass(frozen=True, eq=False)
class PureState:
    """An n-partite pure state as dimensions plus a flat amplitude vector.

    Unnormalized states are first class (superpositions keep their raw
    vector); ``norm_sq`` reports the actual squared norm.  Equality and hash
    are by identity: amplitude arrays have no single truth value.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = validate_dims(self.dims)
        amps = np.array(self.amplitudes, dtype=complex)  # a copy: never alias the caller
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a flat vector")
        if amps.size != math.prod(dims):  # exact: np.prod wraps around int64
            raise ValueError(
                f"amplitude length {amps.size} does not match dims {dims} "
                f"(expected {math.prod(dims)})"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_sq(self) -> float:
        """Squared norm; ``inf`` when finite amplitudes overflow it."""
        norm_sq = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if math.isfinite(norm_sq):
            return norm_sq
        # complex products of huge amplitudes form inf - inf, so vdot reads nan
        return math.inf if np.isfinite(self.amplitudes).all() else norm_sq

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm_sq - 1.0) <= NORMALIZED_TOL

    @property
    def total_dim(self) -> int:
        return self.amplitudes.size

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amplitudes.reshape(self.dims)

    def to_dict(self) -> dict:
        amps = self.amplitudes
        return {
            "dims": list(self.dims),
            "amplitudes": np.stack((amps.real, amps.imag), 1).tolist(),
        }


@dataclass(frozen=True)
class Bipartition:
    """One kept subsystem versus the other two, e.g. A|BC.

    ``kept`` indexes the lone subsystem; the complement is ordered by the
    remaining subsystems in (A, B, C) sequence, row-major.
    """

    kept: int
    row_dim: int
    col_dim: int

    @classmethod
    def of(cls, dims: Sequence[int], kept: int) -> "Bipartition":
        dims = validate_dims(dims)
        if len(dims) != 3:
            raise ValueError("bipartitions are defined for tripartite states")
        if not 0 <= kept < 3:
            raise ValueError(f"kept subsystem must be 0, 1 or 2, got {kept}")
        return cls(kept=kept, row_dim=dims[kept], col_dim=math.prod(dims) // dims[kept])

    @property
    def label(self) -> str:
        return _CUT_NAMES[self.kept]


def bipartitions(state: PureState) -> tuple[Bipartition, Bipartition, Bipartition]:
    """The three single-subsystem cuts of a tripartite state, A|BC first."""
    return _cuts_of(state.dims)


@lru_cache(maxsize=64)
def _cuts_of(dims: tuple[int, ...]) -> tuple[Bipartition, Bipartition, Bipartition]:
    # immutable, and asked for hundreds of times per verify run for a few dims
    return tuple(Bipartition.of(dims, k) for k in range(3))


def _require_finite(amplitudes: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(amplitudes))
    if bad.size:
        raise ValueError(f"non-finite amplitudes at indices {bad.tolist()}")


def new_state(dims: Sequence[int], amplitudes: Sequence[complex]) -> PureState:
    """Build a state from raw amplitudes without normalizing.

    Adds to ``PureState``'s dims and length checks: rejects non-finite
    amplitudes and the zero vector.  Superposition outputs bypass this
    constructor so that their possibly vanishing norm stays representable.
    """
    state = PureState(dims, amplitudes)
    _require_finite(state.amplitudes)
    if np.sqrt(state.norm_sq) < ZERO_NORM_TOL:
        raise ValueError("zero vector is not a valid state")
    return state


def require_normalized(state: PureState, what: str) -> None:
    """Raise unless ``state.is_normalized`` (unit norm to within NORMALIZED_TOL)."""
    if not state.is_normalized:
        raise ValueError(f"{what} requires a normalized state")


def normalize(state: PureState) -> tuple[PureState, float]:
    """Scale to unit norm; returns (normalized state, original squared norm).

    Amplitudes above ~1e154 overflow the squared norm, returned as inf; such
    a vector is scaled by its largest modulus before it is normalized.
    Non-finite amplitudes raise ValueError.
    """
    norm_sq = state.norm_sq
    if not math.isfinite(norm_sq):
        _require_finite(state.amplitudes)
        big = state.amplitudes / np.abs(state.amplitudes).max()
        return PureState(state.dims, big / np.linalg.norm(big)), math.inf
    if np.sqrt(norm_sq) < ZERO_NORM_TOL:
        raise ValueError("cannot normalize a (near-)zero vector")
    return PureState(state.dims, state.amplitudes / np.sqrt(norm_sq)), norm_sq


def coefficient_weight(a1: complex, a2: complex) -> float:
    """|a1|^2 + |a2|^2 of two superposition coefficients; ValueError when a
    coefficient is not finite or the weight overflows the float range."""
    if not np.isfinite([a1, a2]).all():  # nan slips past the weight
        raise ValueError(f"superposition coefficients must be finite, got {a1!r}, {a2!r}")
    try:
        weight = abs(a1) ** 2 + abs(a2) ** 2
    except OverflowError:  # abs() or ** of a modulus above ~1.3e154
        weight = math.inf
    if not math.isfinite(weight):
        raise ValueError(f"|a1|^2 + |a2|^2 overflows for coefficients {a1!r}, {a2!r}")
    return weight


@dataclass(frozen=True)
class SuperpositionSpec:
    """Coefficients and components of chi = a1*psi1 + a2*psi2, the only
    constructor of a superposed vector.

    Components must share dims and coefficients must be finite with a finite
    ``coefficient_weight``; |a1|^2 + |a2|^2 = 1 is enforced to COEFF_TOL
    unless ``coeff_check`` is False, for exploratory use.  The raw vector can
    have vanishing norm (parallel components with opposite phases) -- that is
    deliberate, downstream normalization is where the error fires.
    """

    a1: complex
    a2: complex
    psi1: PureState
    psi2: PureState
    coeff_check: bool = True
    _chi: PureState = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a1, a2 = complex(self.a1), complex(self.a2)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        psi1, psi2 = self.psi1, self.psi2
        if psi1.dims != psi2.dims:
            raise ValueError(f"dims mismatch: {psi1.dims} vs {psi2.dims}")
        weight = coefficient_weight(a1, a2)  # in both modes
        if self.coeff_check and abs(weight - 1.0) > COEFF_TOL:
            raise ValueError(
                f"superposition coefficients must satisfy |a1|^2+|a2|^2=1, got {weight!r}"
            )
        chi = PureState(psi1.dims, a1 * psi1.amplitudes + a2 * psi2.amplitudes)
        object.__setattr__(self, "_chi", chi)

    def superposed(self) -> PureState:
        """The raw (unnormalized) vector a1*psi1 + a2*psi2."""
        return self._chi


def matricize(state: PureState, cut: Bipartition) -> np.ndarray:
    """Amplitudes as a row_dim x col_dim matrix for the given cut.

    Row r is the kept-subsystem index; column c enumerates the complement
    in row-major order over the remaining subsystems in (A, B, C) sequence.
    """
    if len(state.dims) != 3:
        raise ValueError("matricize is defined for tripartite states")
    if cut.row_dim != state.dims[cut.kept] or cut.row_dim * cut.col_dim != state.total_dim:
        raise ValueError(f"cut {cut} inconsistent with dims {state.dims}")
    order = (cut.kept, *(k for k in range(3) if k != cut.kept))  # np.moveaxis, cheaper
    return np.ascontiguousarray(
        state.tensor().transpose(order).reshape(cut.row_dim, cut.col_dim)
    )


def singular_values(pairs: Iterable[tuple[PureState, Bipartition]]) -> list[np.ndarray]:
    """Descending singular values of the matricization of every (state, cut)
    pair, in pair order, from one stacked SVD per matricization shape: LAPACK
    factors each matrix alone, so a pair's bits do not depend on its batch.
    Raw: any norm, including a vanishing one."""
    pairs = list(pairs)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (_, cut) in enumerate(pairs):
        groups.setdefault((cut.row_dim, cut.col_dim), []).append(i)
    values: list = [None] * len(pairs)
    for members in groups.values():
        mats = np.stack([matricize(*pairs[i]) for i in members])
        for i, s in zip(members, np.linalg.svd(mats, compute_uv=False)):
            values[i] = s
    return values


def pair_sum(x: np.ndarray) -> float:
    """sum_{i<j} x_i x_j of a vector as sum_j x_j (x_0 + ... + x_{j-1}): for
    x >= 0 no term is negative, unlike in ((sum x)^2 - sum x^2) / 2."""
    return float((x[1:] * np.cumsum(x)[:-1]).sum())


def state_from_dict(payload: dict) -> PureState:
    """Parse the JSON state format {"dims": [...], "amplitudes": [[re, im], ...]}.

    Anything else -- bare-number, null, boolean or string amplitudes,
    amplitudes out of the float range, non-integer dims -- raises
    ValueError, which the CLI reports with exit code 2.
    """
    try:
        dims = payload["dims"]
        pairs = payload["amplitudes"]
    except (KeyError, TypeError) as exc:
        raise ValueError("state payload must carry 'dims' and 'amplitudes'") from exc
    try:
        # two-argument complex() takes real numbers only: no str, None or list
        amps = np.array([complex(re, im) for re, im in pairs], dtype=complex)
        # bool is an int, so complex() takes JSON true and false: one more pass
        if any(type(re) is bool or type(im) is bool for re, im in pairs):
            raise TypeError("a boolean is not an amplitude")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"amplitudes must be [re, im] pairs of numbers: {exc}") from exc
    return new_state(dims, amps)


def load_state(path: str | Path) -> PureState:
    with open(path, encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))

