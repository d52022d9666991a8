import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import haar_unitary, trace_norm
from supneg import library, oracle
from supneg.oracle import (
    JacobiConvergenceError,
    density_matrix,
    hermitian_eigenvalues,
    negativities_pt_oracle,
    partial_transpose,
)
from supneg.states import Bipartition, bipartitions, new_state, normalize

S2 = 1 / np.sqrt(2)


def bell_pair():
    return new_state([2, 2], [S2, 0, 0, S2])


# ----------------------------------------------------------- density matrix


def test_density_matrix_basis_state():
    s = new_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    rho = density_matrix(s)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(rho, expected)


def test_density_matrix_ghz(ghz):
    rho = density_matrix(ghz)
    nonzero = {(0, 0), (0, 7), (7, 0), (7, 7)}
    for r in range(8):
        for c in range(8):
            target = 0.5 if (r, c) in nonzero else 0.0
            assert rho[r, c] == pytest.approx(target, abs=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_density_matrix_purity(seed):
    rho = density_matrix(library.haar_random([2, 2, 2], seed))
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_rejects_unnormalized(ghz):
    from supneg.states import PureState

    with pytest.raises(ValueError, match="normalized"):
        density_matrix(PureState(ghz.dims, 2 * ghz.amplitudes))


def test_density_matrix_dimension_cap():
    s = library.haar_random([7, 7, 7], 0)
    with pytest.raises(ValueError, match="capped"):
        density_matrix(s)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_amplitudes(ghz, bad):
    from supneg.states import PureState

    amps = ghz.amplitudes.copy()
    amps[3] = bad
    with pytest.raises(ValueError, match="normalized"):
        density_matrix(PureState(ghz.dims, amps))


# -------------------------------------------------------- partial transpose


def test_partial_transpose_product_state_spectrum_invariant():
    s = library.random_biseparable(
        bipartitions(library.ghz(2))[0], [2, 2, 2], seed=9
    )
    rho = density_matrix(s)
    for k in range(3):
        ev = np.sort(hermitian_eigenvalues(partial_transpose(rho, [2, 2, 2], 0)))
        ev0 = np.sort(hermitian_eigenvalues(rho))
        np.testing.assert_allclose(ev, ev0, atol=1e-10)


def test_partial_transpose_bell_spectrum():
    rho = density_matrix(bell_pair())
    ev = hermitian_eigenvalues(partial_transpose(rho, [2, 2], 0))
    np.testing.assert_allclose(ev, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_partial_transpose_is_involution():
    rho = density_matrix(library.haar_random([2, 2, 2], 4))
    pt = partial_transpose(rho, [2, 2, 2], 1)
    np.testing.assert_array_equal(partial_transpose(pt, [2, 2, 2], 1), rho)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rho = density_matrix(library.haar_random([3, 3, 3], 4))
    for k in range(3):
        pt = partial_transpose(rho, [3, 3, 3], k)
        assert np.trace(pt).real == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(pt, pt.conj().T, atol=1e-12)


def test_partial_transpose_validates_dims():
    with pytest.raises(ValueError, match="inconsistent"):
        partial_transpose(np.eye(8), [2, 2], 0)
    with pytest.raises(ValueError, match="out of range"):
        partial_transpose(np.eye(8), [2, 2, 2], 5)


# ------------------------------------------------------------- eigensolver


def test_eigenvalues_diagonal():
    np.testing.assert_allclose(
        hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0]
    )


def test_eigenvalues_pauli_x():
    ev = hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(ev, [1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_eigenvalues_unitary_conjugation(seed):
    rng = np.random.default_rng(seed)
    d = rng.integers(2, 9)
    diag = np.sort(rng.standard_normal(d))[::-1]
    u = haar_unitary(d, seed)
    h = u @ np.diag(diag) @ u.conj().T
    np.testing.assert_allclose(hermitian_eigenvalues(h), diag, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_eigenvalue_moments_match_traces(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h = (z + z.conj().T) / 2
    ev = hermitian_eigenvalues(h)
    assert ev.sum() == pytest.approx(np.trace(h).real, abs=1e-9)
    assert (ev**2).sum() == pytest.approx(np.trace(h @ h).real, abs=1e-9)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.ones((2, 3)))


@pytest.mark.parametrize("skew, accepted", [(0.5e-10, True), (2e-10, False)])
def test_hermiticity_tol_is_the_boundary(skew, accepted):
    # HERMITICITY_TOL = 1e-10, times max(1, max |entry|) = 1 here
    m = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    m[0, 1] += skew
    if accepted:
        hermitian_eigenvalues(m)
    else:
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_eigenvalues_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigenvalues(np.array([[bad, 0.0], [0.0, 1.0]]))
    stack = np.stack([np.eye(3), np.eye(3)]).astype(complex)
    stack[1, 0, 2] = stack[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigenvalues(stack)


def test_pt_oracle_never_returns_nan(ghz):
    from supneg.states import PureState

    amps = ghz.amplitudes.copy()
    amps[0] = np.nan
    state = PureState(ghz.dims, amps)
    with pytest.raises(ValueError):
        negativities_pt_oracle([(state, cut) for cut in bipartitions(state)])


def test_eigenvalues_zero_matrix():
    np.testing.assert_array_equal(hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))


def test_convergence_error_carries_residual():
    err = JacobiConvergenceError(1e-3, 100)
    assert err.residual == 1e-3
    assert "100 sweeps" in str(err)


def test_trace_norm_matches_abs_spectrum():
    h = np.diag([2.0, -3.0, 0.5])
    assert trace_norm(h) == pytest.approx(5.5)


# ------------------------------------------------------------ stacked solver


def _states(dims):
    """Haar, biseparable and near-product states of one shape."""
    for seed in range(2):
        yield library.haar_random(dims, seed)
        for kept in range(3):
            key = 10 * kept + seed
            s = library.random_biseparable(Bipartition.of(dims, kept), dims, key)
            yield s
            noise = library.haar_random(dims, 1000 + key).amplitudes
            yield normalize(new_state(dims, s.amplitudes + 1e-4 * noise))[0]


def _pt_stack(dims):
    mats = []
    for s in _states(dims):
        rho = density_matrix(s)
        mats += [partial_transpose(rho, s.dims, cut.kept) for cut in bipartitions(s)]
    return np.stack(mats)


@pytest.mark.parametrize("n", range(1, 41))
def test_round_robin_schedule_covers_every_pair_once(n):
    rounds = oracle._rounds(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    seen = []
    for p, q in rounds:
        assert len(p) == len(q) == n // 2
        assert (p < q).all()
        assert len(set(p) | set(q)) == 2 * len(p)  # disjoint pairs
        seen += zip(p.tolist(), q.tolist())
    assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_schedule_is_built_once_per_size_and_read_only(monkeypatch):
    calls = []
    rounds = oracle._rounds

    def counting_rounds(n):
        calls.append(n)
        return rounds(n)

    monkeypatch.setattr(oracle, "_rounds", counting_rounds)
    oracle._schedule.cache_clear()
    stack = _pt_stack([2, 2, 2])
    first = hermitian_eigenvalues(stack)
    assert hermitian_eigenvalues(stack).tobytes() == first.tobytes()
    hermitian_eigenvalues(stack[0])
    assert calls == [8]
    schedule = oracle._schedule(8)
    assert len(schedule) == len(rounds(8))
    for rnd in schedule:
        assert not any(index.flags.writeable for index in rnd)


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 3], [2, 3, 4], [4, 4, 4]])
def test_stack_matches_each_matrix_bit_for_bit(dims):
    stack = _pt_stack(dims)
    eigs = hermitian_eigenvalues(stack)
    assert eigs.shape == stack.shape[:2]
    for mat, ev in zip(stack, eigs):
        assert hermitian_eigenvalues(mat).tobytes() == ev.tobytes()


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 3]])
def test_residuals_and_scales_have_the_same_bits_in_any_stack(dims):
    # 60 partial transposes, batch-last as the solver holds them
    pts = [
        partial_transpose(density_matrix(s), s.dims, cut.kept)
        for s in (library.haar_random(dims, seed) for seed in range(20))
        for cut in bipartitions(s)
    ]
    a = np.array(np.stack(pts).transpose(1, 2, 0), order="C")
    for off in (True, False):
        full = oracle._frobenius_norms(a, off)
        for size in (1, 2, 5):
            for start in range(0, 60, size):
                part = np.array(a[:, :, start : start + size], order="C")
                got = oracle._frobenius_norms(part, off)
                assert got.tobytes() == full[start : start + size].tobytes()


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 3], [2, 3, 4], [4, 4, 4]])
def test_stack_agrees_with_lapack(dims):
    stack = _pt_stack(dims)
    lapack = np.linalg.eigvalsh(stack)[:, ::-1]
    np.testing.assert_allclose(hermitian_eigenvalues(stack), lapack, rtol=0, atol=1e-13)


def test_mixed_stack_and_one_by_one_stacks():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 5, 5)) + 1j * rng.standard_normal((2, 5, 5))
    dense = (z + z.conj().swapaxes(1, 2)) / 2
    stack = np.stack([np.zeros((5, 5)), np.diag([1.0, -2.0, 0.0, 3.0, 0.5]), *dense])
    eigs = hermitian_eigenvalues(stack)
    np.testing.assert_array_equal(eigs[0], np.zeros(5))
    np.testing.assert_array_equal(eigs[1], [3.0, 1.0, 0.5, 0.0, -2.0])
    np.testing.assert_allclose(
        eigs[2:], np.linalg.eigvalsh(dense)[:, ::-1], rtol=0, atol=1e-13
    )
    ones = np.array([[[2.0]], [[-1.0]], [[0.0]]])
    np.testing.assert_array_equal(hermitian_eigenvalues(ones), [[2.0], [-1.0], [0.0]])
    np.testing.assert_array_equal(hermitian_eigenvalues(np.array([[4.0]])), [4.0])


@st.composite
def hermitian_stacks(draw):
    """Stacks of k in 1..5 Hermitian n x n matrices, n in 1..12: dense, zero,
    diagonal, and unitary conjugations of diagonals with repeated entries."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["dense", "zero", "diag", "degenerate"]),
                          min_size=k, max_size=k))
    mats = []
    for kind in kinds:
        if kind == "dense":
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append((z + z.conj().T) / 2)
        elif kind == "zero":
            mats.append(np.zeros((n, n), dtype=complex))
        else:
            levels = rng.standard_normal(max(1, n // 3))
            diag = np.diag(rng.choice(levels, size=n)).astype(complex)
            if kind == "diag":
                mats.append(diag)
            else:
                u = haar_unitary(n, int(rng.integers(2**31)))
                mats.append(u @ diag @ u.conj().T)
    return np.stack(mats)


@settings(max_examples=60, deadline=None)
@given(hermitian_stacks())
def test_stack_property_lapack_agreement_and_bits_alone(stack):
    eigs = hermitian_eigenvalues(stack)
    lapack = np.linalg.eigvalsh(stack)[:, ::-1]
    for mat, ev, ref in zip(stack, eigs, lapack):
        assert np.abs(ev - ref).max() <= 1e-12 * np.linalg.norm(mat)
        assert hermitian_eigenvalues(mat).tobytes() == ev.tobytes()


def test_stack_rejects_one_non_hermitian_member():
    stack = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0]), np.eye(3)]).astype(complex)
    stack[1, 0, 2] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(stack)


@pytest.mark.parametrize("shape", [(3, 2, 3), (4,), (2, 2, 2, 2)])
def test_stack_rejects_non_square(shape):
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros(shape))


def test_sweep_cap_raises_on_a_dense_stack(monkeypatch):
    monkeypatch.setattr(oracle, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(JacobiConvergenceError) as err:
        hermitian_eigenvalues(_pt_stack([2, 2, 2]))
    assert err.value.sweeps == 1
    assert err.value.residual > 0


# ---------------------------------------------------------------- PT oracle


def test_pt_oracle_ghz(ghz):
    for cut in bipartitions(ghz):
        assert negativities_pt_oracle([(ghz, cut)])[0] == pytest.approx(1.0, abs=1e-10)


def test_pt_oracle_product_state():
    s = new_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0])
    for cut in bipartitions(s):
        assert negativities_pt_oracle([(s, cut)])[0] == pytest.approx(0.0, abs=1e-12)


def test_pt_oracle_w(w):
    for cut in bipartitions(w):
        assert negativities_pt_oracle([(w, cut)])[0] == pytest.approx(
            2 * np.sqrt(2) / 3, abs=1e-10
        )


@pytest.mark.parametrize("seed", range(4))
def test_pt_spectrum_identities(seed):
    # spectrum sums to the trace; the negative part is (||.||_1 - 1) / 2
    s = library.haar_random([2, 2, 2], seed)
    rho = density_matrix(s)
    for cut in bipartitions(s):
        ev = hermitian_eigenvalues(partial_transpose(rho, s.dims, cut.kept))
        assert ev.sum() == pytest.approx(1.0, abs=1e-10)
        neg_part = float(-ev[ev < 0].sum())
        n = negativities_pt_oracle([(s, cut)])[0]
        assert neg_part == pytest.approx(n / 2, abs=1e-9)


def test_batched_oracle_matches_single_pairs_in_order():
    pairs = [
        (s, cut)
        for dims in ([3, 3, 3], [2, 2, 2], [2, 3, 4], [4, 3, 2])
        for s in list(_states(dims))[:3]
        for cut in bipartitions(s)
    ]
    batched = negativities_pt_oracle(pairs)
    assert batched.shape == (len(pairs),)
    for (s, cut), n in zip(pairs, batched):
        assert negativities_pt_oracle([(s, cut)])[0] == n
    assert negativities_pt_oracle([]).shape == (0,)
