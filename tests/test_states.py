import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supneg.states
from reference import reduced_density
from supneg import library
from supneg.states import (
    Bipartition,
    PureState,
    SuperpositionSpec,
    bipartitions,
    load_state,
    matricize,
    new_state,
    normalize,
    require_normalized,
    singular_values,
    state_from_dict,
)

S2 = 1 / np.sqrt(2)


def basis_state(index, dims=(2, 2, 2)):
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[index] = 1.0
    return new_state(dims, amps)


# ------------------------------------------------------------- constructors


def test_new_state_basis_vector():
    s = basis_state(0)
    assert s.dims == (2, 2, 2)
    assert s.amplitudes[0] == 1.0
    assert s.is_normalized


def test_new_state_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        new_state([2, 2, 2], np.ones(7))


def test_new_state_haar_passthrough():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    amps /= np.linalg.norm(amps)
    s = new_state([3, 3, 3], amps)
    np.testing.assert_allclose(s.amplitudes, amps)


def test_new_state_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        new_state([2, 2, 2], np.zeros(8))


def test_new_state_rejects_dimension_one():
    with pytest.raises(ValueError, match=">= 2"):
        new_state([1, 2, 2], np.ones(4))


@pytest.mark.parametrize("dims", [[2.5, 2, 2], [2.0, 2, 2], [True, 2, 2], 8, "222"])
def test_new_state_rejects_non_integer_dims(dims):
    with pytest.raises(ValueError, match="dims must be a list of integers"):
        new_state(dims, [1.0] + [0.0] * 7)


_DIMS_CONSTRUCTORS = {
    "PureState": lambda dims, n: PureState(dims, np.ones(n) / np.sqrt(n)),
    "new_state": lambda dims, n: new_state(dims, np.ones(n) / np.sqrt(n)),
    "Bipartition.of": lambda dims, n: Bipartition.of(dims, 0),
    "haar_random": lambda dims, n: library.haar_random(dims, 1),
    "random_superposition_spec": lambda dims, n: library.random_superposition_spec(dims, 3),
    "random_biseparable": lambda dims, n: library.random_biseparable(
        Bipartition.of([2, 2, 2], 0), dims, 3
    ),
}


@pytest.mark.parametrize(
    "dims",
    [[2.5, 2, 2], [2.0, 2, 2], [True, 2, 2], [1, 2, 2]],
    ids=["fractional", "float", "boolean", "one"],
)
@pytest.mark.parametrize("build", list(_DIMS_CONSTRUCTORS))
def test_every_constructor_rejects_bad_dims(build, dims):
    # amplitudes sized for the dims an int(d) cast would make of them
    n = int(np.prod([int(d) for d in dims]))
    with pytest.raises(ValueError):
        _DIMS_CONSTRUCTORS[build](dims, n)


def test_amplitudes_are_immutable():
    s = basis_state(0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 2.0


def test_states_compare_and_hash_by_identity():
    a, b = library.ghz(), library.ghz()
    assert (a == b) is False  # equal amplitudes, distinct objects: no array truth value
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b}


# --------------------------------------------------------------- normalize


def test_normalize_scaling():
    s = PureState((2, 2, 2), 2.0 * basis_state(0).amplitudes)
    out, norm_sq = normalize(s)
    assert norm_sq == pytest.approx(4.0)
    np.testing.assert_allclose(out.amplitudes, basis_state(0).amplitudes)


def test_normalize_idempotent_on_ghz(ghz):
    out, norm_sq = normalize(ghz)
    assert norm_sq == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.amplitudes, ghz.amplitudes)


def test_normalize_huge_finite_amplitudes():
    # |a|^2 overflows above ~1e154; the state still normalizes
    amps = np.array(
        [1e200, 1e199, 3e199j, 2e199 - 1e199j, 0, 5e198, 0, 1e199 + 1e199j]
    )
    out, norm_sq = normalize(PureState((2, 2, 2), amps))
    assert norm_sq == np.inf
    assert out.is_normalized
    small = PureState((2, 2, 2), amps / 1e200)
    ref, _ = normalize(small)
    np.testing.assert_allclose(out.amplitudes, ref.amplitudes, rtol=0, atol=1e-15)
    # a finite squared norm is divided out directly, bit for bit
    direct = small.amplitudes / np.sqrt(small.norm_sq)
    assert ref.amplitudes.tobytes() == direct.tobytes()


def test_norm_sq_overflow_reads_inf_not_nan():
    # complex products of 1e200 amplitudes form inf - inf inside vdot
    amps = np.array(
        [1e200, 1e199, 3e199j, 2e199 - 1e199j, 0, 5e198, 0, 1e199 + 1e199j]
    )
    assert PureState((2, 2, 2), amps).norm_sq == np.inf
    small = amps / 1e200
    expected = float(np.vdot(small, small).real)
    assert PureState((2, 2, 2), small).norm_sq == expected  # finite: same bytes


def test_normalize_parallel_superposition(ghz):
    # <chi|chi> = |a1 + a2|^2 for identical components
    chi = SuperpositionSpec(S2, S2, ghz, ghz).superposed()
    out, norm_sq = normalize(chi)
    assert norm_sq == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(out.amplitudes, ghz.amplitudes, atol=1e-15)
    inner = complex(np.vdot(chi.amplitudes, chi.amplitudes))
    assert norm_sq == pytest.approx(inner.real)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_normalize_rejects_non_finite_amplitudes(ghz, bad):
    amps = ghz.amplitudes.copy()
    amps[0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(ValueError, match=r"non-finite amplitudes at indices \[0\]"):
            normalize(PureState(ghz.dims, amps))


def test_normalize_rejects_zero():
    chi = SuperpositionSpec(S2, -S2, basis_state(0), basis_state(0)).superposed()
    with pytest.raises(ValueError, match="zero vector"):
        normalize(chi)


# Each tolerance constant is pinned by what it does: an input at half its
# value passes and one at twice its value is rejected.  The values are
# literals here, so a changed constant fails its test.


@pytest.mark.parametrize("norm, accepted", [(0.5e-14, False), (2e-14, True)])
def test_zero_norm_tol_is_the_boundary(norm, accepted):
    # ZERO_NORM_TOL = 1e-14, reversed: a shorter vector is the zero vector
    amps = np.zeros(8, dtype=complex)
    amps[0] = norm
    for build in (lambda: new_state([2, 2, 2], amps),
                  lambda: normalize(PureState((2, 2, 2), amps))):
        if accepted:
            build()
        else:
            with pytest.raises(ValueError, match="zero vector"):
                build()


@pytest.mark.parametrize("offset, accepted", [(0.5e-12, True), (2e-12, False)])
def test_normalized_tol_is_the_boundary(offset, accepted):
    # NORMALIZED_TOL = 1e-12 on |<psi|psi> - 1|
    amps = np.zeros(8, dtype=complex)
    amps[0] = np.sqrt(1.0 + offset)
    state = PureState((2, 2, 2), amps)
    if accepted:
        require_normalized(state, "test")
    else:
        with pytest.raises(ValueError, match="requires a normalized state"):
            require_normalized(state, "test")


# ------------------------------------------------------- superposition spec


def test_superpose_degenerate_coefficient(ghz, w):
    chi = SuperpositionSpec(1.0, 0.0, ghz, w).superposed()
    np.testing.assert_array_equal(chi.amplitudes, ghz.amplitudes)


def test_superpose_orthogonal_components_makes_ghz(ghz):
    chi = SuperpositionSpec(S2, S2, basis_state(0), basis_state(7)).superposed()
    np.testing.assert_allclose(chi.amplitudes, ghz.amplitudes)
    assert chi.norm_sq == pytest.approx(1.0, abs=1e-12)


def test_superpose_parallel_components(ghz):
    chi = SuperpositionSpec(S2, S2, ghz, ghz).superposed()
    np.testing.assert_allclose(chi.amplitudes, np.sqrt(2) * ghz.amplitudes)
    assert chi.norm_sq == pytest.approx(2.0, abs=1e-12)


def test_superpose_coefficient_constraint(ghz, w):
    with pytest.raises(ValueError, match="a1"):
        SuperpositionSpec(1.0, 1.0, ghz, w)
    chi = SuperpositionSpec(1.0, 1.0, ghz, w, coeff_check=False).superposed()
    assert chi.norm_sq > 1.0


@pytest.mark.parametrize("offset, accepted", [(0.5e-10, True), (2e-10, False)])
def test_coeff_tol_is_the_boundary(ghz, w, offset, accepted):
    # COEFF_TOL = 1e-10 on |a1|^2 + |a2|^2 - 1
    a = np.sqrt((1.0 + offset) / 2.0)
    if accepted:
        SuperpositionSpec(a, a, ghz, w)
    else:
        with pytest.raises(ValueError, match="must satisfy"):
            SuperpositionSpec(a, a, ghz, w)


@pytest.mark.parametrize("bad", [complex("nan"), float("inf"), complex(0.0, float("inf"))])
@pytest.mark.parametrize("check", [True, False])
def test_superpose_rejects_non_finite_coefficients(ghz, w, bad, check):
    with pytest.raises(ValueError, match="finite"):
        SuperpositionSpec(bad, 1.0, ghz, w, coeff_check=check)
    with pytest.raises(ValueError, match="finite"):
        SuperpositionSpec(S2, bad, ghz, w, coeff_check=check)


@pytest.mark.parametrize("a1,a2", [(1e200, 1), (1e308 + 1e308j, 0), (1e154, 1e154)],
                         ids=["squared-modulus", "complex-modulus", "sum"])
@pytest.mark.parametrize("check", [True, False])
def test_spec_rejects_overflowing_weight(ghz, w, a1, a2, check):
    # a ValueError, not the OverflowError of abs() or **, in both modes
    with pytest.raises(ValueError, match="overflows"):
        SuperpositionSpec(a1, a2, ghz, w, coeff_check=check)


def test_superpose_dims_mismatch(ghz):
    with pytest.raises(ValueError, match="dims"):
        SuperpositionSpec(S2, S2, ghz, library.ghz(3))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), angle=st.floats(0.0, 2 * np.pi))
def test_superpose_norm_identity(seed, angle):
    psi1 = library.haar_random([2, 2, 2], seed)
    psi2 = library.haar_random([2, 2, 2], seed + 1)
    a1, a2 = np.cos(angle), np.sin(angle) * np.exp(0.3j)
    chi = SuperpositionSpec(a1, a2, psi1, psi2).superposed()
    overlap = complex(np.vdot(psi1.amplitudes, psi2.amplitudes))
    expected = abs(a1) ** 2 + abs(a2) ** 2 + 2 * (np.conj(a1) * a2 * overlap).real
    assert chi.norm_sq == pytest.approx(expected, abs=1e-10)


# --------------------------------------------------------------- matricize


def test_bipartition_labels_and_dims():
    cuts = bipartitions(library.ghz(3))
    assert [c.label for c in cuts] == ["A|BC", "B|AC", "C|AB"]
    for c in cuts:
        assert c.row_dim * c.col_dim == 27


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition.of([2, 2], 0)
    with pytest.raises(ValueError):
        Bipartition.of([2, 2, 2], 3)


def test_matricize_ghz(ghz):
    m = matricize(ghz, Bipartition.of(ghz.dims, 0))
    expected = np.zeros((2, 4), dtype=complex)
    expected[0, 0] = S2
    expected[1, 3] = S2
    np.testing.assert_allclose(m, expected)


def test_matricize_basis_state_b_cut():
    m = matricize(basis_state(0), Bipartition.of((2, 2, 2), 1))
    expected = np.zeros((2, 4), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(m, expected)


@pytest.mark.parametrize("kept", [0, 1, 2])
def test_matricize_roundtrip(kept):
    s = library.haar_random([2, 3, 4], 11)
    cut = Bipartition.of(s.dims, kept)
    m = matricize(s, cut)
    back = np.moveaxis(
        m.reshape([s.dims[kept]] + [d for k, d in enumerate(s.dims) if k != kept]),
        0,
        kept,
    ).reshape(-1)
    np.testing.assert_array_equal(back, s.amplitudes)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_matricize_preserves_amplitude_multiset(seed):
    s = library.haar_random([2, 2, 2], seed)
    mags = [
        np.sort(np.abs(matricize(s, cut)).reshape(-1)) for cut in bipartitions(s)
    ]
    np.testing.assert_allclose(mags[0], mags[1])
    np.testing.assert_allclose(mags[0], mags[2])


# ---------------------------------------------------------- reduced density


def test_reduced_density_ghz(ghz):
    for cut in bipartitions(ghz):
        np.testing.assert_allclose(
            reduced_density(ghz, cut), np.diag([0.5, 0.5]), atol=1e-15
        )


def test_reduced_density_product_state():
    rho = reduced_density(basis_state(0), Bipartition.of((2, 2, 2), 0))
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]))


def test_reduced_density_w(w):
    rho = reduced_density(w, Bipartition.of((2, 2, 2), 0))
    np.testing.assert_allclose(rho, np.diag([2 / 3, 1 / 3]), atol=1e-15)


def test_reduced_density_requires_normalization(ghz):
    doubled = PureState(ghz.dims, 2.0 * ghz.amplitudes)
    with pytest.raises(ValueError, match="normalized"):
        reduced_density(doubled, Bipartition.of(ghz.dims, 0))


@pytest.mark.parametrize("seed", range(5))
def test_reduced_density_is_valid_density_matrix(seed):
    s = library.haar_random([3, 3, 3], seed)
    for cut in bipartitions(s):
        rho = reduced_density(s, cut)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


# ---------------------------------------------------------- schmidt spectrum


def test_schmidt_ghz(ghz):
    lam = singular_values([(ghz, Bipartition.of(ghz.dims, 0))])[0] ** 2
    np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-12)


def test_schmidt_w(w):
    lam = singular_values([(w, Bipartition.of(w.dims, 0))])[0] ** 2
    np.testing.assert_allclose(lam, [2 / 3, 1 / 3], atol=1e-12)


def test_schmidt_product():
    lam = singular_values([(basis_state(0), Bipartition.of((2, 2, 2), 0))])[0] ** 2
    np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-12)
    assert np.count_nonzero(lam > 1e-12) == 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_schmidt_spectrum_properties(seed):
    s = library.haar_random([3, 3, 3], seed)
    for cut in bipartitions(s):
        lam = singular_values([(s, cut)])[0] ** 2
        assert np.all(lam[:-1] >= lam[1:])  # descending
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
        assert lam.sum() == pytest.approx(1.0, abs=1e-10)
        rho = reduced_density(s, cut)
        purity = float((np.abs(rho) ** 2).sum())
        assert purity == pytest.approx(float((lam**2).sum()), abs=1e-9)


# ------------------------------------------------------------------ file IO


def test_state_json_roundtrip(tmp_path):
    s = library.haar_random([2, 3, 2], 5)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(s.to_dict()))
    loaded = load_state(path)
    assert loaded.dims == s.dims
    np.testing.assert_array_equal(loaded.amplitudes, s.amplitudes)


def test_state_file_rejects_length_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": [[1.0, 0.0]] * 7}))
    with pytest.raises(ValueError, match="length"):
        load_state(path)


def test_state_from_dict_requires_keys():
    with pytest.raises(ValueError, match="dims"):
        state_from_dict({"amplitudes": []})


# ---------------------------------------------------------------- imports


def test_states_imports_nothing_from_oracle():
    # the dense oracle certifies the fast paths, so they share no code with it
    tree = ast.parse(Path(supneg.states.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "oracle" in name]


def test_only_the_oracle_casts_dims_with_int():
    # states.validate_dims is the one dims check: int(d) would cut 2.5 down to 2;
    # the oracle stays independent of states and keeps its own cast
    src = Path(supneg.states.__file__).parent
    offenders = [
        p.name
        for p in sorted(src.glob("*.py"))
        if p.name != "oracle.py" and "int(d) for d in" in p.read_text(encoding="utf-8")
    ]
    assert offenders == []
