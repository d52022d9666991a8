import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supneg.measures as measures
import supneg.states as states
from reference import (
    GeneratorPair,
    apply_product_unitary,
    bilinear_form,
    bilinear_matrix,
    generator_pairs,
    haar_unitary,
)
from supneg import bounds, library, oracle, verify
from supneg.measures import cross_sums, cut_measures, measure_report
from supneg.states import (
    Bipartition,
    PureState,
    SuperpositionSpec,
    bipartitions,
    matricize,
    new_state,
    normalize,
    singular_values,
)

S2 = 1 / np.sqrt(2)
S3 = 1 / np.sqrt(3)


def basis_state(index, dims=(2, 2, 2)):
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[index] = 1.0
    return new_state(dims, amps)


def zero_bell():
    # |0> on A tensored with a Bell pair on BC
    return new_state([2, 2, 2], [S2, 0, 0, S2, 0, 0, 0, 0])


def dense_generator(dim, pair):
    """|i><j| - |j><i| built densely; the reference for the sparse path."""
    g = np.zeros((dim, dim), dtype=complex)
    g[pair.i, pair.j] = 1.0
    g[pair.j, pair.i] = -1.0
    return g


def dense_bilinear(psi, phi, cut, alpha, beta):
    """<psi| L x S |phi*> via explicit matrix products on matricized vectors."""
    j = np.kron(dense_generator(cut.row_dim, alpha), dense_generator(cut.col_dim, beta))
    vp = matricize(psi, cut).reshape(-1)
    vq = matricize(phi, cut).reshape(-1)
    return complex(vp.conj() @ j @ vq.conj())


# ---------------------------------------------------------- generator pairs


def test_generator_pairs_dim2():
    assert generator_pairs(2) == [GeneratorPair(0, 1)]


def test_generator_pairs_dim3_lexicographic():
    assert generator_pairs(3) == [
        GeneratorPair(0, 1),
        GeneratorPair(0, 2),
        GeneratorPair(1, 2),
    ]


def test_generator_pairs_count_dim4():
    assert len(generator_pairs(4)) == 4 * 3 // 2


def test_generator_pairs_rejects_dim1():
    with pytest.raises(ValueError):
        generator_pairs(1)


# ----------------------------------------------------------- bilinear forms


def test_bilinear_form_ghz_single_pair(ghz):
    cut = Bipartition.of(ghz.dims, 0)
    value = bilinear_form(ghz, ghz, cut, GeneratorPair(0, 1), GeneratorPair(0, 3))
    assert value == pytest.approx(2 * S2 * S2)


def test_bilinear_form_product_state_vanishes():
    s = basis_state(0)
    cut = Bipartition.of(s.dims, 0)
    for alpha in generator_pairs(cut.row_dim):
        for beta in generator_pairs(cut.col_dim):
            assert bilinear_form(s, s, cut, alpha, beta) == 0


def test_bilinear_form_range_check(ghz):
    cut = Bipartition.of(ghz.dims, 0)
    with pytest.raises(ValueError, match="range"):
        bilinear_form(ghz, ghz, cut, GeneratorPair(0, 2), GeneratorPair(0, 1))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bilinear_form_symmetric_in_arguments(seed):
    psi = library.haar_random([2, 2, 2], seed)
    phi = library.haar_random([2, 2, 2], seed + 1)
    for cut in bipartitions(psi):
        a = bilinear_matrix(psi, phi, cut)
        b = bilinear_matrix(phi, psi, cut)
        np.testing.assert_array_equal(a, b)  # exact: J is symmetric


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 3], [2, 3, 2]])
def test_bilinear_matrix_matches_dense_generator_products(dims):
    psi = library.haar_random(dims, 21)
    phi = library.haar_random(dims, 22)
    for cut in bipartitions(psi):
        t = bilinear_matrix(psi, phi, cut)
        rows = generator_pairs(cut.row_dim)
        cols = generator_pairs(cut.col_dim)
        assert t.shape == (len(rows), len(cols))
        for a, alpha in enumerate(rows):
            for b, beta in enumerate(cols):
                dense = dense_bilinear(psi, phi, cut, alpha, beta)
                assert t[a, b] == pytest.approx(dense, abs=1e-12)
                sparse = bilinear_form(psi, phi, cut, alpha, beta)
                assert sparse == pytest.approx(dense, abs=1e-12)


def test_bilinear_matrix_is_twice_the_minor_matrix():
    s = library.haar_random([3, 3, 3], 33)
    for cut in bipartitions(s):
        t = bilinear_matrix(s, s, cut)
        m = matricize(s, cut).conj()
        ri, rj = np.triu_indices(cut.row_dim, 1)
        ci, cj = np.triu_indices(cut.col_dim, 1)
        blocks = np.stack(
            [
                np.stack([m[np.ix_((i, j), (k, l))] for k, l in zip(ci, cj)])
                for i, j in zip(ri, rj)
            ]
        )
        minors = np.linalg.det(blocks)
        np.testing.assert_allclose(t, 2.0 * minors, atol=1e-10)


# ---------------------------------------------------------------- cross sum


def test_cross_sum_ghz(ghz):
    for cut in bipartitions(ghz):
        assert cross_sums([(ghz, ghz, cut)])[0] == pytest.approx(1.0, abs=1e-12)


def test_cross_sum_product_state_zero():
    s = basis_state(0)
    for cut in bipartitions(s):
        assert cross_sums([(s, s, cut)])[0] == 0.0


def test_cross_sum_w(w):
    cut = Bipartition.of(w.dims, 0)
    assert cross_sums([(w, w, cut)])[0] == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-12)


def test_cross_sum_symmetric_exactly(ghz, w):
    for cut in bipartitions(ghz):
        assert cross_sums([(ghz, w, cut)])[0] == cross_sums([(w, ghz, cut)])[0]


def test_cross_sum_quadratic_scaling(ghz):
    # applied to c*chi the cross sum picks up |c|^2: the property that lets
    # unnormalized superpositions be evaluated directly
    from supneg.states import PureState

    chi = PureState(ghz.dims, 1.7 * ghz.amplitudes)
    cut = Bipartition.of(ghz.dims, 0)
    assert cross_sums([(chi, chi, cut)])[0] == pytest.approx(
        1.7**2 * cross_sums([(ghz, ghz, cut)])[0], abs=1e-12
    )


KERNEL_DIMS = [(2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 4, 4)]


def _kernel_state(kind, dims, rng):
    if kind == "zero":
        return PureState(dims, np.zeros(int(np.prod(dims))))
    if kind == "product":
        vec = np.ones(1)
        for d in dims:
            vec = np.kron(vec, rng.standard_normal(d) + 1j * rng.standard_normal(d))
        return PureState(dims, vec)
    return library.haar_random(list(dims), int(rng.integers(2**31)))


@st.composite
def kernel_batches(draw):
    """Batches of 1..12 (psi, phi, cut) triples over mixed dims: same-state
    and distinct pairs of Haar, product and zero vectors, repeats included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    triples = []
    for _ in range(draw(st.integers(1, 12))):
        if triples and draw(st.booleans()):
            triples.append(triples[draw(st.integers(0, len(triples) - 1))])
            continue
        dims = draw(st.sampled_from(KERNEL_DIMS))
        kinds = st.sampled_from(["haar", "haar", "product", "zero"])
        psi = _kernel_state(draw(kinds), dims, rng)
        phi = psi if draw(st.booleans()) else _kernel_state(draw(kinds), dims, rng)
        triples.append((psi, phi, Bipartition.of(dims, draw(st.integers(0, 2)))))
    return triples


@settings(max_examples=60, deadline=None)
@given(kernel_batches(), st.randoms(use_true_random=False))
def test_kernel_property_bits_alone_and_dense_agreement(triples, random):
    spectra = measures.cross_sum_spectra(triples)
    order = list(range(len(triples)))
    random.shuffle(order)
    shuffled = measures.cross_sum_spectra([triples[i] for i in order])
    for i, (psi, phi, cut) in enumerate(triples):
        sigma = spectra[i]
        alone = measures.cross_sum_spectra([(psi, phi, cut)])[0]
        assert alone.tobytes() == sigma.tobytes()
        assert shuffled[order.index(i)].tobytes() == sigma.tobytes()
        dense = bilinear_matrix(psi, phi, cut)
        ref = np.linalg.svd(dense, compute_uv=False)
        padded = np.zeros_like(ref)
        padded[: sigma.size] = sigma  # the compressed T drops only zero values
        # T is bilinear in the matricizations, so their Frobenius norms set the
        # rounding scale; T's own norm is rounding noise on a product state
        scale = np.linalg.norm(matricize(psi, cut)) * np.linalg.norm(matricize(phi, cut))
        assert np.abs(padded - ref).max() <= 1e-12 * scale


# ------------------------------------------------------------- negativities


def test_negativity_golden_values(ghz, w):
    for cut in bipartitions(ghz):
        assert cross_sums([(ghz, ghz, cut)])[0] == pytest.approx(1.0, abs=1e-12)
        assert cross_sums([(w, w, cut)])[0] == pytest.approx(
            2 * np.sqrt(2) / 3, abs=1e-12
        )


def test_negativity_zero_bell():
    s = zero_bell()
    cuts = bipartitions(s)
    assert cross_sums([(s, s, cuts[0])])[0] == pytest.approx(0.0, abs=1e-12)
    assert cross_sums([(s, s, cuts[1])])[0] == pytest.approx(1.0, abs=1e-12)


def test_negativity_schmidt_values(ghz):
    def schmidt(state):
        return cut_measures([(state, Bipartition.of(state.dims, 0))])[0].schmidt

    assert schmidt(ghz) == pytest.approx(1.0)
    assert schmidt(basis_state(0)) == pytest.approx(0.0, abs=1e-9)
    # maximally entangled A|BC slice of a qutrit system
    amps = np.zeros(27, dtype=complex)
    for i in range(3):
        amps[(i * 3 + i) * 3 + 0] = S3
    sliced = new_state([3, 3, 3], amps)
    assert schmidt(sliced) == pytest.approx(2.0, abs=1e-9)


def test_negativity_requires_normalized(ghz):
    from supneg.states import PureState

    doubled = PureState(ghz.dims, 2 * ghz.amplitudes)
    with pytest.raises(ValueError, match="normalized"):
        cut_measures([(doubled, Bipartition.of(ghz.dims, 0))])[0]


def _assert_dual_path(states):
    """SO and Schmidt paths match the PT oracle, solved as one batch, on every cut."""
    pairs = [(s, cut) for s in states for cut in bipartitions(s)]
    for (s, cut), n_pt in zip(pairs, oracle.negativities_pt_oracle(pairs)):
        n_so = cross_sums([(s, s, cut)])[0]
        assert n_so == pytest.approx(n_pt, abs=1e-9)
        assert n_so == pytest.approx(cut_measures([(s, cut)])[0].schmidt, abs=1e-9)


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 3], [2, 3, 4]])
def test_dual_path_negativity_on_haar_states(dims):
    _assert_dual_path(library.haar_random(dims, seed) for seed in range(8))


def _biseparable_and_near_product(dims):
    """A biseparable state per kept subsystem and seed, then it plus 1e-4 noise."""
    for kept in range(3):
        for seed in range(2):
            key = 10 * kept + seed
            s = library.random_biseparable(Bipartition.of(dims, kept), dims, key)
            yield s
            noise = library.haar_random(dims, 1000 + key).amplitudes
            yield normalize(new_state(dims, s.amplitudes + 1e-4 * noise))[0]


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 3], [2, 3, 4]])
def test_dual_path_negativity_on_biseparable_and_near_product_states(dims):
    # a product cut has vanishing Schmidt coefficients: the paths must not
    # take square roots of rounding-level eigenvalues there
    _assert_dual_path(_biseparable_and_near_product(dims))


# ------------------------------------------------------- compressed kernel


def _dense_cross_sum(psi, phi, cut):
    return float(np.linalg.svd(bilinear_matrix(psi, phi, cut), compute_uv=False).sum())


def _kernel_pairs():
    """(psi, phi) pairs of every kind the LQ-compressed cross sum must match."""
    for dims in ([2, 2, 2], [3, 3, 3], [2, 3, 4], [4, 3, 2]):
        a = library.haar_random(dims, 40)
        b = library.haar_random(dims, 41)
        yield a, a
        yield a, b
        for s in _biseparable_and_near_product(dims):
            yield s, s
            yield s, a
        yield a, PureState(a.dims, np.exp(0.7345j) * a.amplitudes)  # rank-deficient stack
        yield a, PureState(a.dims, a.amplitudes.copy())  # equal bytes, distinct object
        spec = library.random_superposition_spec(dims, 42)
        chi = spec.superposed()  # raw, unnormalized
        yield chi, chi
        yield chi, spec.psi2
    degenerate = verify._degenerate_spec(7)  # near-zero-norm chi
    chi = degenerate.superposed()
    yield chi, chi
    yield chi, degenerate.psi1


def test_cross_sum_matches_dense_svd():
    for psi, phi in _kernel_pairs():
        for cut in bipartitions(psi):
            assert cross_sums([(psi, phi, cut)])[0] == pytest.approx(
                _dense_cross_sum(psi, phi, cut), abs=1e-12
            )


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 3], [2, 3, 4]])
def test_cross_sum_symmetric_exactly_on_haar_pairs(dims):
    for seed in range(20):
        a = library.haar_random(dims, 2 * seed)
        b = library.haar_random(dims, 2 * seed + 1)
        copy = PureState(a.dims, a.amplitudes.copy())
        for cut in bipartitions(a):
            assert cross_sums([(a, b, cut)])[0] == cross_sums([(b, a, cut)])[0]
            assert cross_sums([(a, copy, cut)])[0] == cross_sums([(a, a, cut)])[0]


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 4), (12, 2, 2), (5, 5, 5)])
@pytest.mark.parametrize("n", [1, 2])
def test_t_drops_only_zero_columns(dims, n):
    # L is lower trapezoidal, so L_P is zero from column r on and every T
    # column (k, l) with k >= r vanishes; the kept ones are a prefix, and for
    # a self pair (n = 1) L has at most r columns, so every column is kept
    a, b = library.haar_random(list(dims), 1), library.haar_random(list(dims), 2)
    for cut in bipartitions(a):
        factors = measures._stacked_lq([[matricize(s, cut) for s in (a, b)[:n]]])
        rows = cut.row_dim
        lp, lq = factors[:, :rows], factors[:, -rows:]
        full = measures.t_matrix(lp, lq)
        kept = measures.t_matrix(lp, lq, rows)
        assert kept.tobytes() == full[..., : kept.shape[-1]].tobytes()
        assert not full[..., kept.shape[-1] :].any()
        k = factors.shape[2]
        assert kept.shape[-1] == math.comb(k, 2) - math.comb(max(k - rows, 0), 2)


def test_multipartite_negativity_values(ghz, w):
    assert measure_report(ghz).n_multi == pytest.approx(6.0, abs=1e-12)
    assert measure_report(w).n_multi == pytest.approx(4 * np.sqrt(2), abs=1e-12)
    assert measure_report(basis_state(0)).n_multi == 0.0


def test_gme_negativity_values(ghz, w):
    assert measure_report(ghz).n_gme == pytest.approx(1.0, abs=1e-12)
    assert measure_report(w).n_gme == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-12)
    assert measure_report(zero_bell()).n_gme == pytest.approx(0.0, abs=1e-12)


def test_gme_from_superposed_separable_components():
    # both components are product states, but their balanced superposition
    # is genuinely multipartite entangled
    chi = SuperpositionSpec(S2, S2, basis_state(0), basis_state(7)).superposed()
    assert measure_report(basis_state(0)).n_gme == pytest.approx(0.0, abs=1e-12)
    assert measure_report(basis_state(7)).n_gme == pytest.approx(0.0, abs=1e-12)
    assert measure_report(chi).n_gme == pytest.approx(1.0, abs=1e-12)


def test_composite_ordering_invariance():
    # swapping the two complement subsystems permutes matricization columns
    # and must leave every per-cut measure unchanged
    s = library.haar_random([2, 3, 4], 17)
    swapped = new_state(
        (s.dims[0], s.dims[2], s.dims[1]), np.transpose(s.tensor(), (0, 2, 1)).reshape(-1)
    )
    assert cross_sums([(s, s, Bipartition.of(s.dims, 0))])[0] == pytest.approx(
        cross_sums([(swapped, swapped, Bipartition.of(swapped.dims, 0))])[0], abs=1e-12
    )


# -------------------------------------------------------------- concurrence


def test_concurrence_sq_golden(ghz, w):
    for cut in bipartitions(ghz):
        pair = cut_measures([(ghz, cut)])[0]
        assert pair.density == pytest.approx(1.0, abs=1e-12)
        assert pair.generator == pytest.approx(1.0, abs=1e-12)
        assert cut_measures([(w, cut)])[0].density == pytest.approx(8 / 9, abs=1e-12)
    s = basis_state(0)
    assert cut_measures([(s, Bipartition.of(s.dims, 0))])[0].density == pytest.approx(
        0.0, abs=1e-12
    )


@pytest.mark.parametrize("seed", range(6))
def test_concurrence_identity_on_haar(seed):
    s = library.haar_random([3, 3, 3], seed)
    for cut in bipartitions(s):
        pair = cut_measures([(s, cut)])[0]
        assert abs(pair.difference) <= 1e-9


def test_concurrence_detects_convention_bug(monkeypatch, ghz):
    clean = json.dumps(measure_report(ghz).to_dict())
    original = measures.t_matrix
    # a 1/sqrt(2)-per-generator convention scales every form by 1/2
    monkeypatch.setattr(measures, "t_matrix", lambda *a, **k: 0.5 * original(*a, **k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, checks = verify.run_verify(samples=4, seed=7, tol=1e-9)
    failing = {c.name for c in checks if not c.passed}
    assert {"dual_path_negativity", "concurrence_identity"} <= failing
    # measure reads no T: its bytes do not see the fault
    assert json.dumps(measure_report(ghz).to_dict()) == clean
    # and the negativity path drops to half the oracle value
    cut = Bipartition.of(ghz.dims, 0)
    assert cross_sums([(ghz, ghz, cut)])[0] == pytest.approx(
        oracle.negativities_pt_oracle([(ghz, cut)])[0] / 2, abs=1e-9
    )


@pytest.mark.parametrize("gap, accepted", [(0.5e-9, True), (2e-9, False)])
def test_concurrence_identity_tol_is_the_boundary(monkeypatch, gap, accepted):
    # the run tolerance 1e-9: the concurrence paths disagree by gap on every cut
    exact = measures.cut_measures
    monkeypatch.setattr(measures, "cut_measures", lambda pairs: [
        c._replace(generator=c.density + gap) for c in exact(pairs)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, checks = verify.run_verify(samples=4, seed=7, tol=1e-9)
    failing = {c.name for c in checks if not c.passed}
    assert failing == (set() if accepted else {"concurrence_identity"})


def test_multipartite_concurrence_values(ghz, w):
    assert measure_report(ghz).c2_multi == pytest.approx(3.0, abs=1e-12)
    assert measure_report(w).c2_multi == pytest.approx(8 / 3, abs=1e-12)


def test_gme_concurrence_values(ghz, w):
    assert measure_report(ghz).c_gme == pytest.approx(1.0, abs=1e-12)
    assert measure_report(w).c_gme == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-12)
    assert measure_report(zero_bell()).c_gme == pytest.approx(0.0, abs=1e-6)


# ------------------------------------------------------------ biseparability


def separable_cuts(s):
    """Per-cut product flags, A|BC first: a negativity at most 1e-9."""
    negs = cross_sums((s, s, cut) for cut in bipartitions(s))
    return tuple(n <= 1e-9 for n in negs)


def test_biseparable_product_state():
    flags = separable_cuts(basis_state(0))
    assert flags == (True, True, True)
    assert any(flags)


def test_biseparable_ghz(ghz):
    flags = separable_cuts(ghz)
    assert flags == (False, False, False)
    assert not any(flags)


def test_biseparable_zero_bell():
    flags = separable_cuts(zero_bell())
    assert flags == (True, False, False)
    assert any(flags)


def test_biseparable_flags_match_schmidt_rank():
    for seed in range(10):
        cut0 = bipartitions(library.ghz(2))[seed % 3]
        s = library.random_biseparable(cut0, [2, 2, 2], seed)
        for cut, flag in zip(bipartitions(s), separable_cuts(s)):
            lam = singular_values([(s, cut)])[0] ** 2
            assert flag == (np.count_nonzero(lam > 1e-12) == 1)


# ----------------------------------------------------- local unitary invariance


@pytest.mark.parametrize("seed", range(4))
def test_local_unitary_invariance(seed):
    s = library.haar_random([2, 2, 2], seed)
    us = [haar_unitary(2, 100 * seed + k) for k in range(3)]
    rotated = apply_product_unitary(s, us)
    assert measure_report(rotated).n_multi == pytest.approx(
        measure_report(s).n_multi, abs=1e-8
    )
    assert measure_report(rotated).n_gme == pytest.approx(
        measure_report(s).n_gme, abs=1e-8
    )
    assert measure_report(rotated).c2_multi == pytest.approx(
        measure_report(s).c2_multi, abs=1e-8
    )
    assert measure_report(rotated).c_gme == pytest.approx(
        measure_report(s).c_gme, abs=1e-8
    )


# -------------------------------------------------------------- full report


def test_measure_report_structure_and_identities(w):
    report = measure_report(w)
    d = report.to_dict()
    assert list(d) == [
        "n_a",
        "n_b",
        "n_c",
        "n_multi",
        "n_gme",
        "c2_a",
        "c2_b",
        "c2_c",
        "c2_multi",
        "c_gme",
        "diagnostics",
    ]
    del d["diagnostics"]
    assert d["n_multi"] == pytest.approx(2 * (d["n_a"] + d["n_b"] + d["n_c"]), abs=1e-10)
    assert d["n_gme"] == min(d["n_a"], d["n_b"], d["n_c"])  # exact, by construction
    assert all(isinstance(v, float) for v in d.values())


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 3], [2, 3, 4]])
def test_measure_report_vanishes_on_biseparable_states(dims):
    for kept in range(3):
        s = library.random_biseparable(Bipartition.of(dims, kept), dims, kept)
        report = measure_report(s)
        assert report.n_gme <= 1e-12
        assert report.c_gme <= 1e-12
        assert abs(report.diagnostics["n_schmidt"][kept]) <= 1e-12


def _count_calls(monkeypatch, fn):
    """Route every supneg module's reference to fn through a call counter."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "supneg" or name.startswith("supneg."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_density_mask_has_the_bits_of_triu():
    # 2,160 cuts: 40 Haar, biseparable and near-product states at each d
    pairs = []
    for d in (2, 3, 4, 6, 8, 12):
        dims = [d, d, d]
        for k in range(40):
            haar = library.haar_random(dims, 500 + k)
            bisep = library.random_biseparable(Bipartition.of(dims, k % 3), dims, 600 + k)
            near = normalize(new_state(dims, bisep.amplitudes + 1e-4 * haar.amplitudes))[0]
            pairs += [(s, cut) for s in (haar, bisep, near) for cut in bipartitions(s)]
    got = [density for _, density in measures._schmidt_paths(pairs, "test")]
    lams = [np.minimum(s * s, 1.0) for s in singular_values(pairs)]
    expected = [4.0 * float(np.triu(np.outer(lam, lam), 1).sum()) for lam in lams]
    assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_cut_measures_bits_do_not_depend_on_the_batch():
    # (2,3,4) has three matricization shapes, (3,3,3) one more
    states = [library.haar_random(dims, seed) for seed in range(4)
              for dims in ([2, 3, 4], [3, 3, 3])]
    pairs = [(s, cut) for s in states for cut in bipartitions(s)]
    batch = measures.cut_measures(pairs)
    for (s, cut), together in zip(pairs, batch):
        alone = measures.cut_measures([(s, cut)])[0]
        assert [float(v).hex() for v in alone] == [float(v).hex() for v in together]
        assert alone.negativity.hex() == cross_sums([(s, s, cut)])[0].hex()
    # measure_report reads the Schmidt and density paths, whatever its batch
    for s, cuts in zip(states, (batch[k : k + 3] for k in range(0, len(batch), 3))):
        report = measure_report(s)
        negs = [c.schmidt for c in cuts]
        c2 = [c.density for c in cuts]
        expected = (*negs, 2.0 * sum(negs), min(negs), *c2, float(np.sqrt(min(c2))), *negs)
        got = (report.n_a, report.n_b, report.n_c, report.n_multi, report.n_gme,
               report.c2_a, report.c2_b, report.c2_c, report.c_gme,
               *report.diagnostics["n_schmidt"])
        assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_measure_report_is_one_pass_per_cut(monkeypatch):
    t_builds = _count_calls(monkeypatch, measures.t_matrix)
    jacobi_calls = _count_calls(monkeypatch, oracle.hermitian_eigenvalues)
    reshapes = _count_calls(monkeypatch, states.matricize)
    measure_report(library.haar_random([3, 3, 3], 5))
    assert len(t_builds) == 0  # every value comes off the Schmidt values
    assert len(jacobi_calls) == 0  # the Jacobi solver serves the oracle only
    assert len(reshapes) == 3  # per cut: one, for the Schmidt SVD


def test_verify_is_one_jacobi_solve_per_total_dimension(monkeypatch):
    jacobi_calls = _count_calls(monkeypatch, oracle.hermitian_eigenvalues)
    with pytest.warns(UserWarning, match="near-zero norm"):
        verify.run_verify(samples=8, seed=42, tol=1e-9)
    # the samples' partial transposes are 8x8 or 27x27: one stacked solve each
    assert len(jacobi_calls) <= 2
    assert {args[0].shape[1:] for args in jacobi_calls} == {(8, 8), (27, 27)}


def test_verify_is_one_kernel_call_per_check(monkeypatch):
    kernel_calls = _count_calls(monkeypatch, measures.cross_sum_spectra)
    t_builds = _count_calls(monkeypatch, measures.t_matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for check in verify.CHECKS:
            drawn = _drawn(check, 8, 42)
            before = len(kernel_calls)
            check.violations(drawn)
            assert len(kernel_calls) - before <= 1, check.names
    # one T build per (check, stacked shape) group: 12, not one per triple (192)
    assert len(t_builds) <= 12


def test_verify_run_shares_one_haar_block(monkeypatch):
    haar, *rest = verify.CHECKS
    draws = []
    monkeypatch.setattr(verify, "CHECKS", (haar._replace(
        draw=lambda key, i: draws.append(i) or haar.draw(key, i)), *rest))
    kernel_calls = _count_calls(monkeypatch, measures.cross_sum_spectra)
    cut_measures_calls = _count_calls(monkeypatch, measures.cut_measures)
    jacobi_calls = _count_calls(monkeypatch, oracle.hermitian_eigenvalues)
    with pytest.warns(UserWarning, match="near-zero norm"):
        verify.run_verify(samples=8, seed=42, tol=1e-9)
    assert draws == list(range(8))  # 8 Haar states for three checks, not 24
    assert len(kernel_calls) == 2  # the Haar block and the sandwiches
    assert len(cut_measures_calls) == 1  # one batch, in the Haar block
    assert len(jacobi_calls) <= 2


def _count_builds(monkeypatch, cls):
    """Count every construction of a dataclass through its __post_init__."""
    built = []
    post_init = cls.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def test_verify_superposes_each_spec_once(monkeypatch):
    specs = _count_builds(monkeypatch, SuperpositionSpec)
    with pytest.warns(UserWarning, match="near-zero norm"):
        verify.run_verify(samples=40, seed=42, tol=1e-9)
    # one spec per sandwich sample builds its vector once; the bounds read the
    # spec's vector and the warning reads the report
    assert len(specs) == 40
    states_built = _count_builds(monkeypatch, PureState)
    bounds.evaluate_bounds_batch(specs)
    assert states_built == [] and len(specs) == 40


def test_bounds_are_one_kernel_call(monkeypatch):
    kernel_calls = _count_calls(monkeypatch, measures.cross_sum_spectra)
    t_builds = _count_calls(monkeypatch, measures.t_matrix)
    bounds.evaluate_bounds(library.random_superposition_spec([3, 3, 3], 4))
    assert len(kernel_calls) == 1
    del kernel_calls[:], t_builds[:]
    sweep = [library.z_family(p) for p in np.linspace(0.0, 1.0, 21)]
    bounds.evaluate_bounds_batch(sweep)
    assert len(kernel_calls) == 1
    # one component pair: its three psi1-psi2 triples, not 21 x 3
    assert len(kernel_calls[0][0]) == 3
    # same-state and distinct-pair stacks of d = 2: two builds, not 21 x 12
    assert len(t_builds) <= 2
    del kernel_calls[:]
    bounds.evaluate_bounds_batch(sweep)  # every pair memoized
    assert [len(args[0]) for args in kernel_calls] == [0]


def _drawn(check, samples, seed):
    """The samples ``run_verify`` draws for one check: sample i from key seed ^ i."""
    return [check.draw(seed ^ i, i) for i in range(samples)]


def _violation_bits(rows):
    return [[float(v).hex() for v in violations] for violations in rows]


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda c: c.names[0])
def test_check_rows_do_not_depend_on_grouping(check):
    # scoring a prefix of the drawn samples gives the prefix of the batch's violations
    drawn = _drawn(check, 8, 42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        full = _violation_bits(check.violations(drawn))
        for k in (1, 3):
            assert _violation_bits(check.violations(drawn[:k])) == full[:k]


def test_near_zero_norm_warning_fires_once_per_run():
    with pytest.warns(UserWarning) as record:
        verify.run_verify(samples=8, seed=42, tol=1e-9)
    assert sum("near-zero norm" in str(w.message) for w in record) == 1


def test_measure_report_diagnostics(ghz):
    diag = measure_report(ghz).diagnostics
    assert diag["c_gme_unit_prefactor"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    np.testing.assert_allclose(diag["n_schmidt"], [1.0, 1.0, 1.0], atol=1e-9)
