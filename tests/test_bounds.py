import json
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import bilinear_matrix, cross_term_table
from supneg import bounds, library, measures
from supneg.bounds import (
    REPORTED_GME_CONSTANTS,
    REPORTED_TOTAL_CONSTANTS,
    SuperpositionSpec,
    _self_sums,
    combine_bounds,
    evaluate_bounds,
    evaluate_bounds_batch,
    fit_gme_closed_form,
)
from supneg.states import (
    Bipartition,
    bipartitions,
    matricize,
    new_state,
    normalize,
    singular_values,
)
from supneg.verify import _degenerate_spec, _sandwich_draw

S2 = 1 / np.sqrt(2)

# Frozen from the dense partial-transpose oracle ahead of the build; the
# closed forms are sqrt(29)/6 per cut at p = 1/2 and their aggregates.
Z_HALF_NGME = 0.8975274678557507
Z_HALF_NMULTI = 5.385164807134504
Z_HALF_T1_UPPER = 9.292528739883945  # 3 + 2 sqrt(2) + 2 sqrt(3)
Z_HALF_T2_UPPER = 1.5487547899806575  # 1/2 + sqrt(2)/3 + 1/sqrt(3)


def basis_state(index):
    amps = np.zeros(8, dtype=complex)
    amps[index] = 1.0
    return new_state([2, 2, 2], amps)


def positive_triples():
    return st.tuples(
        st.floats(1e-6, 1e3), st.floats(1e-6, 1e3), st.floats(1e-6, 1e3)
    )


# ------------------------------------------------------------------- spec


def test_spec_validates_coefficients(ghz, w):
    with pytest.raises(ValueError, match="a1"):
        SuperpositionSpec(1.0, 1.0, ghz, w)
    SuperpositionSpec(1.0, 1.0, ghz, w, coeff_check=False)


def test_spec_rejects_non_finite_coefficients(ghz, w):
    # before the bounds: a nan coefficient used to fail late, in an SVD
    with pytest.raises(ValueError, match="finite"):
        SuperpositionSpec(complex("nan"), 1.0, ghz, w)


def test_spec_validates_dims(ghz):
    with pytest.raises(ValueError, match="dims"):
        SuperpositionSpec(S2, S2, ghz, library.ghz(3))


def test_specs_of_the_same_components_compare_equal(ghz, w):
    a, b = SuperpositionSpec(S2, S2, ghz, w), SuperpositionSpec(S2, S2, ghz, w)
    assert a == b and hash(a) == hash(b)
    assert a != SuperpositionSpec(S2, S2, ghz, library.w_state())
    assert len({a, b}) == 1


# ------------------------------------------------------------- cross terms


def test_cross_terms_ghz_pair(ghz):
    spec = SuperpositionSpec(S2, S2, ghz, ghz)
    t = evaluate_bounds(spec).terms
    np.testing.assert_allclose(t.s12, [1.0, 1.0, 1.0], atol=1e-12)
    assert t.f12 == pytest.approx(0.5, abs=1e-12)
    assert t.g12 == pytest.approx(0.5, abs=1e-12)


def test_cross_terms_disjoint_basis_components():
    spec = SuperpositionSpec(S2, S2, basis_state(0), basis_state(7))
    t = evaluate_bounds(spec).terms
    np.testing.assert_allclose(t.s11, [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(t.s22, [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(t.s12, [1.0, 1.0, 1.0], atol=1e-12)


def test_cross_terms_degenerate_second_coefficient(ghz, w):
    t = evaluate_bounds(SuperpositionSpec(1.0, 0.0, ghz, w)).terms
    for name in ("f22_multi", "f12_multi", "f22", "f12", "g22", "g12"):
        assert getattr(t, name) == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cross_terms_identities_on_random_specs(seed):
    spec = library.random_superposition_spec([2, 2, 2], seed)
    t = evaluate_bounds(spec).terms
    # the aggregated self terms are the weighted total negativities
    assert t.f11_multi == pytest.approx(
        abs(spec.a1) ** 2 * measures.measure_report(spec.psi1).n_multi, abs=1e-10
    )
    assert t.f22_multi == pytest.approx(
        abs(spec.a2) ** 2 * measures.measure_report(spec.psi2).n_multi, abs=1e-10
    )
    for i, j in (("11", "11"), ("22", "22"), ("12", "12")):
        assert getattr(t, f"g{i}") <= getattr(t, f"f{j}") + 1e-15
    expected = cross_term_table(spec.a1, spec.a2, t.s11, t.s22, t.s12)
    assert {name: getattr(t, name) for name in expected} == expected
    assert min(t.s11) >= 0 and min(t.s22) >= 0 and min(t.s12) >= 0


# -------------------------------------------------------------- self sums

U = 2.0**-53  # unit roundoff of a double


def near_product(dims, eps, seed):
    """A random product state plus eps times a Haar state, renormalized."""
    rng = np.random.default_rng(seed)
    factors = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
    product = np.kron(np.kron(factors[0], factors[1]), factors[2])
    amps = product / np.linalg.norm(product)
    amps = amps + eps * library.haar_random(dims, seed).amplitudes
    return new_state(dims, amps / np.linalg.norm(amps))


def mp_pair_sum(s):
    """2 sum_{i<j} s_i s_j at 40 digits."""
    with mpmath.workdps(40):
        s = [mpmath.mpf(x) for x in s]
        return 2 * mpmath.fsum(s[i] * s[j] for j in range(len(s)) for i in range(j))


def mp_singular_values(state, cut):
    with mpmath.workdps(40):
        m = mpmath.matrix(matricize(state, cut).tolist())
        return list(mpmath.svd_c(m, compute_uv=False))


def self_and_kernel(states):
    pairs = [(state, cut) for state in states for cut in bipartitions(state)]
    kernel = measures.cross_sums((state, state, cut) for state, cut in pairs)
    return pairs, _self_sums(pairs), kernel


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, None])
def test_self_sums_within_roundoff_near_product(eps):
    # A near-product cut has one large singular value and small ones.  Over
    # 6,000 such cuts, on the singular values it is given, the nonnegative
    # cumulative sum stays within 0.04 u of the exact pair sum, while the
    # cancelling form (sum s)^2 - sum s^2 is off by up to 5.4 u (3.8 u on
    # these cuts).  End to end, LAPACK's singular values add error of their
    # own to both paths: up to 2.9 u (this path) and 2.7 u (the kernel) over
    # the same cuts, hence the looser end-to-end bound.  The Schmidt path of
    # measure must give the same bits.  eps None: GHZ (d = 2, 3) and W, whose
    # singular values tie.
    if eps is None:
        states = [library.ghz(2), library.ghz(3), library.w_state()]
    else:
        states = [near_product([3, 3, 3], eps, 100 + k) for k in range(5)]
    pairs, fast, kernel = self_and_kernel(states)
    schmidt = [n for n, _ in measures.schmidt_paths(pairs)]
    for (state, cut), s, got, via_t, path in zip(
        pairs, singular_values(pairs), fast, kernel, schmidt
    ):
        assert path.hex() == got.hex()
        scale = U * state.norm_sq
        assert float(abs(mpmath.mpf(got) - mp_pair_sum(list(s)))) <= 2 * scale
        exact = mp_pair_sum(mp_singular_values(state, cut))
        assert float(abs(mpmath.mpf(got) - exact)) <= 4 * scale
        assert float(abs(mpmath.mpf(via_t) - exact)) <= 4 * scale


def test_reported_constants_in_the_papers_convention(ghz, w):
    # The reported constants are entry-wise sums of |B| over ordered generator
    # pairs: 4x the sum over the unordered pairs of bilinear_matrix, since
    # L_ji = -L_ij.  Per cut that gives W 16/3, GHZ 4 and the GHZ-W cross
    # term 4 sqrt(2/3), which enters the bounds doubled.
    def entrywise(psi, phi, cut):
        return 4.0 * float(np.abs(bilinear_matrix(psi, phi, cut)).sum())

    per_cut = [(entrywise(w, w, cut), 2.0 * entrywise(ghz, w, cut), entrywise(ghz, ghz, cut))
               for cut in bipartitions(ghz)]
    gme = [min(term) for term in zip(*per_cut)]
    total = [2.0 * sum(term) for term in zip(*per_cut)]
    np.testing.assert_allclose(gme, REPORTED_GME_CONSTANTS, rtol=0, atol=1e-12)
    np.testing.assert_allclose(total, REPORTED_TOTAL_CONSTANTS, rtol=0, atol=1e-12)
    # in that form the reported GME upper-bound curve is the exact value of chi
    c1, c2, c3 = REPORTED_GME_CONSTANTS
    for phi in (0.0, 0.5):
        for p in np.linspace(0.0, 1.0, 11):
            chi = library.z_family(p, phi).superposed()
            exact = min(entrywise(chi, chi, cut) for cut in bipartitions(chi))
            curve = c1 * (1 - p) + c2 * np.sqrt(p * (1 - p)) + c3 * p
            assert exact == pytest.approx(curve, rel=0, abs=1e-12), (phi, p)


DIMS = ([2, 2, 2], [3, 3, 3], [2, 3, 4])
SELF_SUM_INPUTS = {  # kind -> states, built on use
    "haar": lambda: [library.haar_random([d, d, d], 300 + d) for d in (2, 3, 4)]
    + [library.haar_random([2, 3, 4], 310 + k) for k in range(3)],
    "biseparable": lambda: [library.random_biseparable(Bipartition.of(dims, k), dims, 320 + k)
                            for dims in DIMS for k in range(3)],
    "near_product": lambda: [near_product(dims, 1e-4, 330 + k) for k, dims in enumerate(DIMS)],
    "degenerate_chi": lambda: [_degenerate_spec(seed).superposed() for seed in (1, 2)],
}


@pytest.mark.parametrize("kind", sorted(SELF_SUM_INPUTS))
def test_self_sums_agree_with_kernel(kind):
    _, fast, kernel = self_and_kernel(SELF_SUM_INPUTS[kind]())
    np.testing.assert_allclose(fast, kernel, rtol=0, atol=1e-12)


def test_batch_reports_equal_single_reports_bit_for_bit():
    specs = [library.random_superposition_spec(dims, 400 + k)
             for k, dims in enumerate(DIMS + DIMS)]
    specs.insert(2, _degenerate_spec(7))
    for spec, batched in zip(specs, evaluate_bounds_batch(specs)):
        alone = evaluate_bounds(spec)
        assert batched.to_dict() == alone.to_dict()
        assert batched.terms == alone.terms


def test_verify_attained_specs_attain_the_upper_bounds():
    # verify's sandwich samples 2 mod 4: t1_upper is n_exact; 6 mod 8 are
    # symmetric, so t2_upper is ngme_exact too
    drawn = {i: _sandwich_draw(42 ^ i, i) for i in (2, 6, 10, 14)}
    assert [spec.psi1.dims for spec in drawn.values()] == [(2, 2, 2)] * 2 + [(3, 3, 3)] * 2
    for i, r in zip(drawn, evaluate_bounds_batch(list(drawn.values()))):
        assert abs(r.t1_upper - r.n_exact) <= 1e-13, i
        gap = r.t2_upper - r.ngme_exact  # random cuts leave t2_upper slack
        assert abs(gap) <= 1e-13 if i % 8 == 6 else gap > 0.1, i


# ---------------------------------------------------------------- pair memo


def _report_bytes(report):
    return json.dumps([report.to_dict(), report.terms.to_dict()], sort_keys=True)


def _cold(spec):
    bounds._pair_memo.clear()
    return _report_bytes(evaluate_bounds(spec))


MEMO_PAIRS = {
    "ghz_w": lambda: (library.ghz(2), library.w_state()),
    "haar_d3": lambda: (library.haar_random([3, 3, 3], 1), library.haar_random([3, 3, 3], 2)),
    "haar_d12": lambda: (library.haar_random([12, 12, 12], 1),
                         library.haar_random([12, 12, 12], 2)),
}


@pytest.mark.parametrize("pair", sorted(MEMO_PAIRS))
def test_memo_hit_gives_the_bytes_of_a_cold_run(pair):
    psi1, psi2 = MEMO_PAIRS[pair]()
    spec = SuperpositionSpec(0.6, 0.8j, psi1, psi2)
    cold = _cold(spec)
    evaluate_bounds(SuperpositionSpec(0.8, -0.6j, psi1, psi2))  # memoizes the pair
    assert len(bounds._pair_memo) == 1
    assert _report_bytes(evaluate_bounds(spec)) == cold


def test_memo_keys_tell_components_and_their_order_apart():
    psi1, psi2, psi3 = (library.haar_random([3, 3, 3], seed) for seed in (5, 6, 7))
    specs = [SuperpositionSpec(0.6, 0.8j, a, b) for a, b in
             ((psi1, psi2), (psi1, psi3), (psi2, psi1))]
    batched = [_report_bytes(r) for r in evaluate_bounds_batch(specs)]
    assert batched == [_cold(spec) for spec in specs]


def test_memo_holds_at_most_its_size():
    size = bounds._PAIR_MEMO_SIZE
    states = [library.haar_random([2, 2, 2], seed) for seed in range(size + 4)]
    specs = [SuperpositionSpec(0.6, 0.8, a, b) for a, b in zip(states, states[1:])]
    for spec in specs:
        evaluate_bounds(spec)
        assert len(bounds._pair_memo) <= size
    assert list(bounds._pair_memo) == [bounds._pair_key(spec) for spec in specs[-size:]]


def test_memo_shared_by_threads_gives_cold_bytes():
    # threads that read, insert and evict at once may recompute a pair, but
    # never raise and never read another pair's sums
    states = [library.haar_random([3, 3, 3], seed) for seed in range(5)]
    specs = [SuperpositionSpec(0.6, 0.8j, a, b) for a, b in zip(states, states[1:])]
    cold = [_cold(spec) for spec in specs]
    work = [k % len(specs) for k in range(40)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda k: _report_bytes(evaluate_bounds(specs[k])), work))
    assert got == [cold[k] for k in work]
    assert len(bounds._pair_memo) <= bounds._PAIR_MEMO_SIZE


# ------------------------------------------------------------ total bounds


def test_total_bounds_degenerate_superposition(ghz, w):
    r = evaluate_bounds(SuperpositionSpec(1.0, 0.0, ghz, w))
    assert r.t1_upper == pytest.approx(6.0, abs=1e-12)
    assert r.t1_lower_raw == pytest.approx(6.0, abs=1e-12)
    assert r.t1_lower == pytest.approx(6.0, abs=1e-12)


def test_total_bounds_tight_for_disjoint_products():
    spec = SuperpositionSpec(S2, S2, basis_state(0), basis_state(7))
    report = evaluate_bounds(spec)
    assert report.t1_upper == pytest.approx(6.0, abs=1e-12)
    assert report.n_exact == pytest.approx(6.0, abs=1e-12)


# -------------------------------------------------------------- gme bounds


def test_gme_bounds_degenerate_superposition(ghz, w):
    r = evaluate_bounds(SuperpositionSpec(1.0, 0.0, ghz, w))
    assert r.t2_upper == pytest.approx(1.0, abs=1e-12)
    assert r.t2_lower == pytest.approx(1.0, abs=1e-12)


def test_gme_bounds_tight_for_disjoint_products():
    spec = SuperpositionSpec(S2, S2, basis_state(0), basis_state(7))
    report = evaluate_bounds(spec)
    assert report.t2_upper == pytest.approx(1.0, abs=1e-12)
    assert report.ngme_exact == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- sandwich


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 3], [2, 3, 4]])
def test_sandwich_on_random_specs(dims):
    spread = 0.0
    for seed in range(40):
        spec = library.random_superposition_spec(dims, seed)
        r = evaluate_bounds(spec)
        assert r.t1_lower_raw <= r.n_exact + 1e-9
        assert r.n_exact <= r.t1_upper + 1e-9
        assert r.t2_lower_raw <= r.ngme_exact + 1e-9
        assert r.ngme_exact <= r.t2_upper + 1e-9
        assert r.t1_lower >= 0.0 and r.t2_lower >= 0.0
        # the GME bounds are the tightest of their three forms
        t = r.terms
        uppers = (t.g11 + t.f22 + 2 * t.f12, t.f11 + t.g22 + 2 * t.f12,
                  t.f11 + t.f22 + 2 * t.g12)
        lowers = (t.g11 - t.f22 - 2 * t.f12, -t.f11 + t.g22 - 2 * t.f12,
                  -t.f11 - t.f22 + 2 * t.g12)
        assert all(r.t2_upper <= u for u in uppers)
        assert all(r.t2_lower_raw >= v for v in lowers)
        spread = max(spread, max(uppers) - min(uppers), max(lowers) - min(lowers))
    assert spread > 0.1  # the forms differ, so the choice among them shows


def _on_levels(state, low, d=4):
    """A three-qubit state placed on levels {low, low + 1} of each qudit."""
    t = np.zeros((d, d, d), dtype=complex)
    t[low:low + 2, low:low + 2, low:low + 2] = state.tensor()
    return new_state([d, d, d], t.reshape(-1))


def _seeded_specs(psi1, psi2, count=20):
    rng = np.random.default_rng(2014)
    for _ in range(count):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a1, a2 = z / np.linalg.norm(z)
        yield SuperpositionSpec(complex(a1), complex(a2), psi1, psi2)


def test_bounds_attained_on_locally_orthogonal_ghz_and_w(ghz, w):
    # orthogonal local supports on every party: each matricization of chi is
    # block diagonal, so T(psi1, psi2) has singular values s1_a s2_b and the
    # triangle inequality is an equality; GHZ and W each have the same
    # negativity on all three cuts, so the min/max lemma is one too
    for spec in _seeded_specs(_on_levels(ghz, 0), _on_levels(w, 2)):
        r = evaluate_bounds(spec)
        assert abs(r.t1_upper - r.n_exact) <= 1e-9
        assert abs(r.t2_upper - r.ngme_exact) <= 1e-9


def test_total_bound_attained_on_locally_orthogonal_haar_states():
    # unequal per-cut negativities: the t2 gap stays open, the t1 one does not
    psi1 = _on_levels(library.haar_random([2, 2, 2], 5), 0)
    psi2 = _on_levels(library.haar_random([2, 2, 2], 6), 2)
    for spec in _seeded_specs(psi1, psi2):
        r = evaluate_bounds(spec)
        assert abs(r.t1_upper - r.n_exact) <= 1e-9


def _schmidt_cross_sums(state):
    """(sum of Schmidt coefficients)^2 - ||x||^2 per cut: S(x, x) in closed form."""
    sums = []
    for cut in bipartitions(state):
        s = np.linalg.svd(matricize(state, cut), compute_uv=False)
        sums.append(float(s.sum()) ** 2 - state.norm_sq)
    return sums


def test_evaluate_bounds_at_d20_matches_schmidt_reference():
    # the dense T would be 190 x 79,800 complex per temporary here
    spec = library.random_superposition_spec([20, 20, 20], 2014)
    r = evaluate_bounds(spec)
    for got, state in ((r.terms.s11, spec.psi1), (r.terms.s22, spec.psi2)):
        np.testing.assert_allclose(got, _schmidt_cross_sums(state), rtol=0, atol=1e-9)
    chi = _schmidt_cross_sums(spec.superposed())
    assert r.n_exact == pytest.approx(2.0 * sum(chi), abs=1e-9)
    assert r.ngme_exact == pytest.approx(min(chi), abs=1e-9)


def test_exact_values_match_measures_of_normalized_state():
    spec = library.random_superposition_spec([2, 2, 2], 77)
    r = evaluate_bounds(spec)
    chi, norm_sq = normalize(spec.superposed())
    assert r.norm_sq == pytest.approx(norm_sq, abs=1e-12)
    assert r.n_exact == pytest.approx(
        norm_sq * measures.measure_report(chi).n_multi, abs=1e-9
    )
    assert r.ngme_exact == pytest.approx(
        norm_sq * measures.measure_report(chi).n_gme, abs=1e-9
    )


def test_phase_covariance_of_bounds():
    spec = library.random_superposition_spec([2, 2, 2], 5)
    rotated = SuperpositionSpec(
        spec.a1 * np.exp(0.9j), spec.a2 * np.exp(-1.3j), spec.psi1, spec.psi2
    )
    a, b = evaluate_bounds(spec), evaluate_bounds(rotated)
    # bounds depend only on coefficient magnitudes; |a e^{i theta}|
    # differs from |a| by at most one ulp, hence the tight tolerance
    for name in ("upper", "lower_raw", "lower"):
        for t in ("t1", "t2"):
            assert getattr(b, f"{t}_{name}") == pytest.approx(
                getattr(a, f"{t}_{name}"), abs=1e-12
            )


def test_exchange_symmetry(ghz, w):
    specs = [SuperpositionSpec(0.6, 0.8, ghz, w)]
    specs += [library.random_superposition_spec(dims, seed)
              for dims in ([2, 2, 2], [3, 3, 3], [2, 3, 4]) for seed in range(5)]
    for spec in specs:
        a = evaluate_bounds(spec)
        b = evaluate_bounds(SuperpositionSpec(spec.a2, spec.a1, spec.psi2, spec.psi1))
        assert a.to_dict() == b.to_dict()


# -------------------------------------------------------------- min/max lemma


def test_min_combine_symmetric_triple_equality():
    ones = (1.0, 1.0, 1.0)
    # b = c = d = (1, 1, 1): upper = min(b + c + d) = 3, lower_raw = 1 - 1 - 1
    assert combine_bounds(ones, ones) == (3.0, -1.0)
    # lo = hi, the triangle bounds of a total: 1 + 2 + 4 and -1 - 2 + 4
    assert combine_bounds((1.0, 2.0, 4.0), (1.0, 2.0, 4.0)) == (7.0, 1.0)
    # zero terms, as a product component gives
    assert combine_bounds((0.0, 0.5, 0.0), (2.0, 0.5, 0.0)) == (0.5, -0.5)


def test_min_combine_worked_example():
    # b = (1, 2, 3), c = d = (1, 1, 1) over three cuts: per-term min (1, 1, 1)
    # and max (3, 1, 1); min(b + c + d) = 3 and min(b - c - d) = -1 attain both
    assert combine_bounds((1.0, 1.0, 1.0), (3.0, 1.0, 1.0)) == (3.0, -1.0)
    # b = (1, 2, 3), c = (3, 1, 2), d = (2, 3, 1): every term spans [1, 3]
    assert combine_bounds((1.0, 1.0, 1.0), (3.0, 3.0, 3.0)) == (7.0, -5.0)


@settings(max_examples=300, deadline=None)
@given(b=positive_triples(), c=positive_triples(), d=positive_triples())
def test_min_combine_random_triples(b, c, d):
    upper, lower_raw = combine_bounds([min(b), min(c), min(d)], [max(b), max(c), max(d)])
    cuts = list(zip(b, c, d))
    assert upper >= min(x + y + z for x, y, z in cuts)
    assert lower_raw <= max(
        min(x - y - z for x, y, z in cuts),
        min(-x + y - z for x, y, z in cuts),
        min(-x - y + z for x, y, z in cuts),
    )


def test_min_combine_rejects_nonpositive():
    good = (1.0, 1.0, 1.0)
    for bad in ((-1.0, 1.0, 1.0), (1.0, float("nan"), 1.0)):
        with pytest.raises(ValueError, match=">= 0"):
            combine_bounds(bad, good)
        with pytest.raises(ValueError, match=">= 0"):
            combine_bounds(good, bad)
    with pytest.raises(ValueError, match="three"):
        combine_bounds((1.0, 1.0), good)
    with pytest.raises(ValueError, match="three"):
        combine_bounds(good, (1.0,) * 4)
    assert combine_bounds((0.0,) * 3, (0.0,) * 3) == (0.0, 0.0)


# ------------------------------------------------------------------- sweep


def test_z_sweep_endpoints_match_pure_states():
    reports = evaluate_bounds_batch([library.z_family(p) for p in (0.0, 1.0)])
    w, g = library.w_state(), library.ghz(2)
    assert reports[0].n_exact == pytest.approx(
        measures.measure_report(w).n_multi, abs=1e-10
    )
    assert reports[0].ngme_exact == pytest.approx(
        measures.measure_report(w).n_gme, abs=1e-10
    )
    assert reports[1].n_exact == pytest.approx(6.0, abs=1e-10)
    assert reports[1].ngme_exact == pytest.approx(1.0, abs=1e-10)


def test_z_sweep_frozen_midpoint_golden():
    report = evaluate_bounds(library.z_family(0.5))
    assert report.norm_sq == pytest.approx(1.0, abs=1e-12)
    assert report.ngme_exact == pytest.approx(Z_HALF_NGME, abs=1e-9)
    assert report.n_exact == pytest.approx(Z_HALF_NMULTI, abs=1e-9)
    assert report.t1_upper == pytest.approx(Z_HALF_T1_UPPER, abs=1e-9)
    assert report.t2_upper == pytest.approx(Z_HALF_T2_UPPER, abs=1e-9)


# --------------------------------------------------------------------- fit


def test_fit_recovers_exact_closed_form():
    p = np.linspace(0, 1, 21)
    c = (0.3, 0.7, 1.1)
    y = c[0] * (1 - p) + c[1] * np.sqrt(p * (1 - p)) + c[2] * p
    fit = fit_gme_closed_form(p, y)
    assert fit.c1 == pytest.approx(c[0], abs=1e-12)
    assert fit.c2 == pytest.approx(c[1], abs=1e-12)
    assert fit.c3 == pytest.approx(c[2], abs=1e-12)
    assert fit.max_residual < 1e-12


def test_fit_rejects_short_grids():
    with pytest.raises(ValueError):
        fit_gme_closed_form([0.0, 1.0], [1.0, 2.0])
    # three points fit any curve: the exact GME curve, outside the form's span
    p = np.linspace(0, 1, 4)
    ngme = np.sqrt(5 * p**2 - 4 * p + 8) / 3
    with pytest.raises(ValueError, match="at least 4 points"):
        fit_gme_closed_form(p[:3], ngme[:3])
    assert fit_gme_closed_form(p, ngme).max_residual > 1e-4
