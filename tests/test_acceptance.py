"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Ensembles are seeded, so every run checks identical inputs.
"""

import json
import time

import numpy as np
import pytest

from reference import bilinear_matrix, reduced_density
from supneg import bounds, library, measures, oracle, verify
from supneg.cli import main as cli_main
from supneg.states import (
    Bipartition,
    SuperpositionSpec,
    bipartitions,
    new_state,
    normalize,
)

S2 = 1 / np.sqrt(2)
GME_W = 2 * np.sqrt(2) / 3  # frozen oracle endpoint for the W state
GME_GHZ = 1.0  # frozen oracle endpoint for the GHZ state


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def _ensemble_state(index: int):
    dims = [2, 2, 2] if index < 250 else [3, 3, 3]
    return library.haar_random(dims, index)


@pytest.fixture(scope="module")
def sandwich_ensemble():
    """1000 random superposition specs (Haar components, unit coefficients)."""
    start = time.perf_counter()
    reports = []
    for i in range(1000):
        dims = [2, 2, 2] if i % 2 == 0 else [3, 3, 3]
        spec = library.random_superposition_spec(dims, i)
        reports.append(bounds.evaluate_bounds(spec))
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def z_sweep():
    grid = np.linspace(0.0, 1.0, 21)
    return grid, bounds.evaluate_bounds_batch([library.z_family(p, 0.0) for p in grid])


def test_criterion_01_dual_path_negativity():
    start = time.perf_counter()
    pairs = [
        (state, cut)
        for state in map(_ensemble_state, range(500))
        for cut in bipartitions(state)
    ]
    # one batched oracle call: a stacked Jacobi solve per total dimension
    n_pt = oracle.negativities_pt_oracle(pairs)
    worst_pt = worst_schmidt = 0.0
    for (state, cut), pt in zip(pairs, n_pt):
        n_so = measures.cross_sums([(state, state, cut)])[0]
        worst_pt = max(worst_pt, abs(n_so - pt))
        worst_schmidt = max(
            worst_schmidt, abs(n_so - measures.cut_measures([(state, cut)])[0].schmidt)
        )
    elapsed = time.perf_counter() - start
    passed = worst_pt <= 1e-9 and worst_schmidt <= 1e-9 and elapsed <= 60.0
    _report(
        "criterion 1 (dual-path negativity, 500 states)",
        passed,
        f"max|so-pt|={worst_pt:.3e}, max|so-schmidt|={worst_schmidt:.3e}, "
        f"runtime={elapsed:.1f}s (cap 60s)",
    )
    assert worst_pt <= 1e-9
    assert worst_schmidt <= 1e-9
    assert elapsed <= 60.0


def test_criterion_02_concurrence_identity():
    worst = 0.0
    for seed in range(500):
        state = _ensemble_state(seed)
        for cut in bipartitions(state):
            rho = reduced_density(state, cut)
            density = 2.0 * (1.0 - float((np.abs(rho) ** 2).sum()))
            generator = float((np.abs(bilinear_matrix(state, state, cut)) ** 2).sum())
            worst = max(worst, abs(generator - density))
    passed = worst <= 1e-9
    _report(
        "criterion 2 (squared-concurrence identity, 500 states)",
        passed,
        f"max|sum|B|^2 - 2(1-Tr rho^2)|={worst:.3e}",
    )
    assert worst <= 1e-9


def test_criterion_03_total_negativity_sandwich(sandwich_ensemble):
    reports, elapsed = sandwich_ensemble
    worst = max(
        max(r.t1_lower_raw - r.n_exact, r.n_exact - r.t1_upper) for r in reports
    )
    passed = worst <= 1e-9 and elapsed <= 120.0
    _report(
        "criterion 3 (total-negativity sandwich, 1000 specs)",
        passed,
        f"max violation={worst:.3e}, ensemble runtime={elapsed:.1f}s (cap 120s)",
    )
    assert worst <= 1e-9
    assert elapsed <= 120.0


def test_criterion_04_gme_negativity_sandwich(sandwich_ensemble):
    reports, _ = sandwich_ensemble
    worst = max(
        max(r.t2_lower_raw - r.ngme_exact, r.ngme_exact - r.t2_upper) for r in reports
    )
    passed = worst <= 1e-9
    _report(
        "criterion 4 (GME-negativity sandwich, 1000 specs)",
        passed,
        f"max violation={worst:.3e}",
    )
    assert worst <= 1e-9


def test_criterion_05_min_combine_lemma():
    # 1e5 random (3 terms x 3 cuts) arrays through the check verify runs
    rng = np.random.Generator(np.random.Philox(key=5))
    terms = rng.uniform(1e-6, 10.0, size=(100_000, 3, 3))
    violations = sum(v != 0.0 for v in verify._lemma_violations(terms))
    passed = violations == 0
    _report(
        "criterion 5 (min/max combination lemma, 1e5 triples)",
        passed,
        f"violations={violations}",
    )
    assert violations == 0


def test_criterion_06_biseparability_iff_zero():
    worst_bisep = 0.0
    for i in range(100):
        dims = [2, 2, 2] if i % 2 == 0 else [3, 3, 3]
        cut = Bipartition.of(dims, i % 3)
        state = library.random_biseparable(cut, dims, seed=i)
        worst_bisep = max(worst_bisep, measures.measure_report(state).n_gme)
    min_haar = np.inf
    for i in range(100):
        state = library.haar_random([2, 2, 2] if i % 2 == 0 else [3, 3, 3], 10_000 + i)
        min_haar = min(min_haar, measures.measure_report(state).n_gme)
    passed = worst_bisep <= 1e-10 and min_haar > 1e-6
    _report(
        "criterion 6 (biseparable iff zero GME negativity)",
        passed,
        f"max N_GME over biseparable={worst_bisep:.3e} (cap 1e-10), "
        f"min N_GME over Haar={min_haar:.3e} (floor 1e-6)",
    )
    assert worst_bisep <= 1e-10
    assert min_haar > 1e-6


def test_criterion_07_golden_endpoint_values():
    g = library.ghz(2)
    w = library.w_state()
    checks = {
        "N_multi(GHZ)=6": (measures.measure_report(g).n_multi, 6.0, 1e-10),
        "N_GME(GHZ)=1": (measures.measure_report(g).n_gme, 1.0, 1e-10),
        "C_GME(GHZ)=1": (measures.measure_report(g).c_gme, 1.0, 1e-10),
        "N_multi(W)=4sqrt2": (measures.measure_report(w).n_multi, 4 * np.sqrt(2), 1e-10),
        "N_GME(W)=2sqrt2/3": (measures.measure_report(w).n_gme, GME_W, 1e-10),
    }
    ket000, ket111 = (new_state([2, 2, 2], np.eye(8)[k]) for k in (0, 7))
    chi = SuperpositionSpec(S2, S2, ket000, ket111).superposed()
    checks["N_GME(|000>+|111>)=1"] = (measures.measure_report(chi).n_gme, 1.0, 1e-10)
    components_zero = max(
        measures.measure_report(new_state([2, 2, 2], np.eye(8)[k])).n_gme for k in (0, 7)
    )
    failures = {
        name: (got, want)
        for name, (got, want, tol) in checks.items()
        if abs(got - want) > tol
    }
    passed = not failures and components_zero <= 1e-12
    _report(
        "criterion 7 (golden endpoint values)",
        passed,
        "all endpoints match" if passed else f"failures={failures}",
    )
    assert not failures
    assert components_zero <= 1e-12


def test_criterion_08a_z_sweep_sandwiches(z_sweep):
    grid, reports = z_sweep
    worst = 0.0
    for r in reports:
        worst = max(
            worst,
            r.t1_lower_raw - r.n_exact,
            r.n_exact - r.t1_upper,
            r.t2_lower_raw - r.ngme_exact,
            r.ngme_exact - r.t2_upper,
        )
    passed = worst <= 1e-9
    _report(
        "criterion 8a (GHZ/W sweep sandwiches, 21 points)",
        passed,
        f"max violation={worst:.3e}",
    )
    assert worst <= 1e-9


def test_criterion_08b_z_sweep_gap_report(z_sweep):
    grid, reports = z_sweep
    gaps = [r.t2_gap for r in reports]
    max_gap = max(gaps)
    argmax = grid[int(np.argmax(gaps))]
    passed = min(gaps) >= -1e-9 and abs(max_gap - 0.6512273221249069) <= 1e-9
    _report(
        "criterion 8b (GME upper-bound gap over sweep)",
        passed,
        f"max t2_gap={max_gap:.6f} at p={argmax:.2f}; all gaps >= -1e-9",
    )
    assert min(gaps) >= -1e-9
    assert max_gap == pytest.approx(0.6512273221249069, abs=1e-9)


def test_criterion_08c_z_sweep_closed_form_fit(z_sweep):
    # chi = sqrt(p) GHZ + sqrt(1-p) W is permutation symmetric, so its three
    # cuts agree and each is a qubit-vs-rest cut: N_GME = 2 sqrt(det rho_A).
    # With a^2 = p/2 and b^2 = (1-p)/3, rho_A = [[a^2+2b^2, ab], [ab, a^2+b^2]]
    # and det rho_A = a^4 + 2a^2b^2 + 2b^4 = (5p^2 - 4p + 8)/36, so the exact
    # curve is sqrt(5p^2 - 4p + 8)/3, with endpoints 2sqrt2/3 (W) and 1 (GHZ).
    # That curve is not in the span of {1-p, sqrt(p(1-p)), p}, but the
    # paper's GME upper bound is: with all cuts alike, t2_upper reduces to
    # (1-p) N_GME(W) + p N_GME(GHZ) + 2 sqrt(p(1-p)) S12, and it meets the
    # exact curve at both endpoints.  So the closed form is fitted to
    # t2_upper and must be exact there, while the exact curve is checked
    # against its analytic form.
    grid, reports = z_sweep
    fit = bounds.fit_gme_closed_form(grid, [r.t2_upper for r in reports])
    dev_c1 = abs(fit.c1 - GME_W)
    dev_c3 = abs(fit.c3 - GME_GHZ)
    exact = np.array([r.ngme_exact for r in reports])
    dev_ends = max(abs(exact[0] - GME_W), abs(exact[-1] - GME_GHZ))
    dev_curve = float(np.abs(exact - np.sqrt(5 * grid**2 - 4 * grid + 8) / 3).max())
    passed = (
        dev_c1 <= 1e-6
        and dev_c3 <= 1e-6
        and fit.max_residual <= 1e-9
        and dev_ends <= 1e-9
        and dev_curve <= 1e-9
    )
    _report(
        "criterion 8c (fit endpoints match frozen oracle values)",
        passed,
        f"t2_upper fit: |c1-2sqrt2/3|={dev_c1:.3e}, |c3-1|={dev_c3:.3e} (tolerance 1e-6), "
        f"max residual={fit.max_residual:.3e} (cap 1e-9); exact curve: "
        f"endpoints {dev_ends:.3e}, vs sqrt(5p^2-4p+8)/3 {dev_curve:.3e} (cap 1e-9)",
    )
    assert dev_c1 <= 1e-6
    assert dev_c3 <= 1e-6
    assert fit.max_residual <= 1e-9
    assert dev_ends <= 1e-9
    assert dev_curve <= 1e-9


def test_criterion_09_performance():
    timings = {}
    for d, cap in ((4, 1.0), (6, 10.0)):
        spec = library.random_superposition_spec([d, d, d], seed=d)
        start = time.perf_counter()
        chi, _ = normalize(spec.superposed())
        measures.measure_report(chi)
        bounds.evaluate_bounds(spec)
        timings[d] = time.perf_counter() - start
        assert timings[d] <= cap
    _report(
        "criterion 9 (single-spec runtime)",
        True,
        f"d=4: {timings[4] * 1000:.0f}ms (cap 1s), d=6: {timings[6] * 1000:.0f}ms (cap 10s)",
    )


def test_criterion_10_determinism(tmp_path):
    va, vb = tmp_path / "va.json", tmp_path / "vb.json"
    assert cli_main(["verify", "--samples", "10", "--seed", "42", "--out", str(va)]) == 0
    assert cli_main(["verify", "--samples", "10", "--seed", "42", "--out", str(vb)]) == 0
    verify_ok = va.read_bytes() == vb.read_bytes()

    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    assert cli_main(["sweep", "--grid", "0,1,21", "--out", str(sa)]) == 0
    assert cli_main(["sweep", "--grid", "0,1,21", "--out", str(sb)]) == 0
    sweep_ok = sa.read_bytes() == sb.read_bytes()

    passed = verify_ok and sweep_ok
    _report(
        "criterion 10 (byte-identical reruns)",
        passed,
        f"verify summaries identical={verify_ok}, sweep CSVs identical={sweep_ok}",
    )
    assert verify_ok
    assert sweep_ok
