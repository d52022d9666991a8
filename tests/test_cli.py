import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import supneg
import supneg.bounds as bounds
import supneg.cli as cli
import supneg.measures as measures
import supneg.oracle as oracle
import supneg.verify as verify
from supneg import library
from supneg.cli import (
    CliError,
    main,
    parse_complex,
    parse_named_state,
    run_verify,
)
from supneg.states import Bipartition, PureState, new_state, normalize

S2 = 1 / np.sqrt(2)


def run_module(*argv, **env):
    """``python -m supneg.cli`` in a child that imports the package under test,
    with ``env`` added to its environment."""
    src = str(Path(supneg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "supneg.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- parsing


@pytest.mark.parametrize(
    "text,value",
    [
        ("0.7071", 0.7071 + 0j),
        ("0.6+0.8i", 0.6 + 0.8j),
        ("-0.3i", -0.3j),
        ("1e-2-3i", 0.01 - 3j),
        ("0.5j", 0.5j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["abc", "1+2", "nan", "inf+1i"])
def test_parse_complex_rejects(text):
    with pytest.raises(CliError):
        parse_complex(text)


def test_parse_named_states():
    np.testing.assert_allclose(
        parse_named_state("ghz").amplitudes, library.ghz(2).amplitudes
    )
    assert parse_named_state("ghz:d=3").dims == (3, 3, 3)
    np.testing.assert_allclose(
        parse_named_state("w").amplitudes, library.w_state().amplitudes
    )
    z = parse_named_state("z:p=0.3,phi=0.5")
    assert z.is_normalized
    spec = library.z_family(0.3, phi=0.5)
    np.testing.assert_allclose(z.amplitudes, spec.superposed().amplitudes, atol=1e-12)


@pytest.mark.parametrize(
    "text", ["ghz2", "z", "z:q=1", "ghz:d=one", "w:extra=1", "z:p=2"]
)
def test_parse_named_state_rejects(text):
    with pytest.raises(CliError):
        parse_named_state(text)


# ----------------------------------------------------------------- measure


def test_measure_named_ghz(capsys):
    code, out, _ = run_cli(capsys, "measure", "--named", "ghz")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_gme"] == pytest.approx(1.0, abs=1e-10)
    assert payload["n_multi"] == pytest.approx(6.0, abs=1e-10)


def test_measure_named_w(capsys):
    code, out, _ = run_cli(capsys, "measure", "--named", "w")
    payload = json.loads(out)
    assert code == 0
    assert payload["n_gme"] == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-10)
    assert payload["n_multi"] == pytest.approx(4 * np.sqrt(2), abs=1e-10)


def test_measure_product_state_file_all_zero(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(new_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0]).to_dict()))
    code, out, _ = run_cli(capsys, "measure", "--file", str(path))
    assert code == 0
    payload = json.loads(out)
    for key in ("n_a", "n_b", "n_c", "n_multi", "n_gme", "c2_multi", "c_gme"):
        assert payload[key] == pytest.approx(0.0, abs=1e-10)


def test_measure_file_matches_named(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(library.w_state().to_dict()))
    code_a, out_a, _ = run_cli(capsys, "measure", "--file", str(path))
    code_b, out_b, _ = run_cli(capsys, "measure", "--named", "w")
    pa, pb = json.loads(out_a), json.loads(out_b)
    for key in pb:
        if key == "diagnostics":
            continue
        assert pa[key] == pytest.approx(pb[key], abs=1e-12)


def test_measure_unnormalized_file_warns_and_normalizes(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps(
            {
                "dims": [2, 2, 2],
                "amplitudes": [[2.0, 0.0]] + [[0.0, 0.0]] * 6 + [[2.0, 0.0]],
            }
        )
    )
    with pytest.warns(UserWarning, match="normalizing"):
        code = main(["measure", "--file", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_gme"] == pytest.approx(1.0, abs=1e-10)


def test_measure_invalid_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "measure", "--file", str(bad))
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "measure", "--file", str(tmp_path / "missing.json"))
    assert code == 2


def _ghz_lines() -> list[str]:
    return json.dumps(library.ghz(2).to_dict(), indent=1).split("\n")


def test_state_file_with_utf8_bom_exits_2(capsys, tmp_path):
    # a state file is read as text: json.loads of the bytes would skip the BOM
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + "\n".join(_ghz_lines()).encode())
    code, _, err = run_cli(capsys, "measure", "--file", str(path))
    assert code == 2
    assert "Unexpected UTF-8 BOM (decode using utf-8-sig)" in err


def test_state_file_with_crlf_newlines(capsys, tmp_path):
    lines = _ghz_lines()
    path = tmp_path / "crlf.json"
    path.write_bytes("\r\n".join(lines).encode())
    code, out, _ = run_cli(capsys, "measure", "--file", str(path))
    assert (code, out) == run_cli(capsys, "measure", "--named", "ghz")[:2]
    # truncated: the error's offset counts the newline-translated text, where a
    # read of the bytes would count each CR too
    head = "\n".join(lines[:12]) + "\n"
    path.write_bytes(head.replace("\n", "\r\n").encode())
    with pytest.raises(json.JSONDecodeError) as text_error:
        json.loads(head)
    with pytest.raises(json.JSONDecodeError) as bytes_error:
        json.loads(head.replace("\n", "\r\n").encode())
    assert text_error.value.pos < bytes_error.value.pos
    code, _, err = run_cli(capsys, "measure", "--file", str(path))
    assert code == 2
    assert err == f"error: invalid state file {str(path)!r}: {text_error.value}\n"


def test_state_file_nested_too_deeply_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"dims": [2, 2, 2], "amplitudes": %s%s}' % ("[" * 1500, "]" * 1500))
    message = f"error: invalid state file {str(path)!r}: JSON nested too deeply to decode\n"
    for argv in (["measure", "--file", str(path)],
                 ["bounds", "--s1", str(path), "--s2", "named:ghz", "--p", "0.5"]):
        assert run_cli(capsys, *argv)[::2] == (2, message)


@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 2, 2]])
def test_non_tripartite_state_file_names_itself(capsys, tmp_path, dims):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(library.haar_random(dims, 1).to_dict()))
    message = f"error: state file {str(path)!r} has dims {tuple(dims)}"
    for argv in (["measure", "--file", str(path)],
                 ["bounds", "--s1", "named:ghz", "--s2", str(path), "--p", "0.5"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(message)


def test_measure_named_unknown_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, "measure", "--named", "ghz:d=3,bogus=1")
    assert code == 2
    assert "unused parameters" in err and "bogus" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_measure_non_finite_file_exits_2(capsys, tmp_path, value):
    path = tmp_path / "bad.json"
    amps = [[0.0, 0.0]] * 8
    amps[3] = [1.0, value]
    # json writes the NaN and Infinity literals
    path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": amps}))
    code, _, err = run_cli(capsys, "measure", "--file", str(path))
    assert code == 2
    assert "non-finite amplitudes at indices [3]" in err


_HUGE = [
    [1e200, 0], [1e199, 0], [0, 3e199], [2e199, -1e199],
    [0, 0], [5e198, 0], [0, 0], [1e199, 1e199],
]


def _leaves(x):
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in _leaves(x[k])]
    if isinstance(x, list):
        return [v for item in x for v in _leaves(item)]
    return [x]


def test_measure_huge_finite_amplitudes_exits_0(capsys, tmp_path):
    # the squared norm overflows; the measures are those of the normalized state
    reports = []
    for scale in (1.0, 1e200):
        path = tmp_path / f"state_{scale:g}.json"
        amps = [[re / scale, im / scale] for re, im in _HUGE]
        path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": amps}))
        with pytest.warns(UserWarning, match="normalizing"):
            code, out, err = run_cli(capsys, "measure", "--file", str(path))
        assert code == 0, err
        reports.append(json.loads(out))
    huge, unit = reports
    assert huge.keys() == unit.keys()
    np.testing.assert_allclose(_leaves(huge), _leaves(unit), rtol=0, atol=1e-12)


def test_measure_huge_finite_amplitudes_warning_names_inf(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": _HUGE}))
    proc = run_module("measure", "--file", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "has squared norm inf; normalizing" in proc.stderr
    assert "squared norm nan" not in proc.stderr


_ONE = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
_PAIRS = "amplitudes must be [re, im] pairs of numbers"


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"dims": [2, 2, 2], "amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}, _PAIRS),
        ({"dims": 8, "amplitudes": _ONE}, "dims must be a list of integers"),
        ({"dims": [2, 2, 2], "amplitudes": None}, _PAIRS),
        ({"dims": [2, 2, 2], "amplitudes": [[None, 0]] + _ONE[1:]}, _PAIRS),
        ({"dims": [2.5, 2, 2], "amplitudes": _ONE}, "dims must be a list of integers"),
        ({"dims": [True, 2, 2], "amplitudes": _ONE}, "dims must be a list of integers"),
        ({"dims": [2, 2, 2], "amplitudes": [[True, 0]] + _ONE[1:]}, _PAIRS),
    ],
    ids=["bare-numbers", "scalar-dims", "null-amplitudes", "null-in-pair",
         "fractional-dims", "boolean-dims", "boolean-in-pair"],
)
def test_measure_malformed_file_exits_2(capsys, tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "measure", "--file", str(path))
    assert code == 2
    assert message in err


def test_bounds_bare_number_amplitudes_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": [1] + [0] * 7}))
    code, _, err = run_cli(
        capsys, "bounds", "--s1", str(path), "--s2", "named:w", "--p", "0.5"
    )
    assert code == 2
    assert _PAIRS in err


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)
)


def _well_shaped_payloads():
    """Integer dims with a matching number of [re, im] pairs of any numbers."""
    real = st.one_of(st.integers(-2, 2), st.floats())
    return st.lists(st.integers(2, 3), min_size=3, max_size=3).flatmap(
        lambda d: st.fixed_dictionaries({
            "dims": st.just(d),
            "amplitudes": st.lists(
                st.lists(real, min_size=2, max_size=2),
                min_size=int(np.prod(d)), max_size=int(np.prod(d)),
            ),
        })
    )


_PAYLOADS = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.fixed_dictionaries({
        "dims": st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4)),
        "amplitudes": st.one_of(
            _JSON_SCALARS,
            st.lists(st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3)),
                     max_size=9),
        ),
    }),
    _well_shaped_payloads(),
)


@settings(deadline=None)
@given(payload=_PAYLOADS)
def test_any_state_payload_exits_0_or_2(payload):
    # called in-process: an exception escaping main is the traceback a user sees
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "state.json")
        Path(path).write_text(json.dumps(payload))
        runs = (
            ["measure", "--file", path],
            ["bounds", "--s1", path, "--s2", "named:w", "--p", "0.5"],
        )
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                codes = [main(argv) for argv in runs]
    assert set(codes) <= {0, 2}


def test_measure_csv_format(capsys):
    code, out, _ = run_cli(capsys, "measure", "--named", "ghz", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("n_a,n_b,n_c,n_multi,n_gme,c2_a")
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert values["n_multi"] == pytest.approx(6.0, abs=1e-10)


# ------------------------------------------------------------------ bounds


def test_bounds_ghz_w_sandwich(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--s1", "named:ghz", "--s2", "named:w", "--p", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t2_lower"] <= payload["ngme_exact"] + 1e-9
    assert payload["ngme_exact"] <= payload["t2_upper"] + 1e-9
    assert payload["ngme_exact"] == pytest.approx(np.sqrt(29) / 6, abs=1e-9)


def test_bounds_rounded_coefficients_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "bounds", "--s1", "named:ghz", "--s2", "named:w",
        "--a1", "0.7071", "--a2", "0.7071",
    )
    assert code == 2
    assert "off unit" in err


def test_bounds_no_coeff_check_accepts_rounded(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds", "--s1", "named:ghz", "--s2", "named:w",
        "--a1", "0.7071", "--a2", "0.7071", "--no-coeff-check",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ngme_exact"] == pytest.approx(np.sqrt(29) / 6, abs=1e-4)


@pytest.mark.parametrize(
    "coefficients",
    [
        ("--a1", "1e200", "--a2", "1"),
        ("--a1", "1e200", "--a2", "1", "--no-coeff-check"),
        ("--a1", "1e308+1e308i", "--a2", "0"),
    ],
    ids=["squared-modulus", "squared-modulus-unchecked", "complex-modulus"],
)
def test_bounds_overflowing_coefficients_exit_2(capsys, coefficients):
    # |a1|^2 overflows the float range: a message, not an OverflowError
    code, out, err = run_cli(
        capsys, "bounds", "--s1", "named:ghz", "--s2", "named:w", *coefficients
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "overflows" in err


def test_bounds_degenerate_second_component(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds", "--s1", "named:ghz", "--s2", "named:w", "--a1", "1", "--a2", "0",
    )
    payload = json.loads(out)
    assert payload["t1_upper"] == pytest.approx(payload["n_exact"], abs=1e-10)
    assert payload["t1_lower"] == pytest.approx(payload["n_exact"], abs=1e-10)


def test_bounds_disjoint_product_components(capsys, tmp_path):
    p0, p7 = tmp_path / "p0.json", tmp_path / "p7.json"
    p0.write_text(json.dumps(new_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 0]).to_dict()))
    p7.write_text(json.dumps(new_state([2, 2, 2], [0, 0, 0, 0, 0, 0, 0, 1]).to_dict()))
    code, out, _ = run_cli(
        capsys,
        "bounds", "--s1", str(p0), "--s2", f"file:{p7}", "--p", "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_exact"] == pytest.approx(6.0, abs=1e-10)


def test_bounds_on_one_pair_parses_each_file_once(capsys, tmp_path, monkeypatch):
    # two calls of a coefficient sweep in one process: the second reads both
    # files again but parses neither, and the kernel runs on the pair once
    paths = [tmp_path / f"psi{seed}.json" for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        path.write_text(json.dumps(library.haar_random([3, 3, 3], seed).to_dict()))
    parses, kernel = [], []
    _wrap(monkeypatch, supneg.states, "state_from_dict", lambda s: parses.append(s) or s)
    _wrap(monkeypatch, bounds, "cross_sums", lambda sums: kernel.append(len(sums)) or sums)
    argv = ["bounds", "--s1", str(paths[0]), "--s2", str(paths[1]), "--p", "0.3",
            "--dump-terms"]
    first = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv) == first
    assert first[0] == 0
    assert len(parses) == 2
    assert [n for n in kernel if n] == [3]


def test_bounds_dump_terms(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds", "--s1", "named:ghz", "--s2", "named:w", "--p", "0.5",
        "--dump-terms",
    )
    payload = json.loads(out)
    terms = payload["cross_terms"]
    np.testing.assert_allclose(terms["s11"], [1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(
        terms["s22"], [2 * np.sqrt(2) / 3] * 3, atol=1e-12
    )
    assert terms["g12"] <= terms["f12"] + 1e-15


def test_bounds_requires_coefficients(capsys):
    code, _, err = run_cli(capsys, "bounds", "--s1", "named:ghz", "--s2", "named:w")
    assert code == 2


@pytest.mark.parametrize(
    "states, coeffs",
    [
        (("named:ghz", "named:w"), ("--a1", "1", "--a2", "0")),
        (("missing1.json", "missing2.json"), ("--a2", "0")),
    ],
)
def test_bounds_p_conflicts_with_a1_a2(capsys, tmp_path, monkeypatch, states, coeffs):
    # the missing files show that the conflict is reported before any state is read
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "bounds", "--s1", states[0], "--s2", states[1], "--p", "0.5", *coeffs
    )
    assert code == 2
    assert out == ""
    assert "--p" in err and "--a1" in err and "cannot read" not in err


# ------------------------------------------------------------------- sweep


def test_sweep_row_count_and_gap(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--grid", "0,1,11", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 12
    header = lines[0].split(",")
    gap_idx = header.index("t2_gap")
    assert all(float(line.split(",")[gap_idx]) >= -1e-9 for line in lines[1:])
    sidecar = json.loads((tmp_path / "sweep.csv.fit.json").read_text())
    assert set(sidecar) == {"grid", "max_t2_gap", "ngme_exact_max_deviation",
                            "t1_upper", "t2_upper"}
    for curve in ("t1_upper", "t2_upper"):
        assert set(sidecar[curve]) == {"fit", "reported_over_4_over_fit"}
        assert set(sidecar[curve]["fit"]) == {"c1", "c2", "c3", "max_residual"}


def test_sweep_csv_format(capsys):
    code, text, _ = run_cli(capsys, "sweep", "--grid", "0,1,11")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert len(lines) == 12  # header + 11 rows
    # values round-trip at full precision
    report = supneg.evaluate_bounds(library.z_family(0.0))
    first = dict(zip(cli.SWEEP_COLUMNS, map(float, lines[1].split(","))))
    assert first["ngme_exact"] == report.ngme_exact
    assert first["t2_gap"] == report.t2_gap


@pytest.mark.parametrize("phi", ["0", "0.3"])
def test_sweep_sidecar_reads_the_reported_constants(capsys, tmp_path, phi):
    # the constants over 4 (ordered generator pairs) over each upper-bound fit:
    # sqrt 2, W's entry-wise sum of |B| over its trace norm, sqrt 2 and 1
    fit_path = tmp_path / "fit.json"
    assert run_cli(capsys, "sweep", "--phi", phi, "--sidecar", str(fit_path))[0] == 0
    sidecar = json.loads(fit_path.read_text())
    assert sidecar["grid"]["phi"] == float(phi)
    for curve in ("t1_upper", "t2_upper"):
        ratios = sidecar[curve]["reported_over_4_over_fit"]
        np.testing.assert_allclose(ratios, [math.sqrt(2), math.sqrt(2), 1.0], rtol=0, atol=1e-12)
        assert sidecar[curve]["fit"]["max_residual"] <= 1e-12
    assert sidecar["ngme_exact_max_deviation"] <= 1e-12


def test_sweep_endpoints_match_measure(capsys):
    code, csv_text, _ = run_cli(capsys, "sweep", "--grid", "0,1,2")
    assert code == 0
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    w_row = dict(zip(header, map(float, lines[1].split(","))))
    ghz_row = dict(zip(header, map(float, lines[2].split(","))))
    assert w_row["ngme_exact"] == pytest.approx(
        measures.measure_report(library.w_state()).n_gme, abs=1e-10
    )
    assert ghz_row["n_exact"] == pytest.approx(6.0, abs=1e-10)


def test_sweep_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "sweep", "--grid", "0,1,7", "--out", str(a))
    run_cli(capsys, "sweep", "--grid", "0,1,7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_sidecar_without_out(capsys, tmp_path):
    code, csv_text, _ = run_cli(capsys, "sweep", "--grid", "0,1,4",
                                "--sidecar", str(tmp_path / "fit.json"))
    assert code == 0
    run_cli(capsys, "sweep", "--grid", "0,1,4", "--out", str(tmp_path / "s.csv"))
    assert csv_text == (tmp_path / "s.csv").read_text()  # the CSV stays on stdout
    fit = (tmp_path / "fit.json").read_bytes()
    assert fit == (tmp_path / "s.csv.fit.json").read_bytes()


def test_sweep_rejects_short_grid_before_writing(capsys, tmp_path, monkeypatch):
    # three points fit any curve of the sidecar's three-coefficient form
    # exactly, so the fit needs four: refuse up front
    monkeypatch.chdir(tmp_path)
    for target in (["--out", "s.csv"], ["--sidecar", "f.json"]):
        code, out, err = run_cli(capsys, "sweep", "--grid", "0,1,3", *target)
        assert (code, out) == (2, "")
        assert "at least 4" in err
        assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_bad_grids(capsys):
    assert run_cli(capsys, "sweep", "--grid", "0,1")[0] == 2
    assert run_cli(capsys, "sweep", "--grid", "0,2,5")[0] == 2
    assert run_cli(capsys, "sweep", "--grid", "0,1,0")[0] == 2


# ------------------------------------------------------------------ verify


def test_verify_passes_and_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run_cli(
        capsys, "verify", "--samples", "8", "--seed", "42", "--out", str(a)
    )
    code2, _, _ = run_cli(
        capsys, "verify", "--samples", "8", "--seed", "42", "--out", str(b)
    )
    assert code1 == 0 and code2 == 0
    assert a.read_bytes() == b.read_bytes()
    summary = json.loads(a.read_text())
    expected_checks = {
        "dual_path_negativity",
        "concurrence_identity",
        "t1_sandwich",
        "t2_sandwich",
        "min_combine_lemma",
        "biseparable_gme_zero",
        "haar_gme_positive",
    }
    assert set(summary) == expected_checks
    for entry in summary.values():
        assert entry["pass"] is True
        assert entry["samples"] == 8


def test_verify_degenerate_superposition_warns():
    with pytest.warns(UserWarning, match="near-zero norm"):
        summary, checks = run_verify(samples=1, seed=42, tol=1e-9)
    assert all(c.passed for c in checks)


def test_verify_detects_injected_convention_bug(capsys, tmp_path, monkeypatch):
    original = measures.t_matrix
    monkeypatch.setattr(measures, "t_matrix", lambda *a, **k: 0.5 * original(*a, **k))
    out = tmp_path / "summary.json"
    code, _, err = run_cli(
        capsys, "verify", "--samples", "4", "--seed", "7", "--out", str(out)
    )
    assert code == 1
    summary = json.loads(out.read_text())
    assert summary["dual_path_negativity"]["pass"] is False
    # halved generators halve the negativity: violation is O(N/2), not noise
    assert summary["dual_path_negativity"]["max_violation"] > 0.1
    replay = tmp_path / "supneg_violation_dual_path_negativity.json"
    assert replay.exists()
    payload = json.loads(replay.read_text())
    assert payload["inputs"]["state"]["dims"] == [2, 2, 2] or payload["inputs"][
        "state"
    ]["dims"] == [3, 3, 3]
    assert "dual_path_negativity" in err


def test_verify_reports_worst_sample_and_margin(capsys, tmp_path, monkeypatch):
    original = measures.t_matrix
    monkeypatch.setattr(measures, "t_matrix", lambda *a, **k: 0.5 * original(*a, **k))
    out = tmp_path / "summary.json"
    tol = 1e-9
    code, _, _ = run_cli(
        capsys, "verify", "--samples", "4", "--seed", "7", "--tol", str(tol),
        "--out", str(out),
    )
    assert code == 1
    summary = json.loads(out.read_text())
    for name, entry in summary.items():
        limit = 0.0 if name == "haar_gme_positive" else tol
        assert entry["margin"] == limit - entry["max_violation"]
        assert entry["worst_sample"] in range(4)
    entry = summary["dual_path_negativity"]
    assert entry["margin"] < 0
    replay = json.loads(
        (tmp_path / "supneg_violation_dual_path_negativity.json").read_text()
    )
    assert entry["worst_sample"] == replay["inputs"]["sample"]


def test_worst_sample_ignores_rounding_level_moves(monkeypatch):
    def perturbed(violations_of, sign):
        # +-1e-14 on every violation; a clipped (exactly zero) one stays zero
        def violations(samples):
            steps = sign * np.random.default_rng(42).choice([-1e-14, 1e-14], len(samples))
            return [
                tuple(v + step if v else v for v in vs)
                for step, vs in zip(steps, violations_of(samples))
            ]

        return violations

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        before, _ = run_verify(samples=16, seed=42, tol=1e-9)
        originals = verify.CHECKS
        # one of the two sign patterns lowers the largest violation, whichever it is
        for sign in (1.0, -1.0):
            checks = tuple(c._replace(violations=perturbed(c.violations, sign))
                           for c in originals)
            monkeypatch.setattr(verify, "CHECKS", checks)
            after, _ = run_verify(samples=16, seed=42, tol=1e-9)
            dual = "dual_path_negativity"
            assert after[dual]["max_violation"] != before[dual]["max_violation"]
            for name, entry in before.items():
                assert after[name]["worst_sample"] == entry["worst_sample"], name
                assert after[name]["pass"] == entry["pass"], name


@pytest.mark.parametrize("gap, worst", [(0.5e-12, 0), (2e-12, 1), (1e-9, 1)])
def test_worst_sample_floor_is_the_boundary(monkeypatch, gap, worst):
    # two passing violations: within WORST_SAMPLE_FLOOR = 1e-12 of each other
    # the first is the worst sample, further apart the larger one
    planted = [1e-8, 1e-8 + gap]
    check = verify.Check(("planted",), lambda key, i: planted[i],
                         lambda samples: [(v,) for v in samples], lambda v: {})
    monkeypatch.setattr(verify, "CHECKS", (check,))
    summary, _ = run_verify(samples=2, seed=0, tol=1e-6)
    assert summary["planted"]["worst_sample"] == worst


def test_verify_builds_replay_inputs_only_when_written(monkeypatch):
    to_dict = PureState.to_dict
    serialized = []
    monkeypatch.setattr(PureState, "to_dict", lambda s: serialized.append(s) or to_dict(s))
    with pytest.warns(UserWarning, match="near-zero norm"):
        _, checks = run_verify(samples=40, seed=42, tol=1e-9)
    assert all(c.passed for c in checks) and serialized == []
    # a planted check failing on samples 2 and 4: one replay, of the worst sample
    failing, replayed = {2: 2e-9, 4: 3e-9}, []
    planted = verify.Check(("planted",), lambda key, i: i,
                           lambda samples: [(failing.get(i, 0.0),) for i in samples],
                           lambda i: replayed.append(i) or {"planted": i})
    monkeypatch.setattr(verify, "CHECKS", (*verify.CHECKS, planted))
    with pytest.warns(UserWarning, match="near-zero norm"):
        _, checks = run_verify(samples=8, seed=42, tol=1e-9)
    result = checks[-1]
    assert (result.name, result.passed, result.worst_sample) == ("planted", False, 4)
    assert replayed == [4] and serialized == []
    assert result.worst == {"sample": 4, "planted": 4}


def test_verify_haar_block_does_not_outlive_its_run(monkeypatch):
    with pytest.warns(UserWarning, match="near-zero norm"):
        summary, _ = run_verify(samples=4, seed=7, tol=1e-9)
    assert summary["dual_path_negativity"]["pass"] is True
    original = measures.t_matrix
    monkeypatch.setattr(measures, "t_matrix", lambda *a, **k: 0.5 * original(*a, **k))
    # same (samples, seed): a block kept from the first run would pass again
    with pytest.warns(UserWarning, match="near-zero norm"):
        summary, _ = run_verify(samples=4, seed=7, tol=1e-9)
    assert summary["dual_path_negativity"]["pass"] is False


def _shift_pt_oracle(monkeypatch, pair, shift):
    """Add ``shift`` to the PT-oracle negativity of one (state, cut) pair."""
    original = oracle.negativities_pt_oracle

    def shifted(pairs):
        negativities = original(pairs)
        negativities[pair] += shift
        return negativities

    monkeypatch.setattr(oracle, "negativities_pt_oracle", shifted)


def _failing_checks():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, checks = run_verify(samples=4, seed=42, tol=1e-9)
    return {c.name for c in checks if not c.passed}


def test_verify_fails_a_nan_after_the_first_sample(monkeypatch):
    # pair 5 is cut C|AB of sample 1: the built-in max skips a nan that is not first
    _shift_pt_oracle(monkeypatch, 5, math.nan)
    with pytest.warns(UserWarning, match="near-zero norm"):
        summary, checks = run_verify(samples=4, seed=42, tol=1e-9)
    entry = summary["dual_path_negativity"]
    assert entry["pass"] is False
    assert math.isnan(entry["max_violation"]) and math.isnan(entry["margin"])
    assert entry["worst_sample"] == 1
    assert {c.name for c in checks if not c.passed} == {"dual_path_negativity"}


def test_verify_cli_exits_1_on_a_nan_sample(capsys, tmp_path, monkeypatch):
    _shift_pt_oracle(monkeypatch, 5, math.nan)
    monkeypatch.chdir(tmp_path)  # where the replay file goes
    code, out, _ = run_cli(capsys, "verify", "--samples", "4", "--seed", "42")
    assert code == 1
    assert json.loads(out)["dual_path_negativity"]["pass"] is False
    replay = json.loads((tmp_path / "supneg_violation_dual_path_negativity.json").read_text())
    assert replay["inputs"]["sample"] == 1
    assert math.isnan(replay["max_violation"])
    assert [p.name for p in tmp_path.iterdir()] == ["supneg_violation_dual_path_negativity.json"]


def test_verify_flags_an_oracle_fault_alone(monkeypatch):
    # the Schmidt comparison and the other checks do not see the oracle
    _shift_pt_oracle(monkeypatch, 5, 1e-6)
    assert _failing_checks() == {"dual_path_negativity"}


def test_verify_flags_a_schmidt_fault_alone(monkeypatch):
    # measures' binding only: the bounds' self sums keep the true pair sum
    original = measures.pair_sum
    monkeypatch.setattr(measures, "pair_sum", lambda x: (1 + 1e-6) * original(x))
    assert _failing_checks() == {"dual_path_negativity"}


def _wrap(monkeypatch, module, name, transform):
    """Rebind ``module.name`` to ``transform`` of its result."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: transform(original(*args)))


def test_verify_fails_a_nan_biseparable_cut_after_the_first(monkeypatch):
    # pair 1 is cut B|AC of sample 0: the built-in min skips a nan that is not first
    _wrap(monkeypatch, verify, "singular_values",
          lambda svals: svals[:1] + [math.nan * svals[1]] + svals[2:])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        summary, checks = run_verify(samples=4, seed=42, tol=1e-9)
    entry = summary["biseparable_gme_zero"]
    assert entry["pass"] is False
    assert math.isnan(entry["max_violation"]) and entry["worst_sample"] == 0
    assert {c.name for c in checks if not c.passed} == {"biseparable_gme_zero"}


def _biseparable_haar_draws(monkeypatch):
    """The Haar check draws, in place of each Haar state, a biseparable one of its dims."""
    haar, *rest = verify.CHECKS

    def draw(key, i):
        dims = list(haar.draw(key, i).dims)
        return library.random_biseparable(Bipartition.of(dims, 0), dims, 1)

    monkeypatch.setattr(verify, "CHECKS", (haar._replace(draw=draw), *rest))


def _swap_lo_hi(monkeypatch):
    original = bounds.combine_bounds
    monkeypatch.setattr(bounds, "combine_bounds", lambda lo, hi: original(hi, lo))


VERIFY_FAULTS = {  # check name -> (fault, every check name it fails)
    "concurrence_identity": (
        lambda mp: _wrap(mp, measures, "schmidt_paths",
                         lambda paths: [(n, density + 1e-6) for n, density in paths]),
        {"concurrence_identity"}),
    "haar_gme_positive": (
        _biseparable_haar_draws,
        {"haar_gme_positive"}),
    "t1_sandwich": (  # an upper bound below the exact value
        lambda mp: _wrap(mp, bounds, "evaluate_bounds_batch", lambda reports: [
            dataclasses.replace(r, t1_upper=r.n_exact - 1e-6) for r in reports]),
        {"t1_sandwich"}),
    "t2_sandwich": (  # a lower bound above the exact value
        lambda mp: _wrap(mp, bounds, "evaluate_bounds_batch", lambda reports: [
            dataclasses.replace(r, t2_lower_raw=r.ngme_exact + 1e-6) for r in reports]),
        {"t2_sandwich"}),
    "min_combine_lemma": (_swap_lo_hi, {"min_combine_lemma", "t2_sandwich"}),
    "biseparable_gme_zero": (
        lambda mp: _wrap(mp, verify, "pair_sum", lambda v: v + 1e-6),
        {"biseparable_gme_zero"}),
}


@pytest.mark.parametrize("name", VERIFY_FAULTS)
def test_verify_flags_a_fault_in_each_check(monkeypatch, name):
    fault, failing = VERIFY_FAULTS[name]
    fault(monkeypatch)
    assert name in failing
    assert _failing_checks() == failing


@pytest.mark.parametrize("name, factor", [("cross_sums", 0.8), ("cross_sums", 0.999999),
                                          ("_self_sums", 1.1), ("_self_sums", 1.000001)])
def test_verify_flags_a_fault_in_the_bounds_inputs(monkeypatch, name, factor):
    # sample 2 is an attained spec, t1_upper = n_exact: a scaled s12 or self sum
    # moves one side only
    _wrap(monkeypatch, bounds, name, lambda sums: [factor * v for v in sums])
    assert "t1_sandwich" in _failing_checks()


def test_verify_rejects_zero_samples(capsys):
    assert run_cli(capsys, "verify", "--samples", "0")[0] == 2
    for samples in (0, -1):
        with pytest.raises(ValueError, match="verify needs at least one sample"):
            run_verify(samples, 42, 1e-9)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_bad_tolerance(capsys, tmp_path, monkeypatch, tol):
    monkeypatch.chdir(tmp_path)  # where replay files of failing checks would go
    code, out, err = run_cli(capsys, "verify", "--samples", "2", "--tol", tol)
    assert code == 2 and out == ""
    assert err.startswith("error: verify tolerance must be finite and >= 0")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match="tolerance"):
        run_verify(samples=2, seed=42, tol=float(tol))


# ------------------------------------------------------------- entry point


@pytest.fixture(scope="module")
def transcript():
    """The command corpus (tests/corpus.py), run once under the cached parser."""
    return corpus.run()


def test_corpus_entries_exit_as_listed(transcript):
    assert [(r.command, r.code) for r in transcript] == [
        (command, expected) for command, expected in corpus.ENTRIES]
    for r in transcript:
        if r.expected == 2:
            assert "Traceback" not in r.stderr, r.command
            assert sum("error:" in line for line in r.stderr.splitlines()) == 1, r.command
    by_command = {r.command: r for r in transcript}
    assert "not allowed with argument" in by_command["measure --named ghz --file x.json"].stderr
    assert [name for name, _ in by_command["sweep --grid 0,1,5 --out sweep.csv"].files] == [
        "sweep.csv", "sweep.csv.fit.json"]


def test_corpus_matches_the_checked_in_transcript(transcript):
    # a change that moves bytes on purpose regenerates corpus.expected (--write)
    expected = corpus.EXPECTED.read_text(encoding="utf-8")
    moved = corpus.compare(expected, corpus.transcript_text(transcript))
    assert [m for m in moved if not m.ok] == []


def test_corpus_compare_names_each_moved_field():
    text = ('$ supneg measure\nexit 0\n--- stdout\n{\n  "d": {\n    "n": [\n      1.0,\n'
            '      2.0\n    ]\n  },\n  "n_a": 0.5\n}\n--- file x.csv\np,n_a\n0.0,0.5\n')
    assert corpus.compare(text, text) == []
    planted = text.replace("0.5", repr(0.5 * (1 + 1e-9))).replace("2.0", "2.0000000000001")
    assert [(m.field, m.ok) for m in corpus.compare(text, planted)] == [
        ("stdout d.n", True), ("stdout n_a", False), ("file x.csv n_a", False)]
    assert corpus.compare(text, text.replace("exit 0", "exit 2")) == [
        corpus.Moved("measure", "exit", 2.0, False)]


def test_repeated_main_calls_match_a_fresh_parser_each(transcript, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert corpus.run() == transcript


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for argv in (["measure", "--named", "ghz"], ["measure", "--named", "w"],
                 ["sweep", "--grid", "0,1,3"], ["measure", "--named", "ghz"]):
        assert run_cli(capsys, *argv)[0] == 0
    # the top-level parser and one per subcommand, each built once
    assert sorted(built) == ["supneg", "supneg bounds", "supneg measure",
                             "supneg sweep", "supneg verify"]


def test_module_entry_point_subprocess():
    proc = run_module("measure", "--named", "ghz")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_gme"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dims, seed", [([12, 12, 12], 1), ([8, 8, 8], 3)],
                         ids=["d12", "d8"])
def test_measure_bytes_do_not_depend_on_blas_threads(tmp_path, dims, seed):
    # (12, 12, 12) seed 1 is the corpus's d = 12 bounds component; at d = 20
    # the Schmidt SVDs still round differently with 2 threads
    path = tmp_path / "state.json"
    path.write_text(json.dumps(library.haar_random(dims, seed).to_dict()))
    one, two = (run_module("measure", "--file", str(path), OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2"))
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


SMOKE_ENTRIES = (
    "measure --named ghz",
    f"bounds {corpus.HAAR3} {corpus.COMPLEX} --dump-terms",
    "measure --file bad_dims.json",
)


def test_copied_package_runs_corpus_entries_as_in_process(transcript, tmp_path):
    # the package alone, copied out of the tree, run from another directory
    shutil.copytree(Path(supneg.__file__).parent, tmp_path / "lib" / "supneg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    work = tmp_path / "work"
    work.mkdir()
    inputs = corpus._inputs()
    for name in ("haar3_1.json", "haar3_2.json", "bad_dims.json"):
        (work / name).write_text(inputs[name], encoding="utf-8")
    by_command = {r.command: r for r in transcript}
    for command in SMOKE_ENTRIES:
        proc = subprocess.run(
            [sys.executable, "-m", "supneg.cli", *command.split()],
            capture_output=True, text=True, cwd=work,
            env={**os.environ, "PYTHONPATH": str(tmp_path / "lib")},
        )
        expected = by_command[command]
        assert (proc.returncode, proc.stdout) == (expected.code, expected.stdout), command


# ------------------------------------------------------------------ Python API

PUBLIC_API = [
    "Bipartition", "BoundsReport", "CrossTermTable", "MeasureReport", "PureState",
    "SuperpositionSpec", "bipartitions", "cross_sums", "density_matrix",
    "evaluate_bounds", "evaluate_bounds_batch", "fit_gme_closed_form", "ghz",
    "haar_random", "hermitian_eigenvalues", "load_state", "matricize",
    "measure_report", "negativities_pt_oracle", "new_state", "normalize",
    "partial_transpose", "random_biseparable", "random_superposition_spec",
    "w_state", "z_family",
]
# single-item wrappers of a batch entry, test references (tests/reference.py),
# names that only tests reached, and the sweep's output helpers (now in cli)
REMOVED_NAMES = [
    "cross_sum", "concurrence_sq", "multipartite_concurrence_sq", "is_biseparable",
    "BiseparabilityReport", "BISEPARABLE_TOL", "cross_terms", "total_negativity_bounds",
    "gme_negativity_bounds", "negativity_pt_oracle", "schmidt_spectrum",
    "GeneratorPair", "generator_pairs", "_conj_matricizations", "bilinear_form",
    "bilinear_matrix", "trace_norm", "haar_unitary", "apply_product_unitary",
    "negativity_so", "negativity_schmidt", "multipartite_negativity", "gme_negativity",
    "gme_concurrence", "SchmidtSpectrum", "conjugate", "save_state", "ZFamilyParams",
    "min_combine_upper", "min_combine_lower", "min_combine_slack", "superpose",
    "reduced_density", "schmidt_spectra", "negativities_so", "z_family_sweep", "sweep_csv",
]


def test_public_api_is_pinned():
    public = sorted(name for name, value in vars(supneg).items()
                    if name[0] != "_" and not isinstance(value, types.ModuleType))
    assert public == PUBLIC_API
    modules = [importlib.import_module(f"supneg.{info.name}")
               for info in pkgutil.iter_modules(supneg.__path__)]
    assert len(modules) == 7
    for module in [supneg, *modules]:
        assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []
    assert not hasattr(supneg.SuperpositionSpec, "swapped")
