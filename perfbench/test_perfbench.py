"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    result = _run(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_benchmark_names_its_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.filterwarnings("ignore:state from .* normalizing:UserWarning")
def test_perturbed_output_counts_as_failed(tmp_path):
    sys.path.insert(0, str(run.SRC))
    from supneg import cli

    measure = workloads.MeasureD6(7, tmp_path, "tiny")
    measure.generate()
    measure.prepare()
    k = 0  # a Haar state: no known defect applies
    assert run.closed_loop(cli, measure, k, k + 1, 0.0, 1)[0][2] == []

    # one amplitude of the saved input nudged by 1e-6 moves every output off
    # the reference computed from the original amplitudes
    path = measure._path(k)
    state = json.loads(path.read_text())
    state["amplitudes"][0][0] += 1e-6
    path.write_text(json.dumps(state))
    results = run.closed_loop(cli, measure, k, k + 1, 0.0, 1)
    assert results[0][2]
    fails = run.failures(measure, results)
    assert fails["ops"] == 1 and fails["unexpected_ops"] == 1

    # a saved result nudged by 1e-6 in one field is caught in that field
    rc, stdout, _, _ = run.run_op(cli, measure.argv(k + 3))
    out = json.loads(stdout)
    assert measure.check(k + 3, rc, stdout) == []
    out["n_a"] += 1e-6
    assert measure.check(k + 3, rc, json.dumps(out)) == ["n_a"]


def test_known_defect_is_only_square_root_outputs_on_biseparable_inputs(tmp_path):
    measure = workloads.MeasureD6(7, tmp_path, "tiny")
    assert measure.kind(1) == "biseparable"
    assert measure.known_defect(1, ["diagnostics.n_schmidt[2]", "c_gme"])
    assert not measure.known_defect(1, ["n_a"])
    assert not measure.known_defect(0, ["diagnostics.n_schmidt[2]"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_writes_byte_identical_inputs(tmp_path, name):
    def files(seed: int, sub: str) -> dict[str, bytes]:
        workdir = tmp_path / sub
        workdir.mkdir()
        workloads.WORKLOADS[name](seed, workdir, "tiny").generate()
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}

    first = files(11, "a")
    assert first and first == files(11, "b")
    assert first != files(12, "c")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    assert run.tail_ms(times) == (90_000.0, 90.0)
    assert run.tail_ms(times[:11]) == (1000.0, 100.0 / 11)
    assert run.tail_ms(times[:10]) == (10_000.0, 100.0)
    assert [len(w) for w in run.windows(times * 2 + times[:50])] == [100, 150]
