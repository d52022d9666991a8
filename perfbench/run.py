"""Closed-loop benchmark of the supneg command line.

    python3 perfbench/run.py --workload {certify,bounds-d12,measure-d6} \
        --seed N --seconds S --trace {0,1}

One client in one process: every op calls ``supneg.cli.main`` in-process and
starts only after the previous op returned.  Each op is timed from outside
and its output checked against a reference computed in set-up (see
workloads.py).  supneg is imported from ``src/`` next to this directory.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
ops for half the time, then installs the span tracer (spans.py) and runs
traced ops for the other half; it prints the per-layer metrics, writes the
spans to ``perfbench/out/`` as JSON lines and reports the tracing overhead.
The last line of stdout is always the JSON result; the line before it holds
the run's details (machine facts, failure breakdown, tail percentile).
The design behind the workloads and metrics is in DESIGN.md.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
OUT = BENCH_DIR / "out"

WORKLOAD_NAMES = ("certify", "bounds-d12", "measure-d6")
MIN_OPS = 15  # the tail needs ten ops beyond it; 15 puts it at rank 5, not the minimum
WINDOW = 100  # ops per window for the tail and throughput medians
MIN_TRACE_OPS = 3  # per phase of a traced run
MAX_LOOP_S = 100.0  # keeps a run under the 180 s limit if the program slows down
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is their median

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# per workload: (label, ratio of per-layer metrics, bound, must exceed bound?)
DESIGN_CHECKS = {
    "certify": [
        ("hermitian_eigenvalues self share of op wall",
         ("oracle.hermitian_eigenvalues.self_s", "trace.op_s"), 0.5, True),
    ],
    "bounds-d12": [
        ("cross_sum share of op wall", ("measures.cross_sum.total_s", "trace.op_s"),
         0.5, True),
        ("negativity_pt_oracle calls per op", ("oracle.negativity_pt_oracle.calls", None),
         0.0, False),
        ("cross_sum repeat_frac", ("measures.cross_sum.repeat_frac", None), 0.5, True),
    ],
    "measure-d6": [
        ("cross_sum repeat_frac", ("measures.cross_sum.repeat_frac", None), 0.0, False),
    ],
}


def run_op(cli, argv: list[str]) -> tuple[int, str, float, str | None]:
    """One closed-loop op: (exit code, stdout, seconds, exception or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        error = None
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc, error = -1, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed, error


def set_up(name: str, seed: int, size: str, workdir: Path):
    """Import supneg, write the inputs, run one warm-up op.

    Returns (cli, workload, setup_s, inputs_s).  setup_s is the import plus
    the warm-up op.  Writing the inputs is the benchmark's own work and is
    timed apart as inputs_s: on a shared VM disk, writing 1000 measure-d6
    files took 0.9 to 1.9 s from run to run, which would bury
    any set-up work the program adds.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from supneg import cli  # the first numpy import happens here

    import workloads

    imported = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, workdir, size)
    workload.generate()
    generated = time.perf_counter()
    run_op(cli, workload.warmup_argv())
    setup_s = imported - start + time.perf_counter() - generated
    return cli, workload, setup_s, generated - imported


def closed_loop(cli, workload, first: int, stop: int, seconds: float, min_ops: int,
                tracer=None) -> list[tuple[int, float, list[str]]]:
    """Ops first, first+1, ... until both `seconds` and `min_ops` are reached.

    Also stops at input `stop` (no input repeats) or after MAX_LOOP_S.
    Returns (input index, seconds, problems) per op.
    """
    results = []
    start = time.perf_counter()
    for k in range(first, stop):
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(results) >= min_ops):
            break
        argv = workload.argv(k)
        if tracer is not None:
            tracer.op = k
        rc, stdout, op_s, error = run_op(cli, argv)
        problems = [f"raised {error}"] if error else workload.check(k, rc, stdout)
        results.append((k, op_s, problems))
    return results


def windows(times: list[float]) -> list[list[float]]:
    """Consecutive windows of WINDOW ops; a short remainder joins the last one."""
    count = max(1, len(times) // WINDOW)
    return [times[i * WINDOW:(i + 1) * WINDOW if i < count - 1 else None]
            for i in range(count)]


def tail_ms(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (ms, percentile).

    With ten samples or fewer no percentile qualifies; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(times)
    rank = len(ordered) - 10
    if rank < 1:
        return 1000.0 * ordered[-1], 100.0
    return 1000.0 * ordered[rank - 1], 100.0 * rank / len(ordered)


def failures(workload, results) -> dict:
    failed = [(k, problems) for k, _, problems in results if problems]
    unexpected = [(k, p) for k, p in failed if not workload.known_defect(k, p)]
    return {
        "ops": len(failed),
        "known_defect_ops": len(failed) - len(unexpected),
        "unexpected_ops": len(unexpected),
        "by_kind": dict(Counter(workload.kind(k) for k, _ in failed)),
        "by_field": dict(Counter(p.split("[")[0] for _, ps in failed for p in ps)),
        "first_unexpected": unexpected[:3],
    }


def llc_bytes() -> int | None:
    """Size of the highest-level CPU cache, from sysfs."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
        size = int(text.rstrip("KM")) * scale
        best = max(best, (level, size))
    return best[1]


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree; read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "llc_bytes": llc_bytes(),
        "git_commit": git_commit(),
    }


def probe_setup(args) -> float:
    """set_up timed in a fresh process of this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def end_to_end(args, cli, workload, setup_s: float, detail: dict):
    results = closed_loop(cli, workload, 0, workload.n_inputs, args.seconds, MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [op_s for _, op_s, _ in results]
    failed = sum(1 for *_, problems in results if problems)
    # per-window figures, then their median: one burst of interference from
    # outside the process moves one window, not the result
    split = windows(times)
    tails = [tail_ms(w) for w in split]
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    values = {
        "items_per_s": statistics.median(workload.items_per_op * len(w) / sum(w)
                                         for w in split),
        "op_p50_ms": 1000.0 * statistics.median(times),
        "op_tail_ms": statistics.median(ms for ms, _ in tails),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / len(results),
    }
    detail.update(ops=len(results), items_per_op=workload.items_per_op,
                  windows=len(split), ops_per_window=len(split[0]),
                  op_tail_percentile=tails[0][1], setup_samples_s=setups,
                  fail_frac=failed / len(results))
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return results, metrics


def traced(args, cli, workload, detail: dict):
    import spans

    half = args.seconds / 2.0
    plain = closed_loop(cli, workload, 0, workload.n_inputs // 2, half, MIN_TRACE_OPS)
    tracer = spans.Tracer()
    tracer.install()
    traced_ops = closed_loop(cli, workload, len(plain), workload.n_inputs, half,
                             MIN_TRACE_OPS, tracer)
    plain_s = statistics.fmean(op_s for _, op_s, _ in plain)
    traced_s = statistics.fmean(op_s for _, op_s, _ in traced_ops)
    metrics = tracer.per_layer(len(traced_ops))
    metrics["trace.op_s"] = {"value": traced_s, "unit": "s/op"}
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "frac"}
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    checks = {}
    for label, (num, den), bound, above in DESIGN_CHECKS[args.workload]:
        value = metrics[num]["value"] / (metrics[den]["value"] if den else 1.0)
        checks[label] = {"value": value, "expect": f"{'>' if above else '=='} {bound}",
                         "ok": value > bound if above else value == bound}
    detail.update(untraced_ops=len(plain), traced_ops=len(traced_ops),
                  spans=len(tracer.spans), trace_file=str(trace_file.relative_to(ROOT)),
                  design_checks=checks)
    return plain + traced_ops, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy is first imported in set_up, so BLAS is pinned before it loads;
    # SUPNEG_THREADS stays unset so the default single-threaded path is
    # measured.  Set-up probes inherit this environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SUPNEG_THREADS", None)
    if not (SRC / "supneg" / "__init__.py").is_file():
        print(f"error: supneg sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        cli, workload, setup_s, inputs_s = set_up(args.workload, args.seed, args.size,
                                                   workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workload.prepare()
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size, "inputs_s": inputs_s}
        if args.trace:
            results, metrics = traced(args, cli, workload, detail)
        else:
            results, metrics = end_to_end(args, cli, workload, setup_s, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fails = failures(workload, results)
    detail.update(failures=fails, machine=machine_facts())
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": fails["unexpected_ops"] == 0,
        "attempted": len(results),
        "failed": fails["ops"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
