"""In-memory span tracer around supneg's layer functions.

Only the traced benchmark process calls ``Tracer.install``: it rebinds each
function in ``TRACED`` -- in every supneg module that holds a reference to
it -- to a wrapper that records one span ``(name, start, end, parent, op)``.
The program itself is not changed.  Counts that the per-layer metrics need
(distinct cross-sum inputs, computed T-matrix bytes, Jacobi matrix elements)
are taken in the same wrappers, before the span's clock starts.

The span stack is a plain list: the benchmark leaves ``SUPNEG_THREADS``
unset, so supneg runs every layer on the calling thread.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer (supneg module) -> public functions that get a span
TRACED = {
    "cli": ("main",),
    "bounds": ("evaluate_bounds", "cross_terms"),
    "measures": ("measure_report", "concurrence_sq", "negativity_so",
                 "negativity_schmidt", "cross_sum", "bilinear_matrix"),
    "states": ("load_state", "matricize", "reduced_density", "schmidt_spectrum"),
    "oracle": ("negativity_pt_oracle", "density_matrix", "partial_transpose",
               "hermitian_eigenvalues"),
    "library": ("haar_random", "random_superposition_spec", "random_biseparable"),
}

# (metric, statistic, unit); every value is per traced op except the fractions
PER_LAYER = (
    ("oracle.hermitian_eigenvalues.calls", "calls", "1/op"),
    ("oracle.hermitian_eigenvalues.self_s", "self_s", "s/op"),
    ("oracle.hermitian_eigenvalues.elems", "elems", "elems/op"),
    ("oracle.negativity_pt_oracle.calls", "calls", "1/op"),
    ("oracle.negativity_pt_oracle.total_s", "total_s", "s/op"),
    ("oracle.partial_transpose.total_s", "total_s", "s/op"),
    ("oracle.density_matrix.total_s", "total_s", "s/op"),
    ("measures.cross_sum.calls", "calls", "1/op"),
    ("measures.cross_sum.self_s", "self_s", "s/op"),
    ("measures.cross_sum.total_s", "total_s", "s/op"),
    ("measures.cross_sum.repeat_frac", "repeat_frac", "frac"),
    ("measures.bilinear_matrix.calls", "calls", "1/op"),
    ("measures.bilinear_matrix.self_s", "self_s", "s/op"),
    ("measures.bilinear_matrix.bytes", "bytes", "B/op"),
    ("measures.measure_report.total_s", "total_s", "s/op"),
    ("measures.concurrence_sq.total_s", "total_s", "s/op"),
    ("measures.negativity_so.total_s", "total_s", "s/op"),
    ("measures.negativity_schmidt.total_s", "total_s", "s/op"),
    ("states.schmidt_spectrum.total_s", "total_s", "s/op"),
    ("bounds.evaluate_bounds.calls", "calls", "1/op"),
    ("bounds.evaluate_bounds.total_s", "total_s", "s/op"),
    ("bounds.cross_terms.calls", "calls", "1/op"),
    ("bounds.cross_terms.total_s", "total_s", "s/op"),
    ("states.load_state.total_s", "total_s", "s/op"),
    ("states.matricize.calls", "calls", "1/op"),
    ("states.matricize.total_s", "total_s", "s/op"),
    ("states.reduced_density.total_s", "total_s", "s/op"),
    ("cli.main.self_s", "self_s", "s/op"),
    ("library.haar_random.total_s", "total_s", "s/op"),
    ("library.random_superposition_spec.total_s", "total_s", "s/op"),
    ("library.random_biseparable.total_s", "total_s", "s/op"),
)


def _digest(state) -> bytes:
    return hashlib.blake2b(state.amplitudes.tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._seen: set = set()
        self._hooks = {
            "measures.cross_sum": self._count_cross_sum,
            "measures.bilinear_matrix": self._count_bilinear,
            "oracle.hermitian_eigenvalues": self._count_eigen,
        }

    # -- counts, taken at the same boundaries as the spans

    def _count_cross_sum(self, args: list) -> None:
        psi, phi, cut = args[:3]
        key = (_digest(psi), _digest(phi), cut.kept)
        if key in self._seen:
            self.counts["measures.cross_sum.repeats"] += 1
        self._seen.add(key)

    def _count_bilinear(self, args: list) -> None:
        cut = args[2]
        pairs = math.comb(cut.row_dim, 2) * math.comb(cut.col_dim, 2)
        self.counts["measures.bilinear_matrix.bytes"] += 16 * pairs

    def _count_eigen(self, args: list) -> None:
        self.counts["oracle.hermitian_eigenvalues.elems"] += args[0].size

    # -- rebinding

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook:
                # by position, so a renamed parameter does not break the count
                hook(list(signature.bind(*args, **kwargs).arguments.values()))
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever supneg holds a reference."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "supneg" or n.startswith("supneg.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"supneg.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:  # removed or moved by a later change: reads 0
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is fn]:
                        setattr(module, attr, wrapper)

    # -- results

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name; self excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return stats

    def per_layer(self, ops: int) -> dict[str, dict]:
        """The PER_LAYER metrics, averaged over ``ops`` traced ops."""
        stats = self.summary()
        metrics = {}
        for metric, stat, unit in PER_LAYER:
            span = metric.rsplit(".", 1)[0]
            if stat == "repeat_frac":
                calls = stats[span]["calls"]
                value = self.counts[f"{span}.repeats"] / calls if calls else 0.0
            elif stat in ("bytes", "elems"):
                value = self.counts[metric] / ops
            else:
                value = stats[span][stat] / ops
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def write(self, path: Path) -> None:
        """All spans as JSON lines, in the order they started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
