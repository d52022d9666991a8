"""Inputs, reference values and output checks for the supneg benchmark.

Each workload turns the workload seed into input files (``generate``, timed
as part of set-up), a reference value for every input (``prepare``, not
timed), one CLI argument list per op, and a check of each op's output.

Inputs come only from the seed: item ``k`` draws from its own PCG64 stream
keyed by ``(seed, stream, k)``, so the same seed always writes byte-identical
files and any item can be regenerated on its own.  References never call
supneg: they come from numpy's LAPACK SVD of each matricization, where the
per-cut negativity is ``(sum s)^2 - ||x||^2`` and the squared concurrence is
``2 (1 - sum s^4)``.  The latter is evaluated as ``4 sum_{i<j} s_i^2 s_j^2``
(equal for unit norm): it has no cancellation, so on a product cut it reads
~1e-32 and the reference GME concurrence ``min sqrt(c2)`` stays exact there.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9  # absolute; the same tolerance the supneg harness certifies at

VERIFY_CHECKS = (
    "dual_path_negativity",
    "concurrence_identity",
    "t1_sandwich",
    "t2_sandwich",
    "min_combine_lemma",
    "biseparable_gme_zero",
    "haar_gme_positive",
)


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def write_state(path: Path, dims: tuple[int, ...], amps: np.ndarray) -> None:
    """The supneg state file format; json writes floats at round-trip precision."""
    pairs = amps.view(float).reshape(-1, 2).tolist()
    path.write_text(json.dumps({"dims": list(dims), "amplitudes": pairs}) + "\n")


def cut_spectra(amps: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """Singular values of the A|BC, B|AC and C|AB matricizations."""
    t = amps.reshape(dims)
    return [
        np.linalg.svd(np.moveaxis(t, k, 0).reshape(dims[k], -1), compute_uv=False)
        for k in range(3)
    ]


def cut_negativities(amps: np.ndarray, dims: tuple[int, ...]) -> list[float]:
    """||x||^2 times the per-cut negativity of x / ||x||, for any nonzero x."""
    norm_sq = float(np.vdot(amps, amps).real)
    return [float(s.sum() ** 2 - norm_sq) for s in cut_spectra(amps, dims)]


def _parse(text: str) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        return None


def _compare(out: dict, ref: dict[str, float]) -> list[str]:
    """Names of reference fields whose output is missing or off by more than TOL.

    A dotted name such as ``cross_terms.s11[2]`` addresses nested output.
    """
    bad = []
    for name, expected in ref.items():
        value = out
        try:
            for part in name.replace("[", ".").replace("]", "").split("."):
                value = value[int(part)] if isinstance(value, list) else value[part]
            ok = abs(float(value) - expected) <= TOL
        except (KeyError, IndexError, TypeError, ValueError):
            ok = False
        if not ok:
            bad.append(name)
    return bad


class Workload:
    """One closed-loop workload; subclasses fill in the inputs and checks."""

    name = ""
    items_per_op = 1

    def __init__(self, seed: int, workdir: Path, size: str = "full"):
        self.seed = seed
        self.workdir = workdir
        self.tiny = size == "tiny"
        self.n_inputs = 0

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the reference values; called after ``generate``, untimed."""

    def warmup_argv(self) -> list[str]:
        raise NotImplementedError

    def argv(self, k: int) -> list[str]:
        raise NotImplementedError

    def check(self, k: int, rc: int, stdout: str) -> list[str]:
        """Problems with op ``k``'s result; empty when it matches the reference."""
        raise NotImplementedError

    def kind(self, k: int) -> str:
        return self.name

    def known_defect(self, k: int, problems: list[str]) -> bool:
        """Whether every problem is a documented defect of the program."""
        return False


class Certify(Workload):
    """``verify --samples 40`` with a fresh 62-bit seed per op.

    The warm-up op is ``verify --samples 2``: it runs every check at both
    dimensions, so set-up covers the same code without a second full op.
    """

    name = "certify"

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        self.samples = 2 if self.tiny else 40
        self.items_per_op = self.samples
        self.n_inputs = 500

    def generate(self):
        seeds = _rng(self.seed, 3).integers(0, 2**62, size=self.n_inputs + 1)
        self.op_seeds = [int(s) for s in seeds]
        (self.workdir / "seeds.json").write_text(json.dumps(self.op_seeds) + "\n")

    def _argv(self, samples: int, op_seed: int, out: Path) -> list[str]:
        out.unlink(missing_ok=True)  # a stale summary must not pass for this op
        return ["verify", "--samples", str(samples), "--seed", str(op_seed),
                "--out", str(out)]

    def warmup_argv(self):
        return self._argv(2, self.op_seeds[-1], self.workdir / "warmup.json")

    def argv(self, k):
        return self._argv(self.samples, self.op_seeds[k], self.workdir / f"verify_{k}.json")

    def check(self, k, rc, stdout):
        out_path = self.workdir / f"verify_{k}.json"
        summary = _parse(out_path.read_text()) if out_path.is_file() else None
        out_path.unlink(missing_ok=True)
        problems = [] if rc == 0 else [f"exit {rc}"]
        if summary is None:
            return problems + ["summary"]
        for check in VERIFY_CHECKS:
            entry = summary.get(check)
            if not (isinstance(entry, dict) and entry.get("pass") is True
                    and entry.get("samples") == self.samples):
                problems.append(check)
        return problems


class BoundsD12(Workload):
    """``bounds --dump-terms`` over a coefficient grid for each Haar pair.

    Ops run pair-major, so consecutive ops share both components and only
    the coefficients change.  The warm-up op uses one more pair at d = 3:
    the same code paths, without a second full op in set-up.
    """

    name = "bounds-d12"

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        self.d = 3 if self.tiny else 12
        self.pairs = 2 if self.tiny else 12
        self.grid = 3 if self.tiny else 12
        self.n_inputs = self.pairs * self.grid

    def _components(self, p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        rng = _rng(self.seed, 1, p)
        return _haar(rng, d**3), _haar(rng, d**3)

    def _coefficients(self, p: int, g: int) -> tuple[complex, complex]:
        # moduli sweep a quarter circle (endpoints excluded), phases are seeded
        theta = 0.5 * math.pi * (g + 0.5) / self.grid
        phi1, phi2 = _rng(self.seed, 2, p, g).uniform(0.0, 2.0 * math.pi, size=2)
        return (
            complex(math.cos(theta) * math.cos(phi1), math.cos(theta) * math.sin(phi1)),
            complex(math.sin(theta) * math.cos(phi2), math.sin(theta) * math.sin(phi2)),
        )

    def _path(self, p: int, which: int) -> Path:
        return self.workdir / f"pair{p}_{which}.json"

    def generate(self):
        for p in range(self.pairs + 1):
            d = 3 if p == self.pairs else self.d
            for which, amps in enumerate(self._components(p, d), start=1):
                write_state(self._path(p, which), (d,) * 3, amps)

    def prepare(self):
        dims = (self.d,) * 3
        self.refs = []
        for p in range(self.pairs):
            psi1, psi2 = self._components(p, self.d)
            terms = {}
            for label, amps in (("s11", psi1), ("s22", psi2)):
                for cut, value in enumerate(cut_negativities(amps, dims)):
                    terms[f"cross_terms.{label}[{cut}]"] = value
            for g in range(self.grid):
                a1, a2 = self._coefficients(p, g)
                per_cut = cut_negativities(a1 * psi1 + a2 * psi2, dims)
                self.refs.append(
                    {"n_exact": 2.0 * sum(per_cut), "ngme_exact": min(per_cut), **terms}
                )

    @staticmethod
    def _coeff_text(a: complex) -> str:
        sign = "+" if math.copysign(1.0, a.imag) > 0 else ""
        return f"{a.real!r}{sign}{a.imag!r}i"

    def _argv(self, p: int, g: int) -> list[str]:
        a1, a2 = self._coefficients(p, g)
        # "--a2=-0.1..." form: argparse reads a bare "-0.1+0.2i" as an option
        return ["bounds", "--s1", str(self._path(p, 1)), "--s2", str(self._path(p, 2)),
                f"--a1={self._coeff_text(a1)}", f"--a2={self._coeff_text(a2)}",
                "--dump-terms"]

    def warmup_argv(self):
        return self._argv(self.pairs, 0)

    def argv(self, k):
        return self._argv(k // self.grid, k % self.grid)

    def check(self, k, rc, stdout):
        out = _parse(stdout)
        problems = [] if rc == 0 else [f"exit {rc}"]
        if not isinstance(out, dict):
            return problems + ["output"]
        problems += _compare(out, self.refs[k])
        try:
            for exact, t in (("n_exact", "t1"), ("ngme_exact", "t2")):
                if not out[f"{t}_lower_raw"] - TOL <= out[exact] <= out[f"{t}_upper"] + TOL:
                    problems.append(f"{t}_sandwich")
        except (KeyError, TypeError):
            problems.append("sandwich fields")
        return problems


class MeasureD6(Workload):
    """``measure --file`` on a pool of distinct states, in thirds by kind.

    Item ``k`` is Haar when ``k % 3 == 0``, biseparable across a seeded cut
    when 1, and near-product (biseparable plus a 1e-4 Haar perturbation,
    renormalized) when 2.  No state repeats within a run.
    """

    name = "measure-d6"
    kinds = ("haar", "biseparable", "near-product")
    fields = ("n_a", "n_b", "n_c", "n_multi", "n_gme",
              "c2_a", "c2_b", "c2_c", "c2_multi", "c_gme",
              "diagnostics.n_schmidt[0]", "diagnostics.n_schmidt[1]",
              "diagnostics.n_schmidt[2]")
    # the outputs that take square roots of noisy near-zero values
    known_fields = ("diagnostics.n_schmidt", "c_gme")

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        self.d = 3 if self.tiny else 6
        self.n_inputs = 12 if self.tiny else 1000

    def _state(self, k: int) -> np.ndarray:
        rng = _rng(self.seed, 4, k)
        d = self.d
        if k % 3 == 0:
            return _haar(rng, d**3)
        kept = int(rng.integers(3))
        product = np.outer(_haar(rng, d), _haar(rng, d * d)).reshape(d, d, d)
        amps = np.moveaxis(product, 0, kept).reshape(-1)
        if k % 3 == 2:
            amps = amps + 1e-4 * _haar(rng, d**3)
            amps = amps / np.linalg.norm(amps)
        return amps

    def _path(self, k: int) -> Path:
        return self.workdir / f"state{k}.json"

    def generate(self):
        # item n_inputs is the warm-up state, outside the measured pool
        for k in range(self.n_inputs + 1):
            write_state(self._path(k), (self.d,) * 3, self._state(k))

    def prepare(self):
        dims = (self.d,) * 3
        self.refs = np.empty((self.n_inputs, len(self.fields)))
        for k in range(self.n_inputs):
            amps = self._state(k)
            spectra = cut_spectra(amps, dims)
            norm_sq = float(np.vdot(amps, amps).real)
            n = [float(s.sum() ** 2 - norm_sq) for s in spectra]
            c2 = [float(4.0 * np.triu(np.outer(s**2, s**2), 1).sum()) for s in spectra]
            c_gme = min(math.sqrt(max(v, 0.0)) for v in c2)
            self.refs[k] = n + [2.0 * sum(n), min(n)] + c2 + [sum(c2), c_gme] + n

    def warmup_argv(self):
        return ["measure", "--file", str(self._path(self.n_inputs))]

    def argv(self, k):
        return ["measure", "--file", str(self._path(k))]

    def check(self, k, rc, stdout):
        out = _parse(stdout)
        problems = [] if rc == 0 else [f"exit {rc}"]
        if not isinstance(out, dict):
            return problems + ["output"]
        return problems + _compare(out, dict(zip(self.fields, self.refs[k].tolist())))

    def kind(self, k):
        return self.kinds[k % 3]

    def known_defect(self, k, problems):
        # ROADMAP aim 3 / item 5: on the product cut of a biseparable state,
        # n_schmidt takes square roots of noisy near-zero Jacobi eigenvalues
        # and c_gme the square root of a noisy near-zero 2(1 - Tr rho^2), so
        # both read ~1e-8 where the exact value is 0
        return self.kind(k) == "biseparable" and all(
            p.startswith(self.known_fields) for p in problems
        )


WORKLOADS = {w.name: w for w in (Certify, BoundsD12, MeasureD6)}
