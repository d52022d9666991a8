"""The command corpus: the ``supneg`` commands whose bytes and exit codes are
the CLI's contract, each with the exit code it must give.

``run()`` writes the inputs -- seeded states from ``supneg.library`` saved
with ``PureState.to_dict``, and a few malformed payloads -- into a temporary
directory and runs every entry there through ``supneg.cli.main``.  It returns
the transcript: per entry its command, exit code, stdout, stderr, warning
messages (without their source paths) and the name and bytes of every file
the entry wrote.

    python tests/corpus.py   # print the transcript; exit 1 on a wrong exit code

``corpus.expected`` is the transcript checked in next to this file, written
at one BLAS thread.  OpenBLAS picks its kernels per CPU and per thread
count, so it is compared field by field, not byte for byte: every token
that is not a number must match exactly, and every number x within
``|delta| <= 1e-13 + 1e-12 |x|`` (``compare``).  A change that moves bytes
on purpose regenerates the file, and its git diff lists them:

    OPENBLAS_NUM_THREADS=1 python tests/corpus.py --write
    python tests/corpus.py --compare tests/corpus.expected   # each moved field, max |delta|

Two source trees run the same corpus, and their transcripts are diffed:

    diff <(OPENBLAS_NUM_THREADS=1 PYTHONPATH=<parent>/src python tests/corpus.py) \\
         <(OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/corpus.py)

JSON outputs have sorted keys, one per line, so each moved field is a line
of its own.  The d = 12 entry's bytes depend on the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shlex
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from typing import NamedTuple

from supneg import cli, library

GHZ_W = "--s1 named:ghz --s2 named:w"
HAAR3 = "--s1 haar3_1.json --s2 haar3_2.json"
COMPLEX = "--a1 0.6 --a2 0.8i"

ENTRIES = [
    ("measure --named ghz", 0),
    ("measure --named ghz --format csv", 0),
    ("measure --named w", 0),
    ("measure --named w --format csv", 0),
    ("measure --named z:p=0.3,phi=0.5", 0),
    ("measure --named z:p=0.3,phi=0.5 --format csv", 0),
    ("measure --file haar3_1.json", 0),
    ("measure --file haar3_1.json --format csv", 0),
    (f"bounds {GHZ_W} --p 0.5", 0),
    (f"bounds {GHZ_W} --p 0.5 --dump-terms", 0),
    (f"bounds {GHZ_W} --p 0.3", 0),
    (f"bounds {GHZ_W} --p 0.3 --format csv", 0),
    (f"bounds {GHZ_W} --p 0.3 --dump-terms", 0),
    (f"bounds {GHZ_W} {COMPLEX}", 0),
    (f"bounds {GHZ_W} {COMPLEX} --dump-terms", 0),
    (f"bounds {GHZ_W} {COMPLEX} --dump-terms --format csv", 0),
    (f"bounds {HAAR3} --p 0.3", 0),
    (f"bounds {HAAR3} --p 0.3 --format csv", 0),
    (f"bounds {HAAR3} {COMPLEX} --dump-terms", 0),
    (f"bounds {HAAR3} {COMPLEX} --dump-terms --format csv", 0),
    (f"bounds --s1 haar12_1.json --s2 haar12_2.json {COMPLEX} --dump-terms", 0),
    ("sweep --grid 0,1,3", 0),
    ("sweep --grid 0,1,3 --phi 0.3", 0),
    ("sweep --grid 0,1,4 --sidecar fit.json", 0),
    ("sweep --grid 0,1,5 --out sweep.csv", 0),
    ("sweep --grid 0,1,21 --sidecar fit.json", 0),
    ("sweep --grid 0,1,21 --phi 0.3 --sidecar fit.json", 0),
    ("sweep --grid 0.1,0.9,7 --sidecar fit.json", 0),
    ("sweep --grid 0.1,0.9,7 --phi 0.3 --sidecar fit.json", 0),
    # sample i draws key seed ^ i: keys 42-43, 0-39 and 960-1023, no two shared
    ("verify --samples 2", 0),
    ("verify --samples 40 --seed 4", 0),
    ("verify --samples 64 --seed 1000", 0),
    ("measure --named ghz --file x.json", 2),  # argparse usage error
    ("measure --named nope", 2),
    ("measure --named z:p=0.3,phi=nan", 2),
    ("measure --file bad_dims.json", 2),
    ("measure --file nan_amplitude.json", 2),
    ("measure --file bool_amplitude.json", 2),
    ("measure --file zero_vector.json", 2),
    ("measure --file deep_nesting.json", 2),  # beyond the JSON decoder's recursion limit
    ("bounds --s1 named:ghz --s2 bad_dims.json --p 0.5", 2),
    (f"bounds {GHZ_W} --p 0.5 --a1 1 --a2 0", 2),
    (f"bounds {GHZ_W} --a1 1e200 --a2 1 --no-coeff-check", 2),
    ("sweep --grid 0,1,2 --sidecar fit.json", 2),
    ("sweep --grid 0,1,3 --sidecar fit.json", 2),
    ("sweep --phi inf", 2),
    # arrays of 14.2 PiB and 7.1 PiB: beyond any address space, so refused at once
    ("measure --named ghz:d=100000", 2),
    ("sweep --grid 0,1,1000000000000000", 2),
    ("verify --samples 0", 2),
]


def _qubits(first: str) -> str:
    return '{"dims": [2, 2, 2], "amplitudes": [[%s, 0]%s]}\n' % (first, ", [0, 0]" * 7)


MALFORMED = {
    "bad_dims.json": '{"dims": [2, 2], "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}\n',
    "nan_amplitude.json": _qubits("NaN"),
    "bool_amplitude.json": _qubits("true"),
    "zero_vector.json": _qubits("0"),
    "deep_nesting.json": '{"dims": [2, 2, 2], "amplitudes": %s%s}\n' % ("[" * 1500, "]" * 1500),
}


def _inputs() -> dict[str, str]:
    """File name -> text of every input an entry reads."""
    states = {
        "haar3_1.json": library.haar_random([3, 3, 3], 1),
        "haar3_2.json": library.haar_random([3, 3, 3], 2),
        "haar12_1.json": library.haar_random([12, 12, 12], 1),
        "haar12_2.json": library.haar_random([12, 12, 12], 2),
    }
    return {**{name: json.dumps(state.to_dict()) + "\n" for name, state in states.items()},
            **MALFORMED}


class Result(NamedTuple):
    command: str
    expected: int
    code: int
    stdout: str
    stderr: str
    warnings: tuple[str, ...]
    files: tuple[tuple[str, bytes], ...] = ()


def _run_entry(command: str, expected: int) -> Result:
    """One entry run in the current directory, which its texts show as '.'."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(shlex.split(command))
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:  # exit 1 as from the interpreter; frames hold paths
            err.write("Traceback (most recent call last):\n")
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
            code = 1
    here = os.getcwd()  # in the replay paths of a failing verify
    messages = tuple(f"{w.category.__name__}: {w.message}".replace(here, ".") for w in caught)
    return Result(command, expected, code, out.getvalue().replace(here, "."),
                  err.getvalue().replace(here, "."), messages)


def run() -> list[Result]:
    """Every entry of ``ENTRIES``, in order, in one temporary directory; the
    files an entry writes are read and removed before the next one runs."""
    inputs = _inputs()
    home = os.getcwd()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in inputs.items():
                Path(name).write_text(text, encoding="utf-8")
            for command, expected in ENTRIES:
                result = _run_entry(command, expected)
                written = sorted(p for p in Path().iterdir() if p.name not in inputs)
                results.append(result._replace(
                    files=tuple((p.name, p.read_bytes()) for p in written)))
                for p in written:
                    p.unlink()
        finally:
            os.chdir(home)
    return results


def _block(label: str, text: str) -> str:
    end = "" if text.endswith("\n") else "\n\\ no newline at end\n"
    return f"--- {label}\n{text}{end}"


def transcript_text(results: list[Result]) -> str:
    parts = []
    for r in results:
        parts.append(f"$ supneg {r.command}\nexit {r.code}\n")
        parts += [_block(label, text) for label, text in
                  (("stdout", r.stdout), ("stderr", r.stderr)) if text]
        parts += [f"--- warning {message}\n" for message in r.warnings]
        parts += [_block(f"file {name}", data.decode("utf-8", "backslashreplace"))
                  for name, data in r.files]
    return "".join(parts)


EXPECTED = Path(__file__).with_name("corpus.expected")
ABS_TOL, REL_TOL = 1e-13, 1e-12  # per number x: |delta| <= ABS_TOL + REL_TOL |x|
# a number that is not part of a name such as c2_a or haar3_1.json
NUMBER = re.compile(r"(?<![\w.])(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")
CSV_HEADER = re.compile(r"\w+(,\w+)+")
JSON_KEY = re.compile(r'( *)"([^"]+)":')


class Moved(NamedTuple):
    command: str
    field: str
    max_delta: float  # inf when a token other than a number differs
    ok: bool  # every number within tolerance, every other token equal


def _entries(text: str) -> list[tuple[str, list[str]]]:
    """(command, lines after the command) of every entry of a transcript."""
    entries: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        if line.startswith("$ supneg "):
            entries.append((line[len("$ supneg "):], []))
        else:
            entries[-1][1].append(line)
    return entries


def _cells(lines: list[str]) -> list[tuple[str, str]]:
    """(field, text) of one entry's lines: a JSON line is one cell named by
    its key path, a CSV row one cell per column named by the header."""
    cells, block, header, keys = [], "exit", None, []  # the exit code comes first
    for line in lines:
        if line.startswith("--- "):
            block, header, keys = line[4:], None, []
            cells.append((block, line))
            continue
        if cells and cells[-1][1] == f"--- {block}" and CSV_HEADER.fullmatch(line):
            header = line.split(",")
        if header is not None:
            cells += [(f"{block} {name}", cell) for name, cell in zip(header, line.split(","))]
            continue
        key = JSON_KEY.match(line)
        if key:
            keys = [(indent, name) for indent, name in keys if indent < len(key[1])]
            path = ".".join([name for _, name in keys] + [key[2]])
            if line.rstrip().endswith(("{", "[")):
                keys.append((len(key[1]), key[2]))
        else:
            path = ".".join(name for _, name in keys)
        cells.append((f"{block} {path}".rstrip(), line))
    return cells


def compare(expected: str, actual: str) -> list[Moved]:
    """Every (entry, field) of ``actual`` whose text differs from ``expected``,
    in transcript order, with its largest number move."""
    moved: dict[tuple[str, str], Moved] = {}

    def note(command: str, field: str, delta: float, ok: bool) -> None:
        old = moved.get((command, field), Moved(command, field, 0.0, True))
        moved[(command, field)] = Moved(command, field, max(old.max_delta, delta),
                                        old.ok and ok)

    old_entries, new_entries = _entries(expected), _entries(actual)
    if [c for c, _ in old_entries] != [c for c, _ in new_entries]:
        return [Moved("(entry list)", "commands", math.inf, False)]
    for (command, old_lines), (_, new_lines) in zip(old_entries, new_entries):
        old_cells, new_cells = _cells(old_lines), _cells(new_lines)
        if [f for f, _ in old_cells] != [f for f, _ in new_cells]:
            note(command, "(fields)", math.inf, False)
            continue
        for (field, old), (_, new) in zip(old_cells, new_cells):
            if old == new:
                continue
            a, b = NUMBER.split(old), NUMBER.split(new)
            if len(a) != len(b) or a[::2] != b[::2]:
                note(command, field, math.inf, False)
                continue
            for x, y in zip(a[1::2], b[1::2]):
                delta = abs(float(y) - float(x))
                note(command, field, delta, delta <= ABS_TOL + REL_TOL * abs(float(x)))
    return list(moved.values())


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]) and not (len(argv) == 2 and argv[0] == "--compare"):
        print("usage: corpus.py [--write | --compare FILE]", file=sys.stderr)
        return 2
    results = run()
    text = transcript_text(results)
    moved = []
    if argv == ["--write"]:
        EXPECTED.write_text(text, encoding="utf-8")
    elif argv:
        moved = compare(Path(argv[1]).read_text(encoding="utf-8"), text)
        for m in moved:
            verdict = "ok" if m.ok else "OUT OF TOLERANCE"
            print(f"supneg {m.command} | {m.field} | max |delta| {m.max_delta:.3g} | {verdict}")
    else:
        sys.stdout.write(text)
    wrong = [r for r in results if r.code != r.expected]
    for r in wrong:
        print(f"corpus: 'supneg {r.command}' exited {r.code}, expected {r.expected}",
              file=sys.stderr)
    return 1 if wrong or not all(m.ok for m in moved) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
