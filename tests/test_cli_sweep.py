"""The byte-identity gate: every command line of ``tools/cli_sweep.py``
prints the exit code, text and output digests that the golden file
``cli_sweep_golden.txt`` holds.

A change that means to alter what a run prints or writes regenerates
the golden file with ``python tools/cli_sweep.py src OUT`` (OUT a fresh
directory) and names the changed runs and the reason in ``CHANGES.md``.
"""

import importlib.util
import os
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_sweep_golden.txt")
_RUN = re.compile(r"# (\d{3}) exit ")


def _tool():
    spec = importlib.util.spec_from_file_location("cli_sweep", ROOT / "tools" / "cli_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_run(lines: list[str]) -> dict[str, list[str]]:
    """The printout after its version line, grouped by run number; each
    group starts with the run's ``# NNN exit C: argv`` line."""
    runs: dict[str, list[str]] = {}
    for line in lines[1:]:
        match = _RUN.match(line)
        if match:
            runs[match.group(1)] = []
        runs[list(runs)[-1]].append(line)
    return runs


def _differences(want: list[str], got: list[str]) -> list[str]:
    """One line per run whose exit code, printed text or digests differ."""
    want_runs, got_runs = _by_run(want), _by_run(got)
    found = []
    for k in sorted(want_runs.keys() | got_runs.keys()):
        a, b = want_runs.get(k), got_runs.get(k)
        if a is None or b is None:
            found.append(f"run {k} is {'new' if a is None else 'gone'}: {(a or b)[0]}")
            continue
        parts = {
            "exit code or argv": (a[0], b[0]),
            "printed text": ([x for x in a if x.startswith("| ")],
                             [x for x in b if x.startswith("| ")]),
            "digests": ([x for x in a[1:] if not x.startswith("| ")],
                        [x for x in b[1:] if not x.startswith("| ")]),
        }
        changed = [name for name, (x, y) in parts.items() if x != y]
        if changed:
            now = f" -> {b[0]}" if a[0] != b[0] else ""
            found.append(f"run {k}: {', '.join(changed)} differ: {a[0]}{now}")
    return found


def test_sweep_matches_golden_file(tmp_path):
    cwd = os.getcwd()
    got = _tool().sweep(tmp_path)
    assert os.getcwd() == cwd
    want = GOLDEN.read_text().splitlines()
    assert got[0] == want[0], (
        f"the golden file was printed under '{want[0][2:]}', this run is under '{got[0][2:]}'"
    )
    differences = _differences(want, got)
    assert not differences, "\n".join(differences)
    assert got == want


def test_differences_name_each_changed_run():
    want = ["# v", "# 000 exit 0: a", "| ok", "d0 000.out", "# 001 exit 0: b", "d1 001.out"]
    got = ["# v", "# 000 exit 0: a", "| no", "d0 000.out", "# 001 exit 1: b", "d9 001.out",
           "# 002 exit 0: c"]
    assert _differences(want, got) == [
        "run 000: printed text differ: # 000 exit 0: a",
        "run 001: exit code or argv, digests differ: # 001 exit 0: b -> # 001 exit 1: b",
        "run 002 is new: # 002 exit 0: c",
    ]
