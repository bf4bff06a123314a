"""The library byte-identity gate: every case of ``tools/lib_sweep.py``
prints the digest or the refusal that the golden file
``lib_sweep_golden.txt`` holds.

A change that means to alter what a case returns regenerates the golden
file with ``python tools/lib_sweep.py src > tests/lib_sweep_golden.txt``
and names the changed cases and the reason in ``CHANGES.md``.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("lib_sweep_golden.txt")


def _tool():
    spec = importlib.util.spec_from_file_location("lib_sweep", ROOT / "tools" / "lib_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _differences(want: list[str], got: list[str]) -> list[str]:
    """One line per case, after the version line, that is new, gone or
    printed differently, named by its golden line."""
    want_cases = {line[:3]: line for line in want[1:]}
    got_cases = {line[:3]: line for line in got[1:]}
    found = []
    for k in sorted(want_cases.keys() | got_cases.keys()):
        a, b = want_cases.get(k), got_cases.get(k)
        if a is None or b is None:
            found.append(f"case {'new' if a is None else 'gone'}: {a or b}")
        elif a != b:
            found.append(f"case differs: {a} -> {b.split(': ', 1)[1]}")
    return found


def test_sweep_matches_golden_file():
    got = _tool().sweep()
    want = GOLDEN.read_text().splitlines()
    assert got[0] == want[0], (
        f"the golden file was printed under '{want[0][2:]}', this run is under '{got[0][2:]}'"
    )
    differences = _differences(want, got)
    assert not differences, "\n".join(differences)
    assert got == want


def test_differences_name_each_changed_case():
    want = ["# v", "000 a: d0", "001 b: d1"]
    got = ["# v", "000 a: d0", "001 b: d9", "002 c: d2"]
    assert _differences(want, got) == [
        "case differs: 001 b: d1 -> d9",
        "case new: 002 c: d2",
    ]
