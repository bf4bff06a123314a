"""The README's library tour runs against the code as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", text, re.DOTALL)
    assert tour, "README has no python block under 'Library tour'"
    exec(compile(tour.group(1), "README.md", "exec"), {})
