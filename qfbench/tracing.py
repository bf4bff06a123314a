"""Span recording around qflab's public layer functions.

``Tracer.install`` rebinds each traced function, wherever a qflab module
holds a reference to it, to a thin timer. A span records name, start,
end, parent span and operation id, plus counts taken from the call's
arguments or result at the same boundary. Spans stay in memory until
``write`` is called at the end of the run. Times are the process's CPU
time, the clock the end-to-end metrics use. Nothing here changes what
the wrapped functions compute.
"""

from __future__ import annotations

import json
import re
import time
from collections import defaultdict


def _nnz(args, kwargs, result) -> dict:
    return {"nnz": int(result.matrix.nnz)}


def _node_steps(args, kwargs, result) -> dict:
    op, _state, cfg = args[:3]
    return {"node_steps": int(op.grid.size) * int(cfg.n_steps)}


def _path_steps(args, kwargs, result) -> dict:
    n_paths, n_cols = result.paths.shape
    return {"path_steps": int(n_paths) * int(n_cols - 1)}


def _csv_rows(args, kwargs, result) -> dict:
    return {"rows": int(result)}


def _mc_paths(args, kwargs, result) -> dict:
    return {"paths": int(args[3] if len(args) > 3 else kwargs["n_paths"])}


# (span name, module, function, counts taken at the boundary)
TRACED = [
    ("cli.main", "qflab.cli", "main", None),
    ("operators.build_bs_hamiltonian", "qflab.operators", "build_bs_hamiltonian", _nnz),
    ("operators.build_effective_bs", "qflab.operators", "build_effective_bs", _nnz),
    ("operators.build_double_knockout", "qflab.operators", "build_double_knockout", _nnz),
    ("operators.build_mg_hamiltonian", "qflab.operators", "build_mg_hamiltonian", _nnz),
    ("evolution.evolve", "qflab.evolution", "evolve", _node_steps),
    ("evolution.price_option", "qflab.evolution", "price_option", None),
    ("evolution.price_barrier", "qflab.evolution", "price_barrier", None),
    ("martingale.martingale_residual", "qflab.martingale", "martingale_residual", None),
    ("martingale.mc_martingale_check", "qflab.martingale", "mc_martingale_check", _mc_paths),
    ("sde.simulate_gbm", "qflab.sde", "simulate_gbm", _path_steps),
    ("sde.simulate_mg", "qflab.sde", "simulate_mg", _path_steps),
    ("sde.export_csv", "qflab.sde", "export_csv", _csv_rows),
]

QFLAB_MODULES = (
    "qflab",
    "qflab.cli",
    "qflab.evolution",
    "qflab.operators",
    "qflab.martingale",
    "qflab.sde",
)

IMPORT_MODULES = ("model", "operators", "martingale", "vacuum", "evolution", "sde", "cli")


class Tracer:
    """In-memory span recorder. Spans are lists
    [id, name, start, end, parent, op, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def start(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.process_time(), None, parent, self.op_id, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def stop(self, span: list) -> None:
        span[3] = time.process_time()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stop(span)
            if count is not None:
                span[6].update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Rebind every traced function in each qflab module that holds it.
        ``modules`` maps module names to the imported module objects."""
        for name, home, attr, count in TRACED:
            fn = getattr(modules[home], attr)
            wrapper = self._wrap(name, fn, count)
            for mod_name in QFLAB_MODULES:
                mod = modules[mod_name]
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[list], rounds: int, extra_counts: dict) -> dict:
    """Per-round layer times and counts from a span list.

    A layer's time is the summed duration of its outermost spans (a
    builder that calls another builder is counted once). Self
    time is a span's duration minus its direct children.
    """
    by_id = {s[0]: s for s in spans}
    children_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            children_time[s[4]] += s[3] - s[2]

    def outermost(prefix: str):
        for s in spans:
            if not s[1].startswith(prefix):
                continue
            parent = by_id.get(s[4])
            if parent is not None and parent[1].startswith(prefix):
                continue
            yield s

    def total_ms(prefix: str) -> float:
        return sum(s[3] - s[2] for s in outermost(prefix)) * 1e3

    def self_ms(names: tuple) -> float:
        return sum(s[3] - s[2] - children_time[s[0]] for s in spans if s[1] in names) * 1e3

    def count(prefix: str, key: str) -> int:
        return sum(s[6].get(key, 0) for s in outermost(prefix))

    build_ms = total_ms("operators.")
    nnz = count("operators.", "nnz")
    evolve_ms = total_ms("evolution.evolve")
    node_steps = count("evolution.evolve", "node_steps")
    simulate_ms = total_ms("sde.simulate_")
    path_steps = count("sde.simulate_", "path_steps")
    export_ms = total_ms("sde.export_csv")
    rows = count("sde.export_csv", "rows")

    def ratio(num: float, den: float, scale: float) -> float:
        return num * scale / den if den else 0.0

    per_run = {
        "cli.self_ms": self_ms(("cli.main",)),
        "cli.bytes_out": extra_counts.get("bytes_out", 0),
        "operators.build_ms": build_ms,
        "operators.build_calls": sum(1 for _ in outermost("operators.")),
        "operators.nnz_built": nnz,
        "evolution.evolve_ms": evolve_ms,
        "evolution.node_steps": node_steps,
        "evolution.front_self_ms": self_ms(("evolution.price_option", "evolution.price_barrier")),
        "martingale.residual_ms": total_ms("martingale.martingale_residual"),
        "martingale.mc_check_ms": total_ms("martingale.mc_martingale_check"),
        "martingale.mc_paths": count("martingale.mc_martingale_check", "paths"),
        "sde.simulate_ms": simulate_ms,
        "sde.path_steps": path_steps,
        "sde.export_ms": export_ms,
        "sde.csv_rows": rows,
    }
    metrics = {k: v / rounds for k, v in per_run.items()}
    metrics["operators.ns_per_nnz"] = ratio(build_ms, nnz, 1e6)
    metrics["evolution.ns_per_node_step"] = ratio(evolve_ms, node_steps, 1e6)
    metrics["sde.ns_per_path_step"] = ratio(simulate_ms, path_steps, 1e6)
    metrics["sde.us_per_row"] = ratio(export_ms, rows, 1e3)
    return metrics


_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time in ms of each qflab module, from the
    stderr of ``python -X importtime -c "import qflab.cli"``. Third-party
    imports count toward the qflab module that first imports them."""
    cumulative = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e3
    return {f"import.{mod}_ms": cumulative.get(f"qflab.{mod}", 0.0) for mod in IMPORT_MODULES}
