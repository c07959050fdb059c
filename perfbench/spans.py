"""In-memory span tracer that wraps singinv's public functions from outside.

Each wrapped function is replaced at every ``singinv.*`` module attribute
that holds it (for example ``singinv.report.delta_min`` and
``singinv.invariants.delta_min``), so calls are caught where their
callers look them up and ``src/`` is never edited.  A span records its
name, start, end, parent span and the closed-loop operation it belongs
to.  Spans stay in compact arrays until the run ends.  Work the tracer
does itself after a call (the counters below) is recorded as a
``perfbench.hook`` span, so it never inflates a layer's self time.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array
from collections import defaultdict

import check

# span name -> (module, public function)
TARGETS = {
    "cli.main": ("singinv.cli", "main"),
    "cli.parse_input": ("singinv.cli", "parse_input"),
    "graph.validate": ("singinv.graph", "validate"),
    "graph.intersection_matrix": ("singinv.graph", "intersection_matrix"),
    "linalg.solve": ("singinv.linalg", "solve"),
    "cycles.fundamental_cycle": ("singinv.cycles", "fundamental_cycle"),
    "cycles.canonical_cycle": ("singinv.cycles", "canonical_cycle"),
    "cycles.boundary_cycle": ("singinv.cycles", "boundary_cycle"),
    "invariants.delta_min": ("singinv.invariants", "delta_min"),
    "invariants.mu": ("singinv.invariants", "mu"),
    "invariants.delta_y": ("singinv.invariants", "delta_y"),
    "invariants.check_hypotheses": ("singinv.invariants", "check_hypotheses"),
    "classify.classify": ("singinv.classify", "classify"),
    "report.build_report": ("singinv.report", "build_report"),
    "report.report_to_dict": ("singinv.report", "report_to_dict"),
    "report.render_text": ("singinv.report", "render_text"),
}
JSON_DUMPS = "report.json_dumps"
HOOK = "perfbench.hook"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_op.append(self.op)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def wrap(self, name: str, fn, post=None):
        name_id, hook_id = self._id(name), self._id(HOOK)
        clock, start, end, stack = time.perf_counter, self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                h = self._open(hook_id)
                start[h] = clock()
                post(args, result)
                end[h] = clock()
                stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters read from the wrapped calls' arguments and results --

    def _laufer(self, args, z) -> None:
        # Laufer starts at (1, .., 1) and adds one per step; Z is integral
        self.counts["laufer_steps"] += sum(c.numerator for c in z) - len(z)

    def _active_set(self, args, result) -> None:
        self.counts["delta_min_results"] += 1
        self.counts["active_set_total"] += len(result.active_set)

    def _det_bits(self, args, result) -> None:
        graph = args[0]
        bits = check.det_bits(
            [v.weight for v in graph.vertices],
            [(graph.index[e.a], graph.index[e.b], e.multiplicity) for e in graph.edges],
        )
        self.counts["det_bits_max"] = max(self.counts["det_bits_max"], bits)

    def install(self) -> None:
        """Wrap every target at each singinv module attribute that holds it."""
        posts = {
            "cycles.fundamental_cycle": self._laufer,
            "invariants.delta_min": self._active_set,
            "graph.validate": self._det_bits,
        }
        modules = [m for n, m in sys.modules.items() if n == "singinv" or n.startswith("singinv.")]
        for name, (module, attr) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, posts.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        cli = sys.modules["singinv.cli"]
        proxy = types.SimpleNamespace(**vars(json))
        proxy.dumps = self.wrap(JSON_DUMPS, json.dumps)
        self._patched.append((cli, "json", cli.json))
        cli.json = proxy

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    # -- export and aggregation --

    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.span_name[i], self.span_op[i], self.span_parent[i],
                 self.span_start[i], self.span_end[i]]
                for i in range(len(self.span_name))
            ],
            "counts": dict(self.counts),
        }

    def absorb(self, payload: dict, op: int) -> None:
        """Append a child process's exported spans, re-tagged with `op`."""
        offset = len(self.span_name)
        remap = [self._id(n) for n in payload["names"]]
        for name, _, parent, start, end in payload["spans"]:
            self.span_name.append(remap[name])
            self.span_op.append(op)
            self.span_parent.append(parent + offset if parent >= 0 else -1)
            self.span_start.append(start)
            self.span_end.append(end)
        for key, value in payload["counts"].items():
            if key == "det_bits_max":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and for
        delta_min the solves made directly inside it."""
        n = len(self.span_name)
        child = [0.0] * n
        direct_solves = 0
        solve_id = self.name_id.get("linalg.solve", -1)
        dmin_id = self.name_id.get("invariants.delta_min", -1)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
                if self.span_name[i] == solve_id and self.span_name[p] == dmin_id:
                    direct_solves += 1
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl": 0.0, "self": 0.0}
        )
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["incl"] += dur
            row["self"] += dur - child[i]
        out["invariants.delta_min"]["solves"] = direct_solves
        return out

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_op[i]}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
