"""Benchmark of singinv: closed-loop workloads with one client, in one process.

Run from the repository root:

    python3 perfbench/run.py --workload report-corpus --seed 1 --seconds 15 --trace 0

Each run sets up several times (setup_s is the median), then repeats full
passes over the workload's inputs for about --seconds, one operation at
a time.  Times are scaled to a reference machine speed (pace.py).  Every
output is checked (see check.py), and on the default seed also compared
with the committed digests in digests.json.
Human-readable results come first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones.  With --trace 1 a shorter
untraced phase is followed by a traced phase over the same inputs, and
the metrics are the per-layer ones from spans recorded by spans.py.

    python3 perfbench/run.py --workload hard-graphs --record-digests

rewrites that workload's entry in digests.json from the current program.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import gen
from pace import Pacer
from spans import JSON_DUMPS, Tracer

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = PERF / "digests.json"
DEFAULT_SEED = 0
SETUPS = 9  # set-ups per run; setup_s is their median
MIN_PASSES = 2  # in a --trace 0 run, so wall_s is never a single pass
UNTRACED_SHARE = 0.4  # share of --seconds a --trace 1 run spends untraced
clock = time.perf_counter


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_singinv():
    """Import singinv from this checkout's src/, running its modules afresh.

    Dropping the cached modules first makes every set-up pay the import,
    so work moved to import time shows in setup_s.
    """
    for name in [n for n in sys.modules if n == "singinv" or n.startswith("singinv.")]:
        del sys.modules[name]
    cli = importlib.import_module("singinv.cli")
    if Path(sys.modules["singinv"].__file__).resolve().parent != SRC / "singinv":
        raise RuntimeError(f"singinv was not imported from {SRC}")
    return cli, sys.modules["singinv.report"], sys.modules["singinv.invariants"]


@dataclass
class Op:
    key: str
    payload: object
    items: int = 1
    seeded: bool = True  # input depends on --seed, so digests apply to the default seed only


@dataclass
class Phase:
    passes: list[float] = field(default_factory=list)  # at reference speed (pace.py)
    raw_passes: list[float] = field(default_factory=list)  # as measured
    latencies: dict[str, list[float]] = field(default_factory=dict)  # every attempt, by op key
    accepted: set[str] = field(default_factory=set)  # keys of ops that returned an output
    attempted: int = 0
    attempted_items: int = 0
    failed: int = 0
    refused: int = 0
    items: int = 0
    errors: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # read during the first pass, before the checks of its last op


class Workload:
    name = ""
    item = "items"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list[Op] = []
        self.tracer: Tracer | None = None
        self.pacer: Pacer | None = None
        self.dumps = json.dumps
        self.seen: dict[str, tuple[str, list[str]]] = {}
        self.digests = json.loads(DIGESTS.read_text()).get(self.name, {}) if DIGESTS.exists() else {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def fingerprint(self, op: Op, out) -> str:
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed warm-up, once after the set-ups (in-process workloads warm
        up inside setup())."""

    def refused(self, op: Op, exc: Exception) -> bool:
        return False

    def attach(self, tracer: Tracer) -> None:
        tracer.install()
        self.dumps = tracer.wrap(JSON_DUMPS, json.dumps)
        self.tracer = tracer

    def detach(self) -> None:
        self.tracer.uninstall()
        self.dumps = json.dumps
        self.tracer = None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def verify(self, op: Op, out) -> list[str]:
        """Full check the first time an input is seen; afterwards the output
        must be byte-identical to the first one."""
        try:
            fp = self.fingerprint(op, out)
            if op.key in self.seen:
                first, errors = self.seen[op.key]
                return errors if fp == first else ["output changed between passes"]
            errors = self.check(op, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:  # malformed output
            return [f"unreadable output: {exc!r}"]
        want = self.digests.get(op.key)
        if want is not None and (not op.seeded or self.seed == DEFAULT_SEED) and want != fp:
            errors.append("output differs from the committed digest")
        self.seen[op.key] = (fp, errors)
        return errors


class EnumerateSweep(Workload):
    # The default `singinv enumerate --json` (19,530 chains, lengths 1-6,
    # weights 2-6), in-process through singinv.cli.main.  Many tiny graphs
    # go through the CLI's own per-row pipeline: the matrix is rebuilt
    # 78,120 times and linalg.solve runs 19,530 times, while delta_min
    # runs 0 times because the gradient shortcut decides every row.  The
    # control for a faster delta_min, the target of a one-pass pipeline.
    name = "enumerate-sweep"
    item = "rows"
    ROWS = 19_530

    def setup(self) -> None:
        self.cli, _, _ = load_singinv()
        self._main(["enumerate", "--json", "--max-length", "3"])  # warm-up
        self.ops = [Op("enumerate --json", ["enumerate", "--json"], self.ROWS, seeded=False)]

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def run(self, op):
        return self._main(op.payload)

    def fingerprint(self, op, out):
        return sha(out[1])

    def check(self, op, out):
        rc, stdout, stderr = out
        errors = [f"exit code {rc}"] if rc != 0 else []
        if stderr:
            errors.append(f"stderr: {stderr[:200]!r}")
        doc = json.loads(stdout)
        if doc["count"] != self.ROWS or len(doc["rows"]) != self.ROWS:
            errors.append(f"count {doc['count']} != {self.ROWS}")
        if doc["failures"]:
            errors.append(f"{len(doc['failures'])} row failures")
        return errors


class ReportCorpus(Workload):
    # Seeded documents (n in 2..6: chains, trees, cyclic, multi-edge,
    # genus > 0 and ADE graphs; 80% with a random p/q boundary, 50% with
    # nef data) through parse_input, build_report, report_to_dict +
    # json.dumps and render_text.  The library path with boundaries and
    # the check path: it uses the same cycles and linalg code as
    # enumerate-sweep in another way, so a pipeline change that helps one
    # path and slows the other shows here.
    name = "report-corpus"
    item = "reports"
    SIZE = 1000  # large enough that corpora of different seeds cost the same

    def setup(self) -> None:
        self.cli, self.report, _ = load_singinv()
        self.ops = [Op(f"doc-{k}", text) for k, text in enumerate(gen.report_corpus(self.seed, self.SIZE))]
        for op in self.ops[:40]:  # warm-up
            self.run(op)

    def run(self, op):
        parsed = self.cli.parse_input(op.payload)
        report = self.report.build_report(parsed.graph, parsed.boundary, parsed.nef)
        return self.dumps(self.report.report_to_dict(report), indent=2), self.report.render_text(report)

    def fingerprint(self, op, out):
        return sha(out[0] + "\0" + out[1])

    def check(self, op, out):
        return check.report_errors(json.loads(out[0]))


class HardGraphs(Workload):
    # A fixed ladder through build_report: the weight-5 chain with a
    # 1/2-coefficient boundary meeting every vertex (n = 8..14), boundary-
    # free long-arm forks (n = 10..13), and a chain and a fork at n = 32
    # and 64.  It is nearly all delta_min time: the worst case behind the
    # "polynomial worst case" goal.  While the 30-vertex active-set cap
    # stands, the n = 32 and 64 graphs are refused; they are counted and
    # printed as refused, not hidden.
    name = "hard-graphs"
    item = "graphs"

    def setup(self) -> None:
        cli, self.report, self.invariants = load_singinv()
        self.to_dict = self.report.report_to_dict  # unwrapped, for checks

        def parsed(text):
            p = cli.parse_input(text)
            return p.graph, p.boundary, p.nef

        self.ops = [Op(label, parsed(text), seeded=False) for label, text in gen.hard_ladder()]
        for doc in (gen.adversarial_chain(6), gen.long_arm_fork(7)):  # warm-up
            self.report.build_report(*parsed(json.dumps(doc)))

    def run(self, op):
        return self.report.build_report(*op.payload)

    def refused(self, op, exc):
        # Only the cap's own error on a graph above the cap is a refusal;
        # any other exception, on any graph, is a failure.
        limit = getattr(self.invariants, "ACTIVE_SET_LIMIT", None)
        return (
            isinstance(exc, ValueError)
            and str(exc).startswith("active-set search is capped")
            and limit is not None
            and op.payload[0].n > limit
        )

    def fingerprint(self, op, out):
        return sha(json.dumps(self.to_dict(out), indent=2))

    def check(self, op, out):
        return check.report_errors(self.to_dict(out))


class CliFiles(Workload):
    # Sequential subprocess runs of `python -m singinv.cli analyze --json`,
    # `analyze` and `check --json` over samples/ plus generated files, with
    # PYTHONPATH=src.  The only workload where interpreter start and
    # `import singinv` count (most of each run): core-compute changes
    # should not move it, import trimming should.
    name = "cli-files"
    item = "invocations"

    def setup(self) -> None:
        cli, report, _ = load_singinv()
        files = [(f"samples/{p.name}", p.read_text(), False) for p in sorted((ROOT / "samples").glob("*.json"))]
        folder = WORK / "cli-files"
        folder.mkdir(parents=True, exist_ok=True)
        for k, text in enumerate(gen.cli_documents(self.seed)):
            path = folder / f"doc-{k}.json"
            path.write_text(text)
            files.append((str(path.relative_to(ROOT)), text, True))
        self.ops = []
        for path, text, seeded in files:
            parsed = cli.parse_input(text)
            r = report.build_report(parsed.graph, parsed.boundary, parsed.nef)
            as_json = json.dumps(report.report_to_dict(r), indent=2) + "\n"
            commands = [(["analyze", "--json"], as_json), (["analyze"], report.render_text(r))]
            if parsed.nef is not None:
                commands.append((["check", "--json"], as_json))
            for argv, expected in commands:
                self.ops.append(Op(" ".join(argv + [path]), (argv + [path], expected), seeded=seeded))
        self.env = dict(os.environ, PYTHONPATH="src")

    def warm_up(self):
        # Not in setup(), so that setup_s is the import and the input build:
        # timed, these two children were most of it and made it spread.
        for op in self.ops[:2]:
            self.run(op)

    def attach(self, tracer):
        self.tracer = tracer  # each child process installs its own tracer

    def detach(self):
        self.tracer = None

    def run(self, op):
        argv, _ = op.payload
        if self.tracer is None:
            cmd = [sys.executable, "-m", "singinv.cli", *argv]
        else:
            out = WORK / "child-trace.json"
            cmd = [sys.executable, str(PERF / "child.py"), str(out), *argv]
        with self.pacer.paused() if self.pacer else contextlib.nullcontext():
            spawned = clock()
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
        if self.tracer is not None:
            payload = json.loads(out.read_text())
            self.tracer.counts["interp_s"] += payload["t0"] - spawned
            self.tracer.counts["import_s"] += payload["import_s"]
            self.tracer.absorb(payload, self.tracer.op)
        return proc.returncode, proc.stdout, proc.stderr

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def fingerprint(self, op, out):
        return sha(out[1])

    def check(self, op, out):
        rc, stdout, stderr = out
        argv, expected = op.payload
        errors = [f"exit code {rc}"] if rc != 0 else []
        if stderr:
            errors.append(f"stderr: {stderr[:200]!r}")
        if stdout != expected:
            errors.append("stdout differs from the in-process report")
        elif "--json" in argv:
            errors += check.report_errors(json.loads(stdout))
        return errors


WORKLOADS = {w.name: w for w in (EnumerateSweep, ReportCorpus, HardGraphs, CliFiles)}


def timed_phase(wl: Workload, seconds: float, min_passes: int) -> Phase:
    """Closed loop, one client: at least `min_passes` full passes over
    wl.ops, and no further pass once the last one would end past `seconds`."""
    ph = Phase()
    start = clock()
    while True:
        pass_s = raw_s = 0.0
        for op in wl.ops:
            if wl.tracer is not None:
                wl.tracer.op = ph.attempted
            ph.attempted += 1
            ph.attempted_items += op.items
            out, raw, dt = wl.pacer.timed(wl.run, op)
            if not ph.passes and op is wl.ops[-1]:
                # Before verify() parses this output, so that the checker's
                # memory does not raise the high-water mark.
                ph.peak_rss_mb = wl.peak_rss_mb()
            raw_s += raw
            pass_s += dt
            ph.latencies.setdefault(op.key, []).append(dt)
            if isinstance(out, Exception):
                if wl.refused(op, out):
                    ph.refused += 1
                else:
                    ph.failed += 1
                    ph.errors.append(f"{op.key}: {out!r}")
                continue
            ph.accepted.add(op.key)
            errors = wl.verify(op, out)
            if errors:
                ph.failed += 1
                ph.errors += [f"{op.key}: {e}" for e in errors]
            else:
                ph.items += op.items
        ph.passes.append(pass_s)
        ph.raw_passes.append(raw_s)
        if len(ph.passes) >= min_passes and clock() - start + raw_s > seconds:
            return ph


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def worst_op_s(ph: Phase) -> float:
    """Mean median time of the slowest 5% (at least one) of accepted operations."""
    times = sorted((statistics.median(ph.latencies[k]) for k in ph.accepted), reverse=True)
    top = times[: max(1, len(times) // 20)]
    return sum(top) / len(top)


def end_to_end(wl: Workload, setups: list[float], ph: Phase) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(ph.passes), "s"),
        "worst_op_s": (worst_op_s(ph), "s"),
        "peak_rss_mb": (ph.peak_rss_mb, "MB"),
    }


def print_end_to_end(wl: Workload, metrics: dict, ph: Phase) -> None:
    """The benchmark's end-to-end metrics under the names each workload uses.

    Times are at reference speed (pace.py); rates and percentiles are
    over every timed operation.
    """
    lat = sorted(x for v in ph.latencies.values() for x in v)
    p50, above50 = percentile(lat, 0.5)
    p90, above90 = percentile(lat, 0.9)
    n = len(lat)
    rate = ph.items / sum(ph.passes)
    shown = {
        "setup_s": f"{metrics['setup_s'][0]:.4f} s (median of {SETUPS} set-ups)",
        "wall_s": f"{metrics['wall_s'][0]:.4f} s (median of {len(ph.passes)} passes of {len(wl.ops)} ops)",
        "fail_ratio": f"{(ph.failed + ph.refused) / ph.attempted:.4f} failed/attempted "
        f"({ph.failed} failed + {ph.refused} refused of {ph.attempted})",
        "peak_rss_mb": f"{metrics['peak_rss_mb'][0]:.1f} MB",
        "rows_per_s": f"{rate:.1f} rows/s" if wl.name == "enumerate-sweep" else None,
        "reports_per_s": f"{rate:.2f} reports/s" if wl.name == "report-corpus" else None,
        "report_ms_p50": f"{p50 * 1e3:.3f} ms (n={n}, {above50} above)" if wl.name == "report-corpus" else None,
        "report_ms_p90": f"{p90 * 1e3:.3f} ms (n={n}, {above90} above)" if wl.name == "report-corpus" else None,
        "worst_graph_s": f"{metrics['worst_op_s'][0]:.4f} s" if wl.name == "hard-graphs" else None,
        "invocation_ms_p50": f"{p50 * 1e3:.2f} ms (n={n}, {above50} above)" if wl.name == "cli-files" else None,
        "invocation_ms_p90": f"{p90 * 1e3:.2f} ms (n={n}, {above90} above)" if wl.name == "cli-files" else None,
    }
    for name, text in shown.items():
        print(f"  {name:<18} {text or 'n/a on this workload'}")
    print(f"  {'worst_op_s':<18} {metrics['worst_op_s'][0]:.4f} s; throughput {rate:.3f} {wl.item}/s")


def per_layer(tracer: Tracer, ph: Phase, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced phase, per item (row, report, graph
    or invocation) unless the name says otherwise."""
    t = tracer.totals()
    items = ph.attempted_items
    c = tracer.counts

    def ms(name, kind="incl"):
        return (t[name][kind] * 1e3 / items, "ms")

    def calls(name):
        return (t[name]["calls"] / items, "count")

    dmin = t["invariants.delta_min"]
    return {
        "cli.interp_ms": (c["interp_s"] * 1e3 / items, "ms"),
        "cli.import_ms": (c["import_s"] * 1e3 / items, "ms"),
        "cli.parse_input_ms": ms("cli.parse_input"),
        "cli.main_self_ms": ms("cli.main", "self"),
        "graph.validate_ms": ms("graph.validate"),
        "graph.intersection_matrix_calls": calls("graph.intersection_matrix"),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_ms": ms("linalg.solve"),
        "linalg.det_bits_max": (c["det_bits_max"], "bits"),
        "cycles.fundamental_cycle_ms": ms("cycles.fundamental_cycle"),
        "cycles.laufer_steps": (c["laufer_steps"] / items, "count"),
        "cycles.canonical_cycle_ms": ms("cycles.canonical_cycle"),
        "cycles.boundary_cycle_ms": ms("cycles.boundary_cycle"),
        "cycles.boundary_cycle_calls": calls("cycles.boundary_cycle"),
        "invariants.delta_min_ms": ms("invariants.delta_min"),
        "invariants.delta_min_calls": calls("invariants.delta_min"),
        "invariants.delta_min_solves": (dmin["solves"] / dmin["calls"] if dmin["calls"] else 0.0, "count"),
        "invariants.delta_min_useful_ratio": (dmin["calls"] / dmin["solves"] if dmin["solves"] else 0.0, "ratio"),
        "invariants.active_set_size": (
            c["active_set_total"] / c["delta_min_results"] if c["delta_min_results"] else 0.0, "count"
        ),
        "invariants.check_hypotheses_ms": ms("invariants.check_hypotheses"),
        "invariants.mu_ms": ms("invariants.mu"),
        "invariants.delta_y_ms": ms("invariants.delta_y"),
        "classify.classify_ms": ms("classify.classify"),
        "report.build_report_self_ms": ms("report.build_report", "self"),
        "report.to_dict_ms": ms("report.report_to_dict"),
        "report.json_dumps_ms": ms(JSON_DUMPS),
        "report.render_text_ms": ms("report.render_text"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def print_self_times(tracer: Tracer, ph: Phase) -> None:
    rows = sorted(tracer.totals().items(), key=lambda kv: -kv[1]["self"])
    print(f"  self time by span over {ph.attempted} ops ({len(tracer.span_name)} spans):")
    for name, row in rows:
        if row["calls"]:
            print(f"    {name:<30} self {row['self']:9.4f} s  incl {row['incl']:9.4f} s  calls {row['calls']}")


def record_digests(name: str) -> None:
    wl = WORKLOADS[name](DEFAULT_SEED)
    wl.setup()
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests[name] = {}
    for op in wl.ops:
        try:
            out = wl.run(op)
        except Exception as exc:
            if not wl.refused(op, exc):
                raise
            continue
        errors = wl.check(op, out)
        if errors:
            raise SystemExit(f"perfbench: {op.key}: {errors}")
        digests[name][op.key] = wl.fingerprint(op, out)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "singinv" / "__init__.py").is_file() or not (ROOT / "samples").is_dir():
        print(f"perfbench: no singinv checkout at {ROOT} (src/singinv and samples/ are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.record_digests:
        record_digests(args.workload)
        return 0

    # One CPU for this process and its children, so that the reference
    # kernel (pace.py) runs on the CPU whose speed it stands for.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload](args.seed)
    wl.pacer = Pacer()
    with wl.pacer:
        return measure(args, wl)


def measure(args: argparse.Namespace, wl: Workload) -> int:
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        gc.collect()  # the previous set-up's garbage, so that this one does not pay for it
        out, raw, scaled = wl.pacer.timed(wl.setup)
        if isinstance(out, Exception):
            raise out
        setups.append(scaled)
        raw_setups.append(raw)
    wl.warm_up()
    print(
        f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
        f"python {platform.python_version()}  nproc {os.cpu_count()}  "
        f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}  loop closed, 1 client"
    )
    if args.trace == 0:
        ph = timed_phase(wl, args.seconds, MIN_PASSES)
        metrics = end_to_end(wl, setups, ph)
        print_end_to_end(wl, metrics, ph)
        print(f"  as measured, before scaling: setup {statistics.median(raw_setups):.4f} s, "
              f"pass {statistics.median(ph.raw_passes):.4f} s, machine speed "
              f"{statistics.median(ph.raw_passes) / metrics['wall_s'][0]:.3f}x the reference's time")
        phases = [ph]
    else:
        plain = timed_phase(wl, args.seconds * UNTRACED_SHARE, 1)
        tracer = Tracer()
        wl.attach(tracer)
        try:
            ph = timed_phase(wl, args.seconds * (1 - UNTRACED_SHARE), 1)
        finally:
            wl.detach()
        overhead = statistics.median(ph.passes) - statistics.median(plain.passes)
        metrics = per_layer(tracer, ph, overhead)
        print_self_times(tracer, ph)
        path = WORK / f"trace-{wl.name}.tsv"
        tracer.write_tsv(path)
        print(f"  spans written to {path.relative_to(ROOT)}; tracing overhead {overhead:+.4f} s per pass")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:.6g} {unit}")
        phases = [plain, ph]
    errors = [e for p in phases for e in p.errors]
    for e in errors[:20]:
        print(f"  FAILED {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
