"""Command-line interface: analyze, check, enumerate, continuant, pullback.

Exit codes: 0 success, 1 validation error (bad input, bad graph),
2 assertion failure (enumerate row checks or a delta_min oracle
mismatch), 3 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .classify import ShapeKind, SingularityKind
from .continuant import continuant, inverse_entry
from .cycles import BoundaryData, boundary_component, exceptional_pullback
from .graph import DualGraph, GraphValidationError, build_graph, validate
from .invariants import DEFAULT_EPSILON, analyze
from .report import (
    NefData,
    SingularityReport,
    build_report,
    render_text,
    report_to_dict,
)


class InputError(ValueError):
    """Malformed input document; the message carries field context."""


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not assertion
    # failures (exit 2, reserved for enumerate/oracle mismatches)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class ParsedInput(NamedTuple):
    graph: DualGraph
    boundary: BoundaryData
    nef: NefData | None


_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")

# Input caps.  At MAX_VERTICES the worst known inputs take under half
# a second, apart from stars whose fundamental cycle needs thousands of
# rounds: one of 95 vertices takes about two minutes (README, "Limits").
# Together the caps keep every reported number within Python's
# 4300-digit string conversion limit: det N <= 10^600 (Hadamard) and the
# boundary denominator <= 10^192, so the largest printed value,
# (1 - mu)^2 * delta, has a denominator of about 3,200 digits at most.
MAX_VERTICES = 100
MAX_COMPONENTS = 32  # boundary components
# one edge per vertex pair; parallel edges are written as one multiplicity
MAX_EDGES = MAX_VERTICES * (MAX_VERTICES - 1) // 2
MAX_INTEGER = 10**6  # |n| for every integer and for both parts of p/q


def _int_literal(text: str) -> int:
    """int(text) for a decimal literal; one too long to lie within
    MAX_INTEGER becomes MAX_INTEGER + 1 (with its sign) unconverted, so
    the field check can reject it by name."""
    if len(text.lstrip("-").lstrip("0")) > len(str(MAX_INTEGER)):
        return -MAX_INTEGER - 1 if text.startswith("-") else MAX_INTEGER + 1
    return int(text)


def _loads(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer literal past Python's own digit limit
        return json.loads(text, parse_int=_int_literal)


def _bounded(value: int, where: str) -> int:
    if abs(value) > MAX_INTEGER:
        raise InputError(f"{where}: integer exceeds the size cap {MAX_INTEGER}")
    return value


def parse_rational(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: non-rational literal {value!r}")
    if isinstance(value, int):
        return Fraction(_bounded(value, where))
    if isinstance(value, str) and _RATIONAL_RE.match(value):
        num, _, den = value.partition("/")
        return Fraction(
            _bounded(_int_literal(num), where), _bounded(_int_literal(den or "1"), where)
        )
    raise InputError(
        f"{where}: non-rational literal {value!r} (use an integer or a 'p/q' string)"
    )


def _require_int(value: object, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: expected an integer, got {value!r}")
    if _bounded(value, where) < minimum:
        raise InputError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _capped_list(value: list, what: str, cap: int) -> list:
    if len(value) > cap:
        raise InputError(f"'{what}' has {len(value)} entries, more than the cap of {cap}")
    return value


def _require_str(value: object, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise InputError(f"{where}: expected a nonempty string, got {value!r}")
    return value


def parse_input(text: str) -> ParsedInput:
    """Parse the JSON input document; see README for the format."""
    try:
        doc = _loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"syntax error: {exc}") from exc
    except RecursionError:
        raise InputError("document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("top level must be a JSON object")
    known = {"vertices", "edges", "boundary", "nef"}
    for key in doc:
        if key not in known:
            raise InputError(f"unknown top-level key {key!r}")

    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InputError("'vertices' must be a nonempty list")
    vertices = []
    for k, item in enumerate(_capped_list(raw_vertices, "vertices", MAX_VERTICES)):
        where = f"vertices[{k}]"
        if not isinstance(item, dict):
            raise InputError(f"{where}: expected an object")
        for key in item:
            if key not in {"id", "weight", "genus"}:
                raise InputError(f"{where}: unknown key {key!r}")
        vid = _require_str(item.get("id"), f"{where}.id")
        weight = _require_int(item.get("weight"), f"{where}.weight", 1)
        genus = _require_int(item.get("genus", 0), f"{where}.genus", 0)
        vertices.append((vid, weight, genus))

    edges = []
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InputError("'edges' must be a list")
    for k, item in enumerate(_capped_list(raw_edges, "edges", MAX_EDGES)):
        where = f"edges[{k}]"
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise InputError(f"{where}: expected [a, b] or [a, b, multiplicity]")
        a = _require_str(item[0], f"{where}[0]")
        b = _require_str(item[1], f"{where}[1]")
        mult = _require_int(item[2], f"{where}[2]", 1) if len(item) == 3 else 1
        edges.append((a, b, mult))

    graph = build_graph(vertices, edges)

    components = []
    raw_boundary = doc.get("boundary")
    if raw_boundary is None:
        raw_boundary = []
    elif not isinstance(raw_boundary, list):
        raise InputError("'boundary' must be a list")
    for k, item in enumerate(_capped_list(raw_boundary, "boundary", MAX_COMPONENTS)):
        where = f"boundary[{k}]"
        if not isinstance(item, dict):
            raise InputError(f"{where}: expected an object")
        for key in item:
            if key not in {"name", "coeff", "meets"}:
                raise InputError(f"{where}: unknown key {key!r}")
        name = _require_str(item.get("name"), f"{where}.name")
        coeff = parse_rational(item.get("coeff"), f"{where}.coeff")
        if coeff < 0 or coeff > 1:
            raise InputError(f"{where}.coeff: coefficient {coeff} out of [0, 1]")
        raw_meets = item.get("meets", {})
        if not isinstance(raw_meets, dict):
            raise InputError(f"{where}.meets: expected an object of id -> count")
        meets = [0] * graph.n
        for vid, count in raw_meets.items():
            if vid not in graph.index:
                raise InputError(f"{where}.meets: unknown vertex reference {vid!r}")
            meets[graph.index[vid]] = _require_int(
                count, f"{where}.meets[{vid!r}]", 0
            )
        components.append(boundary_component(name, coeff, meets))

    nef = None
    raw_nef = doc.get("nef")
    if raw_nef is not None:
        if not isinstance(raw_nef, dict):
            raise InputError("'nef' must be an object")
        for key in raw_nef:
            if key not in {"M2", "minMC"}:
                raise InputError(f"nef: unknown key {key!r}")
        if "M2" not in raw_nef or "minMC" not in raw_nef:
            raise InputError("nef: both 'M2' and 'minMC' are required")
        nef = NefData(
            m2=parse_rational(raw_nef["M2"], "nef.M2"),
            min_mc=parse_rational(raw_nef["minMC"], "nef.minMC"),
        )

    return ParsedInput(graph=graph, boundary=BoundaryData(tuple(components)), nef=nef)


def _read_input(path: str) -> ParsedInput:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_input(handle.read())


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="")


def _emit_report(args: argparse.Namespace, report: SingularityReport) -> None:
    # only the form that is printed is built
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(render_text(report), end="")


def _cmd_analyze(args: argparse.Namespace) -> int:
    parsed = _read_input(args.file)
    report = build_report(
        parsed.graph,
        parsed.boundary,
        parsed.nef,
        epsilon=args.epsilon,
        verify_delta_min=args.oracle,
    )
    _emit_report(args, report)
    if report.oracle_matches is False:
        print("error: delta_min oracle disagrees with the LCP solution",
              file=sys.stderr)
        return 2
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    parsed = _read_input(args.file)
    if parsed.nef is None:
        raise InputError("missing nef data: 'check' needs {\"nef\": {\"M2\", \"minMC\"}}")
    report = build_report(
        parsed.graph, parsed.boundary, parsed.nef, epsilon=args.epsilon
    )
    _emit_report(args, report)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    # only enumerate builds graph families: the other subcommands do not
    # pay for importing them
    from . import families

    for flag, value in (("--limit", args.limit), ("--max-length", args.max_length)):
        if value < 0:
            raise InputError(f"{flag} {value} is negative")
    forks = []
    if args.forks:  # the all-2 chains A_n are already in the chain sweep
        forks = [(name, g) for name, g in families.rdp_family() if not name.startswith("A")]
        forks.append(("smooth", families.smooth_graph()))
    total = families.chain_family_size(args.max_length, args.max_weight, stop=args.limit)
    if total + len(forks) > args.limit:
        raise InputError(
            f"family has more than {args.limit} rows, the row limit "
            "(raise it with --limit)"
        )
    if args.max_length > MAX_VERTICES:
        raise InputError(
            f"--max-length {args.max_length} exceeds the vertex cap {MAX_VERTICES}"
        )
    # the first draw checks --max-weight: draw it before any output
    next(families.iter_chain_weights(args.max_length, args.max_weight), None)
    sweep = families.chain_sweep(args.max_length, args.max_weight)
    chains = (("chain(" + ",".join(map(str, w)) + ")", graph) for w, graph in sweep)
    # each row is written as soon as it is checked: memory stays flat in
    # the family size, and a reader that stops early stops the sweep
    write = sys.stdout.write
    if args.json:
        # json.dumps(..., indent=2) lays each row out as the f-string below
        # does, and quotes a str with encode_basestring_ascii, the C
        # function behind its default ensure_ascii=True, and a bool as true
        # or false: the bytes are the same, without a dict and an encoder
        # per row.  An f-string also builds the row at its exact size
        quote = json.encoder.encode_basestring_ascii
        write('{\n  "rows": [')
    else:
        print(f"{'label':<28} {'shape':<12} {'kind':<9} {'lt':<3} {'delta_y':<10} delta_min")
    shapes = {member: member.value for member in ShapeKind}
    kinds = {member: member.value for member in SingularityKind}
    count = 0
    failures = []
    for label, graph in itertools.chain(chains, forks):
        validate(graph)
        a = analyze(graph)
        cls, dy = a.classification, a.delta_y
        if cls.kind is SingularityKind.SMOOTH:
            ok, rule = dy == 4, "smooth point must have delta_y = 4"
        elif cls.kind is SingularityKind.RDP:
            ok, rule = dy == 2, "RDP must have delta_y = 2"
        else:  # 0 < dy < 2 in integers: a Fraction's denominator is positive
            ok = not cls.log_terminal or 0 < dy.numerator < 2 * dy.denominator
            rule = "log-terminal point must have 0 < delta_y < 2"
        if not ok:
            failures.append(f"{label}: {rule}, got {dy}")
        shape, kind, lt = shapes[cls.shape.kind], kinds[cls.kind], cls.log_terminal
        delta_y, delta_min = str(dy), str(a.delta_min.value)
        if args.json:
            write(
                f'{"," if count else ""}\n    {{\n      "label": {quote(label)},'
                f'\n      "shape": {quote(shape)},\n      "kind": {quote(kind)},'
                f'\n      "log_terminal": {"true" if lt else "false"},'
                f'\n      "delta_y": {quote(delta_y)},'
                f'\n      "delta_min": {quote(delta_min)}\n    }}'
            )
        else:
            print(
                f"{label:<28} {shape:<12} {kind:<9} "
                f"{'yes' if lt else 'no':<3} {delta_y:<10} {delta_min}"
            )
        count += 1
    if args.json:
        # the rest as indent=2 writes it, past its empty rows list
        tail = json.dumps({"rows": [], "count": count, "failures": failures}, indent=2)
        write(("\n  ]" if count else "]") + tail.split("]", 1)[1] + "\n")
    else:
        print(f"total: {count} rows, {len(failures)} failures")
    for failure in failures:
        print(f"assertion failed: {failure}", file=sys.stderr)
    return 2 if failures else 0


def _parse_weights(text: str) -> tuple[int, ...]:
    parts = [part.strip() for part in text.split(",")]
    _capped_list(parts, "weights", MAX_VERTICES)
    if not all(re.fullmatch(r"-?[0-9]+", part) for part in parts):
        raise InputError(f"weights must be a comma-separated integer list, got {text!r}")
    return tuple(
        _bounded(_int_literal(part), f"weights[{k}]") for k, part in enumerate(parts)
    )


def _cmd_continuant(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights)
    value = continuant(weights)
    payload: dict = {
        "weights": list(weights),
        "continuant": str(value),
    }
    lines = [f"continuant: {value}"]
    if args.inverse is not None:
        i, j = args.inverse
        entry = inverse_entry(weights, i, j)
        payload["inverse"] = {"i": i, "j": j, "value": str(entry)}
        lines.append(f"inverse entry ({i}, {j}): {entry!s}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_pullback(args: argparse.Namespace) -> int:
    parsed = _read_input(args.file)
    validate(parsed.graph)
    parts = args.meets.split(",")
    if len(parts) != parsed.graph.n:
        raise InputError(
            f"--meets needs {parsed.graph.n} entries, got {len(parts)}"
        )
    meets = [parse_rational(part.strip(), f"meets[{k}]") for k, part in enumerate(parts)]
    result = exceptional_pullback(parsed.graph, meets)
    payload = {
        "vertex_ids": [v.id for v in parsed.graph.vertices],
        "meets": list(map(str, meets)),
        "exceptional_part": list(map(str, result)),
    }
    text = (
        "exceptional part of the pullback:\n"
        + "\n".join(
            f"  {v.id}: {c!s}"
            for v, c in zip(parsed.graph.vertices, result)
        )
        + "\n"
    )
    _emit(args, payload, text)
    return 0


def _epsilon_arg(text: str) -> Fraction:
    # argparse shows the text of an ArgumentTypeError, but replaces any
    # other error with "invalid _epsilon_arg value"
    try:
        value = parse_rational(text, repr(text))
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singinv",
        description=(
            "Exact singularity invariants (fundamental and canonical cycles, the "
            "delta family, mu) from the weighted dual graph of a normal surface "
            "singularity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full invariant report for one input file")
    analyze.add_argument("file")
    analyze.add_argument("--json", action="store_true", help="machine-readable output")
    analyze.add_argument(
        "--epsilon",
        type=_epsilon_arg,
        default=DEFAULT_EPSILON,
        help="stand-in value for the dihedral-fork delta' (default 1/1000)",
    )
    analyze.add_argument(
        "--oracle",
        action="store_true",
        help="re-verify delta_min by exhaustive active-set enumeration",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    check = sub.add_parser("check", help="evaluate the nef-divisor hypotheses")
    check.add_argument("file")
    check.add_argument("--json", action="store_true")
    check.add_argument("--epsilon", type=_epsilon_arg, default=DEFAULT_EPSILON)
    check.set_defaults(handler=_cmd_check)

    enum = sub.add_parser(
        "enumerate", help="sweep a graph family and verify the delta_y trichotomy"
    )
    enum.add_argument("--max-length", type=int, default=6)
    enum.add_argument("--max-weight", type=int, default=6)
    enum.add_argument(
        "--forks",
        action="store_true",
        help="include the all-weight-2 D/E forks and the smooth graph",
    )
    enum.add_argument("--limit", type=int, default=100_000, help="row cap")
    enum.add_argument("--json", action="store_true")
    enum.set_defaults(handler=_cmd_enumerate)

    cont = sub.add_parser("continuant", help="chain determinant calculus")
    cont.add_argument("weights", help="comma-separated weights, e.g. 2,3,5")
    cont.add_argument(
        "--inverse",
        nargs=2,
        type=int,
        metavar=("I", "J"),
        default=None,
        help="also print entry (I, J) of the inverse intersection form (1-based)",
    )
    cont.add_argument("--json", action="store_true")
    cont.set_defaults(handler=_cmd_continuant)

    pull = sub.add_parser(
        "pullback", help="exceptional part of a pullback from intersection counts"
    )
    pull.add_argument("file")
    pull.add_argument(
        "--meets",
        required=True,
        help="comma-separated intersection counts with each vertex, in order",
    )
    pull.add_argument("--json", action="store_true")
    pull.set_defaults(handler=_cmd_pullback)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.handler(args)
    except (InputError, GraphValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
