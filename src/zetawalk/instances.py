"""Line-oriented instance files and the bundled fixtures.

Format (``#`` starts a comment, blank lines are ignored)::

    mode digraph            # or: mode graph
    vertices <n>
    arc <id> <tail> <head>  # digraph mode; ids contiguous from 0
    edge <id> <u> <v>       # graph mode; edge i induces arcs 2i=(u,v), 2i+1=(v,u)
    tau1 <arc-id> <p/q>     # optional; missing weights default to 1
    tau2 <arc-id> <p/q>
    prob <arc-id> <p/q>     # graph mode only; transition probabilities

Integers are ``[-+]?[0-9]+`` and rationals ``-?[0-9]+(/[0-9]+)?``; floats
are rejected so that reports stay byte-deterministic.  Weight lines must
follow the arc/edge block, a weight may be given at most once per arc, and
arc ids in graph mode refer to the induced arcs (edge i contributes arc 2i
in the written direction and arc 2i+1 reversed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .digraph import Digraph, GraphMode, build_digraph, symmetric_digraph
from .zeta import WeightAssignment


class ParseError(ValueError):
    """Malformed instance file; carries the offending line number."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


# int() alone would also take "1_0" and non-ASCII digits such as "\u0663".
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"[-+]?[0-9]+")

# Parse errors quote at most this many characters of an offending token.
_ECHO_LIMIT = 40

# The largest vertex count an instance may declare.  A digraph allocates
# per-vertex tables, so a count far above any real instance is refused.
MAX_VERTICES = 10_000


@dataclass
class Instance:
    mode: GraphMode
    vertex_count: int
    pairs: tuple[tuple[int, int], ...]
    tau1: dict[int, Fraction] = dataclass_field(default_factory=dict)
    tau2: dict[int, Fraction] = dataclass_field(default_factory=dict)
    prob: dict[int, Fraction] = dataclass_field(default_factory=dict)
    source: str = "<instance>"

    @property
    def arc_count(self) -> int:
        if self.mode is GraphMode.SYMMETRIC:
            return 2 * len(self.pairs)
        return len(self.pairs)


def _quote(tok: str) -> str:
    """repr(tok), or the repr of its first _ECHO_LIMIT characters and its
    length when longer, so an error line stays short whatever the input."""
    if len(tok) <= _ECHO_LIMIT:
        return repr(tok)
    return f"{tok[:_ECHO_LIMIT]!r}... ({len(tok)} characters)"


def _integer(tok: str, source: str, line_no: int) -> int:
    """tok as an int, or a ParseError citing ``line_no``."""
    if not _INTEGER.fullmatch(tok):
        raise ParseError(source, line_no, f"expected an integer, got {_quote(tok)}")
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise ParseError(
            source, line_no, f"integer of {len(tok)} characters exceeds the integer digit limit"
        ) from None


def _rational(tok: str, source: str, line_no: int) -> Fraction:
    """tok as a Fraction, or a ParseError citing ``line_no``."""
    if not _RATIONAL.fullmatch(tok):
        raise ParseError(source, line_no, f"expected a rational p/q, got {_quote(tok)}")
    num, _, den = tok.partition("/")
    try:
        n, d = int(num), int(den) if den else 1
    except ValueError:  # more digits than int() converts
        raise ParseError(
            source, line_no, f"rational of {len(tok)} characters exceeds the integer digit limit"
        ) from None
    if d == 0:
        raise ParseError(source, line_no, f"zero denominator in {_quote(tok)}")
    return Fraction(n, d)


def parse_instance(text: str, source: str = "<instance>") -> Instance:
    """The instance that ``text`` declares, or a ParseError citing its line.

    Each line's comment is dropped and the rest split on whitespace, once
    per line; the tokens then take one ordered list of checks, so the first
    fault of a line names the error.
    """
    mode = None
    vertices = None
    pairs: list[tuple[int, int]] = []
    weights: dict[str, dict[int, Fraction]] = {"tau1": {}, "tau2": {}, "prob": {}}
    tau1, tau2, prob = weights.values()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key, rest = tokens[0], tokens[1:]
        if key in weights:
            if key == "prob" and mode is not GraphMode.SYMMETRIC:
                raise ParseError(source, line_no, "prob lines are only allowed in graph mode")
            if not pairs:
                raise ParseError(source, line_no, f"{key} line before any arcs are declared")
            if len(rest) != 2:
                raise ParseError(source, line_no, f"{key} needs: {key} <arc-id> <p/q>")
            aid = _integer(rest[0], source, line_no)
            arcs = 2 * len(pairs) if mode is GraphMode.SYMMETRIC else len(pairs)
            if not 0 <= aid < arcs:
                raise ParseError(source, line_no, f"arc id {aid} out of range (have {arcs} arcs)")
            store = weights[key]
            if aid in store:
                raise ParseError(source, line_no, f"duplicate {key} for arc {aid}")
            store[aid] = _rational(rest[1], source, line_no)
        elif key in ("arc", "edge"):
            if mode is None or vertices is None:
                raise ParseError(source, line_no, f"{key} line before mode/vertices are declared")
            expected = "edge" if mode is GraphMode.SYMMETRIC else "arc"
            if key != expected:
                raise ParseError(
                    source, line_no, f"{key} line not allowed in {mode.value} mode (use {expected})"
                )
            if tau1 or tau2 or prob:
                raise ParseError(source, line_no, f"{key} line after weight lines")
            if len(rest) != 3:
                raise ParseError(source, line_no, f"{key} needs: {key} <id> <a> <b>")
            ident = _integer(rest[0], source, line_no)
            if ident != len(pairs):
                raise ParseError(
                    source, line_no, f"{key} ids must be contiguous from 0; expected {len(pairs)}"
                )
            a = _integer(rest[1], source, line_no)
            b = _integer(rest[2], source, line_no)
            for v in (a, b):
                if not 0 <= v < vertices:
                    raise ParseError(
                        source, line_no, f"{key} {ident} endpoint {v} out of range for {vertices} vertices"
                    )
            pairs.append((a, b))
        elif key == "mode":
            if mode is not None:
                raise ParseError(source, line_no, "duplicate mode line")
            if rest == ["digraph"]:
                mode = GraphMode.GENERAL
            elif rest == ["graph"]:
                mode = GraphMode.SYMMETRIC
            else:
                raise ParseError(
                    source, line_no, f"mode must be 'digraph' or 'graph', got {_quote(' '.join(rest))}"
                )
        elif key == "vertices":
            if vertices is not None:
                raise ParseError(source, line_no, "duplicate vertices line")
            if len(rest) != 1:
                raise ParseError(source, line_no, "vertices needs one integer")
            vertices = _integer(rest[0], source, line_no)
            if vertices < 0:
                raise ParseError(source, line_no, "vertex count must be nonnegative")
            if vertices > MAX_VERTICES:
                raise ParseError(
                    source, line_no, f"vertex count {vertices} exceeds the limit {MAX_VERTICES}"
                )
        else:
            raise ParseError(source, line_no, f"unknown directive {_quote(key)}")
    if mode is None:
        raise ParseError(source, 0, "missing mode line")
    if vertices is None:
        raise ParseError(source, 0, "missing vertices line")
    return Instance(mode, vertices, tuple(pairs), tau1, tau2, prob, source)


def load_instance(path) -> Instance:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(str(path), line, f"not UTF-8 text (byte {exc.start})") from None
    return parse_instance(text, source=str(path))


def render_instance(inst: Instance) -> str:
    lines = [f"mode {inst.mode.value}", f"vertices {inst.vertex_count}"]
    kind = "arc" if inst.mode is GraphMode.GENERAL else "edge"
    for i, (a, b) in enumerate(inst.pairs):
        lines.append(f"{kind} {i} {a} {b}")
    for name, store in (("tau1", inst.tau1), ("tau2", inst.tau2), ("prob", inst.prob)):
        for aid in sorted(store):
            lines.append(f"{name} {aid} {store[aid]}")
    return "\n".join(lines) + "\n"


def instance_digraph(inst: Instance) -> Digraph:
    if inst.mode is GraphMode.GENERAL:
        return build_digraph(inst.vertex_count, inst.pairs)
    return symmetric_digraph(inst.vertex_count, inst.pairs)


def instance_weights(inst: Instance, d: Digraph) -> WeightAssignment:
    """The instance's tau1/tau2 over QQ on its digraph ``d``, missing weights 1."""
    return WeightAssignment.from_maps(d, tau1=inst.tau1, tau2=inst.tau2)


FIXTURES: dict[str, str] = {
    "paper-digraph": """\
# three vertices, two loops at 0, double arcs both ways between 0 and 1,
# single opposite arcs 1<->2 and 0<->2
mode digraph
vertices 3
arc 0 0 0
arc 1 0 0
arc 2 0 1
arc 3 0 1
arc 4 1 0
arc 5 1 0
arc 6 1 2
arc 7 2 1
arc 8 0 2
arc 9 2 0
""",
    "paper-graph": """\
# the same ten arcs as paper-digraph, induced by five edges: a loop at 0,
# a double edge 0-1, and single edges 1-2 and 0-2
mode graph
vertices 3
edge 0 0 0
edge 1 0 1
edge 2 0 1
edge 3 1 2
edge 4 0 2
""",
    "triangle": """\
mode graph
vertices 3
edge 0 0 1
edge 1 1 2
edge 2 0 2
""",
    "c4": """\
mode graph
vertices 4
edge 0 0 1
edge 1 1 2
edge 2 2 3
edge 3 0 3
""",
    "k4": """\
mode graph
vertices 4
edge 0 0 1
edge 1 0 2
edge 2 0 3
edge 3 1 2
edge 4 1 3
edge 5 2 3
""",
    "p3": """\
mode graph
vertices 3
edge 0 0 1
edge 1 1 2
prob 0 1
prob 1 1/3
prob 2 2/3
prob 3 1
""",
}


def fixture_text(name: str) -> str:
    if name not in FIXTURES:
        known = ", ".join(sorted(FIXTURES))
        raise KeyError(f"unknown fixture {name!r}; available: {known}")
    return FIXTURES[name]


def fixture_instance(name: str) -> Instance:
    return parse_instance(fixture_text(name), source=f"fixture:{name}")


def fixture_digraph(name: str) -> Digraph:
    return instance_digraph(fixture_instance(name))
