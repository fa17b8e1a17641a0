"""File-driven command-line front end.

Verbs: ``verify`` (all four expressions plus agreement verdicts), ``ihara``
(the vertex determinant data), ``hashimoto``/``euler``/``exp`` (single
expressions), ``spectrum`` (direct vs factorization-derived walk spectra),
and ``fixtures`` (write a bundled instance).  Reports are byte-deterministic
for the exact-arithmetic commands.  argparse declares the grammar and writes
help and errors; a plain argv is read off its declarations (``_read_plain``).

Exit codes: 0 success / all agree, 1 mathematical mismatch, 2 input error
(including a bad flag value, a path that cannot be opened, an ``ihara``
instance above MAX_IHARA_VERTICES, and an instance or a series order too
large for the available memory), 3 internal defect (a ``ZetaError``, such as
closed-path power sums that give a non-integer exponential numerator, or
any other ``ValueError``, ``ArithmeticError`` or ``RuntimeError``, such as
an inexact polynomial division or a failed eigensolve); errors are one
``error:`` line on stderr, never a traceback.  Only ``spectrum`` loads numpy,
on its first call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .algebra import render_rational
from .digraph import GraphError, GraphMode
from .instances import (
    ParseError,
    _INTEGER,
    _open,
    _quote,
    fixture_text,
    instance_digraph,
    instance_weights,
    load_instance,
)
from .walk import (
    WalkError,
    eigenvalues_numeric,
    grover_spectrum_via_zeta,
    grover_transition,
    spectrum_deviation,
    szegedy_spectrum_via_factorization,
    szegedy_transition,
    unitarity_defect,
)
from .zeta import (
    ZetaError,
    ZetaReport,
    euler_truncated,
    exponential_truncated,
    hashimoto,
    ihara_digraph,
    ihara_graph,
    verify_expressions,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# The most vertices ``ihara`` takes.  Its report prints every entry of the
# n x n tables A and D, and X for a digraph, zeros included, and holds it
# in memory: at 1,000 vertices a digraph's report is 3,000,010 lines (41 MB,
# about 300 MB peak RSS), and at 10,000 it would not fit in 8 GB.  A larger
# instance is an input error, refused before any table is built.
MAX_IHARA_VERTICES = 1_000


def exit_code_for_report(report: ZetaReport) -> int:
    return EXIT_OK if report.all_agree else EXIT_MISMATCH


class _Report:
    """The report's lines, each written in its format as it is added: text
    "key value" and "VERDICT name status", records "key=value" and
    "verdict.name=status"."""

    def __init__(self, records: bool):
        self.sep = "=" if records else " "
        self.verdict_head = "verdict." if records else "VERDICT "
        self.lines: list[str] = []

    def add(self, key: str, value) -> None:
        self.lines.append(f"{key}{self.sep}{value}")

    def verdict(self, name: str, agree: bool, detail=None) -> None:
        status = "agree" if agree else ("MISMATCH" + (f" {detail}" if detail else ""))
        self.lines.append(f"{self.verdict_head}{name}{self.sep}{status}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _instance_header(ns, command: str, inst) -> _Report:
    """A report in ns's format that starts with the instance's header lines."""
    rep = _Report(ns.format == "records")
    rep.add("command", command)
    rep.add("instance", inst.source)
    rep.add("mode", inst.mode.value)
    rep.add("vertices", inst.vertex_count)
    if inst.mode is GraphMode.SYMMETRIC:
        rep.add("edges", len(inst.pairs))
    rep.add("arcs", inst.arc_count)
    return rep


def _load(ns):
    inst = load_instance(ns.instance)
    d = instance_digraph(inst)
    return inst, d, instance_weights(inst, d)


def _order(ns, d) -> int:
    return ns.order if ns.order is not None else max(10, d.arc_count)


def cmd_verify(ns) -> tuple[str, int]:
    inst, d, w = _load(ns)
    report = verify_expressions(d, w, _order(ns, d))
    rep = _instance_header(ns, "verify", inst)
    rep.add("order", report.order)
    # a value equal to one already rendered prints as it did: the series
    # have one order, and a matching Ihara side is det(I - t*M) itself
    agree = {v.name: v.agree for v in report.verdicts}
    expo = report.exponential.render()
    h = report.hashimoto.render()
    rep.add("exponential", expo)
    rep.add("euler", expo if agree["exponential-vs-euler"] else report.euler.render())
    rep.add("hashimoto", h)
    rep.add("hashimoto-series", expo if agree["exponential-vs-hashimoto"] else report.hashimoto_series.render())
    rep.add("ihara", h if agree["hashimoto-vs-ihara"] else report.ihara_rhs.render())
    for v in report.verdicts:
        rep.verdict(v.name, v.agree, v.detail)
    rep.add("overall", "agree" if report.all_agree else "MISMATCH")
    return rep.text(), exit_code_for_report(report)


def _table_entries(rep: _Report, name: str, table: dict, n: int) -> None:
    """Every entry of an n x n table given by its nonzero {(i, j): value};
    an absent entry prints as 0.  Each line is written in the report's
    format here, as ``_Report.add`` would write it."""
    sep, lines = rep.sep, rep.lines
    for i in range(n):
        for j in range(n):
            x = table.get((i, j))
            if x is None:
                text = "0"
            else:
                text = x.render() if hasattr(x, "render") else render_rational(x)
            lines.append(f"{name}[{i}][{j}]{sep}{text}")


def cmd_ihara(ns) -> tuple[str, int]:
    inst, d, w = _load(ns)
    if d.vertex_count > MAX_IHARA_VERTICES:
        raise GraphError(
            f"ihara takes at most {MAX_IHARA_VERTICES} vertices, as its report prints every entry"
            f" of its n x n tables; the instance has {d.vertex_count}"
        )
    rep = _instance_header(ns, "ihara", inst)
    if d.mode is GraphMode.GENERAL:
        data = ihara_digraph(d, w)
        for pair, f in zip(data.pairs, data.f_factors):
            rep.add(f"f({pair.u},{pair.v})", f.render())
        _table_entries(rep, "A", data.a, d.vertex_count)
        _table_entries(rep, "D", data.d_ul, d.vertex_count)
        _table_entries(rep, "X", data.x_ul, d.vertex_count)
    else:
        data = ihara_graph(d, w)
        rep.add("prefactor-exponent", data.prefactor_exponent)
        _table_entries(rep, "A", data.a_g, d.vertex_count)
        _table_entries(rep, "D", data.d_g, d.vertex_count)
        rep.add("vertex-det", data.vertex_det.render())
    # a matching rhs is det(I - t*M) itself, rendered once, as in cmd_verify
    h = data.hashimoto.render()
    rep.add("rhs", h if data.agree else data.rhs.render())
    rep.add("hashimoto", h)
    rep.verdict("hashimoto-vs-ihara", data.agree)
    rep.add("overall", "agree" if data.agree else "MISMATCH")
    return rep.text(), EXIT_OK if data.agree else EXIT_MISMATCH


def cmd_hashimoto(ns) -> tuple[str, int]:
    inst, d, w = _load(ns)
    rep = _instance_header(ns, "hashimoto", inst)
    rep.add("hashimoto", hashimoto(d, w).render())
    return rep.text(), EXIT_OK


def cmd_euler(ns) -> tuple[str, int]:
    inst, d, w = _load(ns)
    order = _order(ns, d)
    rep = _instance_header(ns, "euler", inst)
    rep.add("order", order)
    rep.add("euler", euler_truncated(d, w, order).render())
    return rep.text(), EXIT_OK


def cmd_exp(ns) -> tuple[str, int]:
    inst, d, w = _load(ns)
    order = _order(ns, d)
    rep = _instance_header(ns, "exp", inst)
    rep.add("order", order)
    rep.add("exponential", exponential_truncated(d, w, order).render())
    return rep.text(), EXIT_OK


def _spectrum_lines(name: str, values, sep: str) -> list[str]:
    """The report lines ``name[i]`` of ``values`` sorted by real, then
    imaginary part, with ``sep`` after the key; a float prints with
    imaginary part +0.  printf-style %+.10f gives the digits of format spec
    +.10f at a lower cost per call."""
    line = f"{name}[%d]{sep}%+.10f%+.10fj"
    keys = sorted([(z.real, z.imag) for z in values])
    return [line % (i, re, im) for i, (re, im) in enumerate(keys)]


def cmd_spectrum(ns) -> tuple[str, int]:
    inst = load_instance(ns.instance)
    if inst.mode is not GraphMode.SYMMETRIC:
        raise WalkError("spectrum requires a graph-mode instance")
    g = instance_digraph(inst)
    rep = _instance_header(ns, "spectrum", inst)
    rep.add("walk", ns.walk)
    if ns.walk == "grover":
        u = grover_transition(g)
        derived = grover_spectrum_via_zeta(g)
    else:
        u = szegedy_transition(g, inst.prob)
        derived = szegedy_spectrum_via_factorization(g, inst.prob)
    direct = eigenvalues_numeric(u)
    rep.add("unitarity-defect", f"{unitarity_defect(u):.3e}")
    rep.lines += _spectrum_lines("direct", direct, rep.sep)
    rep.lines += _spectrum_lines("derived", derived, rep.sep)
    deviation = spectrum_deviation(direct, derived)
    rep.add("max-deviation", f"{deviation:.3e}")
    agree = deviation <= ns.tolerance
    rep.verdict("spectrum", agree)
    rep.add("overall", "agree" if agree else "MISMATCH")
    return rep.text(), EXIT_OK if agree else EXIT_MISMATCH


def cmd_fixtures(ns) -> tuple[str, int]:
    try:
        text = fixture_text(ns.name)
    except KeyError as exc:
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return "", EXIT_INPUT
    if ns.output:
        with _open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return "", EXIT_OK
    return text, EXIT_OK


def _positive_int(value: str) -> int:
    """An order from 1 to sys.maxsize - 1: a series of order n has n + 1
    coefficients, a list length that must fit in an index.  The token is
    an integer as the instance parser reads one (``_INTEGER``): int() alone
    would also take "1_0" and non-ASCII digits."""
    try:
        if not _INTEGER.fullmatch(value):
            raise ValueError(value)
        n = int(value)
    except ValueError:  # not an integer, or more digits than int() converts
        raise argparse.ArgumentTypeError(f"invalid order {_quote(value)}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("order must be >= 1")
    if n >= sys.maxsize:
        raise argparse.ArgumentTypeError(f"order must be < {sys.maxsize}")
    return n


def _positive_tolerance(value: str) -> float:
    """A positive finite float, spelled in ASCII: float() alone would also
    take "1_0", non-ASCII digits and surrounding whitespace."""
    try:
        if "_" in value or not value.isascii() or value != value.strip():
            raise ValueError(value)
        eps = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {_quote(value)}") from None
    if not (math.isfinite(eps) and eps > 0):
        raise argparse.ArgumentTypeError("tolerance must be a positive finite number")
    return eps


# The exact verbs, in the order the help lists them: (verb, handler, help,
# takes --order).
_EXACT_VERBS = (
    ("verify", cmd_verify, "compute all expressions and compare", True),
    ("ihara", cmd_ihara, "vertex determinant data and identity check", False),
    ("hashimoto", cmd_hashimoto, "det(I - t*M)", False),
    ("euler", cmd_euler, "prime-cycle product, truncated", True),
    ("exp", cmd_exp, "exponential expression, truncated", True),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Each verb's handler
    looks up the library functions it calls when it runs."""
    parser = argparse.ArgumentParser(
        prog="zetawalk",
        description="weighted zeta functions of multi-digraphs and quantum-walk spectra",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, func, help_text, takes_order in _EXACT_VERBS:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("instance", help="instance file path")
        p.add_argument("--format", choices=("text", "records"), default="text")
        if takes_order:
            p.add_argument(
                "--order", type=_positive_int, default=None, help="series truncation order"
            )
        p.set_defaults(func=func)

    p = sub.add_parser("spectrum", help="walk spectrum, direct vs derived")
    p.add_argument("instance", help="graph-mode instance file path")
    p.add_argument("walk", choices=("grover", "szegedy"))
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--tolerance", type=_positive_tolerance, default=1e-8)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fixtures", help="write a bundled instance file")
    p.add_argument("name", help="fixture name")
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_fixtures)

    return parser


@functools.cache
def _plain_verbs() -> dict:
    """verb -> (positionals, {option string: action}, defaults), read off
    ``build_parser()``'s declarations, where every argument but -h takes
    one value."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verbs = {}
    for verb, p in sub.choices.items():
        actions = [a for a in p._actions if a.default is not argparse.SUPPRESS]  # not -h
        verbs[verb] = (
            [a for a in actions if not a.option_strings],
            {s: a for a in actions for s in a.option_strings},
            {**{a.dest: a.default for a in actions}, **p._defaults, sub.dest: verb},
        )
    return verbs


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace ``build_parser().parse_args(argv)`` gives a plain argv,
    else None.  A plain argv is a verb, its positionals in order, then
    one-value options, each given at most once as ``--name value`` or
    ``-o value``, where no token after the verb that fills an argument
    starts with "-" and each passes its argument's type and choices.  Any
    other argv is argparse's to parse, so that its help, usage and error
    messages stay its own."""
    verb = _plain_verbs().get(argv[0]) if argv else None
    if verb is None:
        return None
    positionals, options, defaults = verb
    n = len(positionals) + 1
    if len(argv) < n or (len(argv) - n) % 2:
        return None
    slots = [*zip(positionals, argv[1:n]), *zip(map(options.get, argv[n::2]), argv[n + 1 :: 2])]
    values = dict(defaults)
    given = set()
    for action, token in slots:
        if action is None or action.dest in given or token.startswith("-"):
            return None
        given.add(action.dest)
        try:
            value = token if action.type is None else action.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _read_plain(argv) or build_parser().parse_args(argv)
    try:
        text, code = ns.func(ns)
    except (ParseError, GraphError, WalkError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except MemoryError:
        sys.stderr.write(
            "error: out of memory: the instance or the series order is too large for this machine\n"
        )
        return EXIT_INPUT
    except (ZetaError, ValueError, ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"error: internal defect: {exc}\n")
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
