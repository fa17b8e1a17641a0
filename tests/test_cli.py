import argparse
import io
import math
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetawalk.algebra import Poly, RatFunc, Series
from zetawalk import cli, walk, zeta
from zetawalk.cli import exit_code_for_report, main
from zetawalk.digraph import GraphMode, symmetric_digraph
from zetawalk.instances import (
    FIXTURES,
    MAX_VERTICES,
    Instance,
    ParseError,
    fixture_text,
    instance_digraph,
    instance_weights,
    parse_instance,
    render_instance,
)
from zetawalk.zeta import (
    ConsistencyError, Verdict, WeightAssignment, ZetaReport, hashimoto, ihara_graph,
)

from conftest import random_connected_graph, random_probability
from oracles import spectrum_report_lines
from test_zeta import perturb_vertex_det


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.zw"
    path.write_text(fixture_text(name), encoding="utf-8")
    return str(path)


def test_parse_round_trip():
    inst = parse_instance(fixture_text("paper-digraph"), source="x")
    text = render_instance(inst)
    again = parse_instance(text, source="y")
    assert again.pairs == inst.pairs
    assert again.mode == inst.mode and again.vertex_count == inst.vertex_count


def test_parse_weights_and_probs():
    text = "mode graph\nvertices 2\nedge 0 0 1\ntau1 0 3/2\ntau2 1 -2\nprob 0 1\nprob 1 1\n"
    inst = parse_instance(text)
    assert inst.tau1 == {0: Fraction(3, 2)}
    assert inst.tau2 == {1: Fraction(-2)}
    d = instance_digraph(inst)
    w = instance_weights(inst, d)
    assert w.tau1[0] == Fraction(3, 2) and w.tau1[1] == 1
    assert w.tau2[1] == -2 and w.tau2[0] == 1
    assert d.arc_count == 2


def test_parse_errors_cite_lines():
    with pytest.raises(ParseError) as exc:
        parse_instance("mode digraph\nvertices 2\narc 0 0 9\n", source="f")
    assert exc.value.line == 3 and "out of range" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_instance("mode digraph\nvertices 1\narc 0 0 0\ntau1 0 1\ntau1 0 2\n")
    assert exc.value.line == 5 and "duplicate" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_instance("mode digraph\nvertices 1\narc 1 0 0\n")
    assert exc.value.line == 3 and "contiguous" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_instance("mode digraph\nvertices 1\narc 0 0 0\ntau1 0 0.5\n")
    assert "rational" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_instance("mode digraph\nvertices 1\narc 0 0 0\nprob 0 1\n")
    assert "graph mode" in str(exc.value)


@pytest.mark.parametrize(
    "text, token",
    [
        ("mode graph\nvertices 1_1\n", "'1_1'"),
        ("mode graph\nvertices 3\nedge 0 1_0 2\n", "'1_0'"),
        ("mode graph\nvertices 3\nedge 0 0 1\ntau1 0 \u0663/\u0664\n", "'\u0663/\u0664'"),
    ],
    ids=["underscore-vertices", "underscore-endpoint", "arabic-indic-rational"],
)
def test_parse_accepts_ascii_digits_only(text, token):
    # int() reads "1_1" as 11 and takes any Unicode decimal digit; the format does not
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line == text.count("\n") and token in str(exc.value)


def test_fixture_texts_parse():
    for name in FIXTURES:
        inst = parse_instance(fixture_text(name), source=name)
        assert instance_digraph(inst).arc_count == inst.arc_count


def test_cli_fixtures_bit_exact(tmp_path):
    code, out, _ = run_cli("fixtures", "paper-digraph")
    assert code == 0 and out == FIXTURES["paper-digraph"]
    dest = tmp_path / "tri.zw"
    code, out, _ = run_cli("fixtures", "triangle", "-o", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text(encoding="utf-8") == FIXTURES["triangle"]


def test_cli_fixtures_unknown_lists_available():
    code, out, err = run_cli("fixtures", "nope")
    assert (code, out) == (2, "")
    assert err == "error: unknown fixture 'nope'; available: c4, k4, p3, paper-digraph, paper-graph, triangle\n"
    # a long name is echoed cut short, on the one error line
    code, out, err = run_cli("fixtures", "x" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown fixture 'xxx") and err.count("\n") == 1
    assert "... (5000 characters); available: c4," in err and len(err) < 200


def test_cli_verify_agrees(tmp_path):
    path = write_fixture(tmp_path, "paper-digraph")
    code, out, _ = run_cli("verify", path, "--order", "6")
    assert code == 0
    assert "VERDICT exponential-vs-euler agree" in out
    assert "VERDICT hashimoto-vs-ihara agree" in out
    assert "overall agree" in out


def test_cli_verify_records_format(tmp_path):
    path = write_fixture(tmp_path, "paper-graph")
    code, out, _ = run_cli("verify", path, "--order", "6", "--format", "records")
    assert code == 0
    assert "verdict.hashimoto-vs-ihara=agree" in out
    assert "overall=agree" in out
    assert all("=" in line for line in out.strip().splitlines())


def test_cli_verify_deterministic(tmp_path):
    path = write_fixture(tmp_path, "paper-digraph")
    outputs = {run_cli("verify", path, "--order", "8")[1] for _ in range(3)}
    assert len(outputs) == 1


def test_cli_ihara_digraph_report(tmp_path):
    path = write_fixture(tmp_path, "paper-digraph")
    code, out, _ = run_cli("ihara", path)
    assert code == 0
    assert "f(0,0) 1 + 2*t" in out
    assert "f(0,1) 1 + -4*t^2" in out
    assert "f(0,2) 1 + -1*t^2" in out
    assert "f(1,2) 1 + -1*t^2" in out
    assert "VERDICT hashimoto-vs-ihara agree" in out


def test_cli_ihara_graph_report(tmp_path):
    path = write_fixture(tmp_path, "paper-graph")
    code, out, _ = run_cli("ihara", path)
    assert code == 0
    assert "prefactor-exponent 2" in out
    assert "A[0][0] 2" in out
    assert "D[0][0] 5" in out
    assert "VERDICT hashimoto-vs-ihara agree" in out


def test_cli_ihara_empty_instance(tmp_path):
    path = tmp_path / "empty.zw"
    path.write_text("mode digraph\nvertices 1\n", encoding="utf-8")
    code, out, _ = run_cli("ihara", str(path))
    assert code == 0
    assert "rhs 1" in out and "hashimoto 1" in out


def test_cli_single_expression_commands(tmp_path):
    path = write_fixture(tmp_path, "triangle")
    code, out, _ = run_cli("hashimoto", path)
    assert code == 0 and "hashimoto 1 + -2*t^3 + 1*t^6" in out
    code, out, _ = run_cli("euler", path, "--order", "4")
    assert code == 0 and "euler 1 + 2*t^3" in out
    code, out, _ = run_cli("exp", path, "--order", "4")
    assert code == 0 and "exponential 1 + 2*t^3" in out


def test_verify_prints_each_disagreeing_value_from_its_own_render(tmp_path, monkeypatch):
    # verify prints the exponential's line again for a series that agrees
    # with it and the hashimoto line for a matching Ihara side; a value
    # that disagrees prints from its own render
    real, reports = zeta.verify_expressions, []

    def bump(s):
        return Series(s.coeffs[:-1] + (s.coeffs[-1] + 1,), s.order)

    def disagreeing(d, w, order):
        r = real(d, w, order)
        reports.append(ZetaReport(
            order=order,
            exponential=r.exponential,
            euler=bump(r.euler),
            hashimoto=r.hashimoto,
            hashimoto_series=bump(bump(r.hashimoto_series)),
            ihara_rhs=RatFunc(r.hashimoto, Poly([1, 1])),
            verdicts=tuple(Verdict(v.name, False, f"at t^{order}") for v in r.verdicts),
        ))
        return reports[-1]

    monkeypatch.setattr(cli, "verify_expressions", disagreeing)
    code, out, _ = run_cli("verify", write_fixture(tmp_path, "paper-graph"), "--order", "6")
    assert code == 1
    lines = dict(line.split(" ", 1) for line in out.splitlines() if not line.startswith("VERDICT"))
    (report,) = reports
    assert lines["euler"] == report.euler.render() != lines["exponential"]
    assert lines["hashimoto-series"] == report.hashimoto_series.render() != lines["exponential"]
    assert lines["ihara"] == report.ihara_rhs.render() != lines["hashimoto"]


@pytest.mark.parametrize("name", ["paper-digraph", "paper-graph"])
def test_ihara_prints_a_disagreeing_rhs_from_its_own_render(tmp_path, monkeypatch, name):
    # ihara prints the hashimoto line's render again for a matching rhs; a
    # perturbed vertex det gives an rhs that disagrees, printed from its own
    # render
    perturb_vertex_det(monkeypatch, 1)
    results = []
    for verb in ("ihara_digraph", "ihara_graph"):
        monkeypatch.setattr(cli, verb, lambda d, w, real=getattr(cli, verb): results.append(real(d, w)) or results[-1])
    code, out, _ = run_cli("ihara", write_fixture(tmp_path, name))
    assert code == 1
    lines = dict(line.split(" ", 1) for line in out.splitlines() if not line.startswith("VERDICT"))
    (data,) = results
    assert not data.agree
    assert lines["hashimoto"] == data.hashimoto.render()
    assert lines["rhs"] == data.rhs.render() != lines["hashimoto"]


@pytest.mark.parametrize(
    "verb", [["verify", "--order", "10"], ["hashimoto"], ["exp", "--order", "10"], ["euler", "--order", "10"]],
    ids=lambda argv: argv[0],
)
def test_exact_verbs_build_no_fraction_after_the_instance_is_read(monkeypatch, verb):
    # from the weights to the report every value is an int or an integer
    # pair; ihara is left out, since its A and D tables are Fractions by API
    built, counting = [], [False]
    real_new, real_load = Fraction.__new__, cli._load

    def counted_new(cls, *args, **kwargs):
        if counting[0]:
            built.append(args)
        return real_new(cls, *args, **kwargs)

    def load(ns):
        loaded = real_load(ns)
        counting[0] = True
        return loaded

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(cli, "_load", load)
    for path in sorted((Path(__file__).resolve().parent / "golden").glob("*.zw")):
        try:
            code, out, _ = run_cli(verb[0], str(path), *verb[1:])
        finally:
            counting[0] = False
        assert code == 0 and out
        assert built == [], path.stem


def test_cli_parser_is_built_once_and_calls_share_no_state(tmp_path):
    digraph = write_fixture(tmp_path, "paper-digraph")
    triangle = write_fixture(tmp_path, "triangle")
    calls = [
        ("verify", digraph, "--order", "5", "--format", "records"),
        ("euler", triangle),
        ("ihara", digraph),
        ("verify", triangle, "--order", "4"),
    ]
    in_sequence = [run_cli(*argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    for argv, result in zip(calls, in_sequence):
        cli.build_parser.cache_clear()  # a fresh parser, as in a new process
        assert run_cli(*argv) == result


_INSTANCE = ("instance", None, "instance file path", None)
_FORMAT = ("--format", "text", None, ("text", "records"))
_ORDER = ("--order", None, "series truncation order", None)
# verb -> (help, handler, (first option string or dest, default, help,
# choices) of each argument after -h), as the parser declared them before
# the exact verbs came from one table
PARSER = {
    "verify": ("compute all expressions and compare", "cmd_verify", (_INSTANCE, _FORMAT, _ORDER)),
    "ihara": ("vertex determinant data and identity check", "cmd_ihara", (_INSTANCE, _FORMAT)),
    "hashimoto": ("det(I - t*M)", "cmd_hashimoto", (_INSTANCE, _FORMAT)),
    "euler": ("prime-cycle product, truncated", "cmd_euler", (_INSTANCE, _FORMAT, _ORDER)),
    "exp": ("exponential expression, truncated", "cmd_exp", (_INSTANCE, _FORMAT, _ORDER)),
    "spectrum": (
        "walk spectrum, direct vs derived",
        "cmd_spectrum",
        (
            ("instance", None, "graph-mode instance file path", None),
            ("walk", None, None, ("grover", "szegedy")),
            _FORMAT,
            ("--tolerance", 1e-8, None, None),
        ),
    ),
    "fixtures": (
        "write a bundled instance file",
        "cmd_fixtures",
        (("name", None, "fixture name", None), ("-o", None, "write to a file instead of stdout", None)),
    ),
}


def test_cli_parser_declares_every_verb_as_before():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert list(sub.choices) == list(helps) == list(PARSER)
    for verb, p in sub.choices.items():
        help_text, handler, arguments = PARSER[verb]
        assert (helps[verb], p.get_default("func").__name__) == (help_text, handler), verb
        actions = [(a.option_strings or [a.dest])[0] for a in p._actions]
        assert actions[0] == "-h", verb
        assert [(name, a.default, a.help, a.choices) for name, a in zip(actions[1:], p._actions[1:])] == list(arguments)
    assert sub.choices["fixtures"]._actions[2].option_strings == ["-o", "--output"]
    order_type = {verb: {a.dest: a.type for a in p._actions}.get("order") for verb, p in sub.choices.items()}
    assert {verb for verb, t in order_type.items() if t is cli._positive_int} == {"verify", "euler", "exp"}


def parse_with_argparse(argv):
    """vars() of build_parser().parse_args(argv), or its exit code when it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


VERBS = list(PARSER)
# exact and abbreviated option names, "=" forms, help, "--", values good and
# bad for each type and choice, a negative number and an empty string
ARGV_TOKENS = VERBS + [
    "f", "p3", "grover", "szegedy", "text", "records", "json", "10", "5", "0", "1_0", "-1", "",
    "nan", "1e-9", "--order", "--ord", "--order=10", "--format", "--form", "--format=records",
    "--tolerance", "--tol", "--tolerance=1e-9", "-o", "--output", "--out", "-op3.zw", "-h", "--help", "--",
]


# a declared option with a value its type or choices takes or refuses
OPTION_PAIRS = [
    (name, value)
    for names, values in (
        (("--order",), ("10", "5", "0", "1_0", "nan")),
        (("--format",), ("text", "records", "json")),
        (("--tolerance",), ("1e-9", "0", "1_0", "nan")),
        (("-o", "--output"), ("p3.zw", "")),
    )
    for name in names
    for value in values
]


def argv_near_plain(verb, positionals, options):
    return [verb, *positionals, *(token for pair in options for token in pair)]


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        # a verb, words, then (option, value) pairs: mostly plain, or nearly
        st.builds(
            argv_near_plain,
            st.sampled_from(VERBS),
            st.lists(st.sampled_from([t for t in ARGV_TOKENS if not t.startswith("-")]), min_size=1, max_size=2),
            st.lists(st.sampled_from(OPTION_PAIRS), max_size=2, unique_by=lambda pair: pair[0]),
        ),
        st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
    )
)
@example(["verify", "f", "--order", "1_0"])
@example(["hashimoto", "f", "--format", "json"])
@example(["spectrum", "f", "grover", "--tolerance", "nan"])
@example(["verify", "f", "--order", "5", "--order", "10"])
@example(["fixtures", "p3", "-o", "a.zw", "--output", "b.zw"])
@example(["verify", "--order", "10", "f"])
@example(["verify", "f", "--", "x"])
def test_plain_reader_declines_or_matches_argparse(argv):
    ns = cli._read_plain(argv)
    assert ns is None or vars(ns) == parse_with_argparse(argv)


@pytest.mark.parametrize(
    "argv",
    [
        # the console-script shapes of the CI workflow and perfbench/workloads.py
        ["verify", "f", "--order", "10"],
        ["ihara", "f"],
        ["hashimoto", "f", "--format", "records"],
        ["spectrum", "f", "grover", "--tolerance", "1e-9"],
        ["fixtures", "p3", "-o", "p3.zw"],
    ],
    ids=lambda argv: argv[0],
)
def test_the_workflow_and_benchmark_argv_shapes_are_plain(argv):
    ns = cli._read_plain(argv)
    assert ns is not None and vars(ns) == parse_with_argparse(argv)


@pytest.mark.parametrize("verb", ["verify", "euler", "exp"])
def test_cli_one_loop_at_order_1200(tmp_path, verb):
    # theta = tau1 * tau2 - 1 = 2 on the loop, so every expression is
    # 1/(1 - 2t); the walks are 1200 arcs deep and must not recurse
    path = tmp_path / "loop.zw"
    path.write_text("mode digraph\nvertices 1\narc 0 0 0\ntau1 0 3\n", encoding="utf-8")
    code, out, err = run_cli(verb, str(path), "--order", "1200")
    assert (code, err) == (0, "")
    assert f"{2**1200}*t^1200 + O(t^1201)" in out
    if verb == "verify":
        assert "overall agree" in out


def read_digits(text: str) -> int:
    """The int that a decimal digit string names, read 1000 digits at a time:
    int() refuses a string of more than 4300 digits by default."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def read_poly(text: str) -> list[Fraction]:
    """The coefficients, constant term first, of a rendered polynomial."""
    coeffs = {}
    for term in text.split(" + "):
        sign, num, den, t, power = re.fullmatch(r"(-?)(\d+)(?:/(\d+))?(\*t(?:\^(\d+))?)?", term).groups()
        value = Fraction(read_digits(num), read_digits(den or "1"))
        coeffs[int(power or bool(t))] = -value if sign else value
    return [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]


def report_values(out: str) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in out.splitlines())


def test_cli_verify_prints_every_digit_of_a_4800_digit_coefficient(tmp_path):
    # theta = 10^40 - 1 on the loop, so the t^120 coefficient of each series
    # is (10^40 - 1)^120, 4800 digits: past str()'s default limit of 4300
    path = tmp_path / "big.zw"
    path.write_text("mode digraph\nvertices 1\narc 0 0 0\ntau1 0 1" + "0" * 40 + "\n", encoding="utf-8")
    code, out, err = run_cli("verify", str(path), "--order", "120")
    assert (code, err) == (0, "")
    values = report_values(out)
    expected = (10**40 - 1) ** 120
    for name in ("exponential", "euler", "hashimoto-series"):
        last = values[name].split(" + ")[-2]
        assert last.endswith("*t^120") and len(last) == 4800 + len("*t^120")
        assert read_poly(last) == [0] * 120 + [expected]
    assert read_poly(values["ihara"]) == [1, -(10**40 - 1)]
    assert values["overall"] == "agree"


def test_cli_hashimoto_and_ihara_print_every_digit_of_large_results(tmp_path):
    # six tau1 of 1501 digits on a triangle: the determinants' coefficients
    # run to about 9000 digits
    big = int("1" + "7" * 1500)
    text = fixture_text("triangle") + "".join(f"tau1 {a} {big}\n" for a in range(6))
    path = tmp_path / "big-triangle.zw"
    path.write_text(text, encoding="utf-8")
    g = instance_digraph(parse_instance(text))
    w = WeightAssignment.from_maps(g, {a: big for a in range(6)})
    h = list(hashimoto(g, w).coeffs)
    assert max(abs(c).numerator.bit_length() for c in h) > 4300 * 3.33

    code, out, err = run_cli("hashimoto", str(path))
    assert (code, err) == (0, "")
    assert read_poly(report_values(out)["hashimoto"]) == h

    code, out, err = run_cli("ihara", str(path))
    assert (code, err) == (0, "")
    values = report_values(out)
    data = ihara_graph(g, w)
    for name in ("rhs", "hashimoto"):
        assert read_poly(values[name]) == h
    assert read_poly(values["vertex-det"]) == list(data.vertex_det.coeffs)
    assert read_poly(values["A[0][1]"]) == [big] and read_poly(values["D[0][0]"]) == [2 * big]
    assert values["overall"] == "agree"


def test_cli_spectrum_grover(tmp_path):
    path = write_fixture(tmp_path, "triangle")
    code, out, _ = run_cli("spectrum", path, "grover")
    assert code == 0
    assert "VERDICT spectrum agree" in out
    assert "direct[0]" in out and "derived[0]" in out


def test_cli_spectrum_szegedy_constants(tmp_path):
    path = write_fixture(tmp_path, "p3")
    code, out, _ = run_cli("spectrum", path, "szegedy")
    assert code == 0
    assert "VERDICT spectrum agree" in out


# Spectrum values for the report-line comparison: signed zeros, ties in the
# real part, conjugate pairs, floats beside complex numbers, infinities, NaN.
PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-12, -1e-12, 0.123456789012345, math.inf, -math.inf, math.nan)


def random_spectrum(rng) -> list:
    values = []
    for _ in range(rng.randint(0, 24)):
        x = rng.choice(PARTS) if rng.random() < 0.6 else rng.uniform(-1, 1)
        y = rng.choice(PARTS) if rng.random() < 0.6 else rng.uniform(-1, 1)
        kind = rng.random()
        if kind < 0.2:
            values.append(x)  # a float: its imaginary part prints as +0
        elif kind < 0.5:
            values += [complex(x, y), complex(x, -y)]  # a conjugate pair
        else:
            values.append(complex(x, y))
    rng.shuffle(values)
    return values


def reported_spectrum_lines(name, values, records):
    """``cli._spectrum_lines`` as a report in either format prints them,
    after one header line."""
    rep = cli._Report(records)
    rep.add("walk", "grover")
    rep.lines += cli._spectrum_lines(name, values, rep.sep)
    return rep.text().splitlines()[1:]


@pytest.mark.parametrize("records", [False, True], ids=["text", "records"])
def test_spectrum_lines_match_the_reference_formatter(records):
    rng = random.Random(29)
    for _ in range(400):
        values = random_spectrum(rng)
        assert reported_spectrum_lines("direct", values, records) == spectrum_report_lines("direct", values, records)
    # equal keys print differently, so their input order must survive the sort
    values = [complex(0.0, 1.0), complex(-0.0, 1.0), -0.0, 0.0, complex(0.0, -0.0)]
    assert reported_spectrum_lines("derived", values, records) == spectrum_report_lines("derived", values, records)


GOLDEN_GRAPHS = sorted(
    p for p in (Path(__file__).resolve().parent / "golden").glob("*.zw")
    if parse_instance(p.read_text(encoding="utf-8")).mode is GraphMode.SYMMETRIC
)


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("walk_name", ["grover", "szegedy"])
@pytest.mark.parametrize("golden", GOLDEN_GRAPHS, ids=lambda p: p.stem)
def test_spectrum_report_on_the_golden_graphs_matches_the_reference(tmp_path, golden, walk_name, fmt):
    # szegedy reads seeded random probabilities, added to a copy of the golden
    inst = parse_instance(golden.read_text(encoding="utf-8"))
    g = instance_digraph(inst)
    if walk_name == "szegedy":
        inst.prob = random_probability(random.Random(golden.stem), g)
    path = tmp_path / golden.name
    path.write_text(render_instance(inst), encoding="utf-8")
    code, out, err = run_cli("spectrum", str(path), walk_name, "--format", fmt)
    if code == 2:  # a vertex without edges: no walk, no spectrum lines
        assert out == "" and "minimum degree" in err
        return
    records = fmt == "records"
    if walk_name == "grover":
        direct = walk.eigenvalues_numeric(walk.grover_transition(g))
        derived = walk.grover_spectrum_via_zeta(g)
    else:
        direct = walk.eigenvalues_numeric(walk.szegedy_transition(g, inst.prob))
        derived = walk.szegedy_spectrum_via_factorization(g, inst.prob)
    expected = spectrum_report_lines("direct", direct, records) + spectrum_report_lines("derived", derived, records)
    assert code == 0 and [line for line in out.splitlines() if "direct[" in line or "derived[" in line] == expected


@pytest.mark.parametrize(
    "edits, message",
    [
        ([("prob 2 2/3", "prob 2 1/3")], "probabilities at vertex 1 sum to 2/3, expected 1"),
        ([("prob 1 1/3", "prob 1 0")], "probability 0 for arc 1 outside (0, 1]"),
        # an isolated vertex is named before the bad probability
        ([("vertices 3", "vertices 4"), ("prob 2 2/3", "prob 2 1/3")], "walks need minimum degree >= 1"),
    ],
)
def test_cli_spectrum_szegedy_names_the_first_bad_probability(tmp_path, edits, message):
    text = fixture_text("p3")
    for old, new in edits:
        text = text.replace(old, new)
    path = tmp_path / "bad.zw"
    path.write_text(text, encoding="utf-8")
    assert run_cli("spectrum", str(path), "szegedy") == (2, "", f"error: {message}\n")


def test_cli_spectrum_szegedy_large_graphs(tmp_path, rng):
    # at this size charpoly coefficients no longer agree to 1e-8; spectra must
    for i in range(6):
        g = random_connected_graph(rng, min_vertices=12, max_vertices=48, max_edges=96)
        edges = tuple(zip(g.tails[::2], g.heads[::2]))
        inst = Instance(GraphMode.SYMMETRIC, g.vertex_count, edges, prob=random_probability(rng, g))
        path = tmp_path / f"large{i}.zw"
        path.write_text(render_instance(inst), encoding="utf-8")
        code, out, err = run_cli("spectrum", str(path), "szegedy")
        assert code == 0, err
        assert "VERDICT spectrum agree" in out


@st.composite
def walk_instances(draw):
    """A connected simple graph (spanning tree plus extra edges, up to 10
    vertices) with rational transition probabilities p/q, q <= 9 * degree."""
    nv = draw(st.integers(2, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, nv)}
    all_pairs = [(u, v) for v in range(nv) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(all_pairs), max_size=2 * nv)))
    g = symmetric_digraph(nv, sorted(edges))
    prob = {}
    for v in range(nv):
        out = g.out_arcs(v)
        raw = draw(st.lists(st.integers(1, 9), min_size=len(out), max_size=len(out)))
        prob.update({a: Fraction(r, sum(raw)) for a, r in zip(out, raw)})
    return render_instance(Instance(GraphMode.SYMMETRIC, nv, tuple(sorted(edges)), prob=prob))


@settings(max_examples=80, deadline=None)
@given(walk_instances(), st.sampled_from(("grover", "szegedy")))
def test_cli_spectrum_agrees_property(text, walk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "walk.zw"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli("spectrum", str(path), walk)
    assert code == 0, err
    assert "VERDICT spectrum agree" in out


def test_cli_spectrum_requires_graph_mode(tmp_path):
    path = write_fixture(tmp_path, "paper-digraph")
    code, _, err = run_cli("spectrum", path, "grover")
    assert code == 2 and "graph-mode" in err


def test_cli_spectrum_szegedy_needs_probs(tmp_path):
    path = write_fixture(tmp_path, "triangle")
    code, _, err = run_cli("spectrum", path, "szegedy")
    assert code == 2 and "prob" in err


@pytest.mark.parametrize("walk", ["grover", "szegedy"])
def test_cli_spectrum_on_an_arcless_graph_agrees(tmp_path, walk):
    # no arc needs a probability, so szegedy needs no prob line either
    path = tmp_path / "empty.zw"
    path.write_text("mode graph\nvertices 0\n", encoding="utf-8")
    code, out, err = run_cli("spectrum", str(path), walk)
    assert (code, err) == (0, "")
    assert "\nVERDICT spectrum agree\n" in out


def test_cli_spectrum_on_a_loop_and_a_double_edge(tmp_path):
    path = write_fixture(tmp_path, "paper-graph")
    code, out, err = run_cli("spectrum", path, "grover")
    assert code == 0 and err == ""
    assert "\nVERDICT spectrum agree\n" in out


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.zw"
    path.write_text("mode digraph\nvertices 2\narc 0 0 5\n", encoding="utf-8")
    code, out, err = run_cli("verify", str(path))
    assert code == 2
    assert out == ""
    assert ":3:" in err


def test_cli_zero_denominator_exit_code(tmp_path):
    path = tmp_path / "zero.zw"
    path.write_text("mode digraph\nvertices 1\narc 0 0 0\ntau1 0 1/0\n", encoding="utf-8")
    code, out, err = run_cli("verify", str(path))
    assert code == 2 and out == ""
    assert ":4:" in err and "zero denominator" in err


def test_cli_oversized_rational_exit_code(tmp_path):
    # more digits than Python converts to an int by default (4300)
    path = tmp_path / "big.zw"
    path.write_text("mode digraph\nvertices 1\narc 0 0 0\ntau1 0 " + "7" * 5000 + "\n", encoding="utf-8")
    code, out, err = run_cli("verify", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and ":4:" in err and "digit limit" in err


@pytest.mark.parametrize(
    "lines", [["vertices " + "7" * 5000], ["vertices 2", "edge " + "7" * 5000 + " 0 1"]],
    ids=["vertices", "edge-id"],
)
def test_oversized_integer_names_the_digit_limit(lines):
    with pytest.raises(ParseError) as exc:
        parse_instance("\n".join(["mode graph", *lines]))
    message = str(exc.value)
    line_no = len(lines) + 1
    assert exc.value.line == line_no and f":{line_no}:" in message
    assert "digit limit" in message and len(message) < 200


@pytest.mark.parametrize(
    "lines",
    [
        ["mode graph", "vertices " + "x" * 5000],
        ["mode graph", "vertices 2", "edge 0 0 1", "prob 0 " + "y" * 5000],
        ["mode graph", "z" * 5000 + " 1"],
        ["mode " + "m" * 5000],
        ["mode digraph", "vertices 1", "arc 0 0 0", "tau1 0 1/" + "0" * 3000],
    ],
    ids=["integer", "rational", "directive", "mode", "zero-denominator"],
)
def test_parse_errors_clip_long_tokens(lines):
    with pytest.raises(ParseError) as exc:
        parse_instance("\n".join(lines))
    message = str(exc.value)
    assert exc.value.line == len(lines) and f":{len(lines)}:" in message
    assert len(message) < 200 and "characters)" in message


# Instance text from the directive vocabulary, well-formed or not, after a
# valid header in most examples so that arc and weight lines are reached.
DIRECTIVES = ("mode", "vertices", "arc", "edge", "tau1", "tau2", "prob", "node", "#")
TOKENS = ("digraph", "graph", "0", "1", "2", "-1", "1/2", "-3/4", "1/0", "0.5", "x", "7" * 5000)
HEADERS = ("", "mode digraph\nvertices 2\narc 0 0 1", "mode graph\nvertices 2\nedge 0 0 1")
instance_lines = st.tuples(
    st.sampled_from(DIRECTIVES), st.lists(st.sampled_from(TOKENS), max_size=4)
).map(lambda line: " ".join((line[0], *line[1])))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(HEADERS), st.lists(instance_lines, max_size=10))
@example(HEADERS[1], ["tau1 0 " + "7" * 5000])
def test_parse_instance_returns_an_instance_or_raises_parse_error(header, lines):
    try:
        inst = parse_instance("\n".join((header, *lines)))
    except ParseError:
        return
    assert isinstance(inst, Instance)


VERBS = (
    ("verify", "--order", "4"), ("euler", "--order", "4"), ("exp", "--order", "4"),
    ("ihara",), ("hashimoto",), ("spectrum", "grover"), ("spectrum", "szegedy"),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(HEADERS), st.lists(instance_lines, max_size=10), st.sampled_from(VERBS))
def test_every_verb_exits_with_a_documented_code(header, lines, verb):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.zw"
        path.write_text("\n".join((header, *lines)), encoding="utf-8")
        code, _, err = run_cli(verb[0], str(path), *verb[1:])
    assert code in (0, 1, 2, 3) and "Traceback" not in err


def test_vertex_count_limit():
    assert MAX_VERTICES >= 1000  # the largest walk graphs have 1000 vertices
    inst = parse_instance(f"mode graph\nvertices {MAX_VERTICES}\nedge 0 0 1\n")
    assert instance_digraph(inst).vertex_count == MAX_VERTICES
    with pytest.raises(ParseError) as exc:
        parse_instance(f"mode graph\nvertices {MAX_VERTICES + 1}\n")
    assert exc.value.line == 2 and "exceeds the limit" in str(exc.value)


def test_cli_huge_vertex_count_exit_code(tmp_path):
    path = tmp_path / "huge.zw"
    path.write_text("mode digraph\nvertices 1000000000\narc 0 0 1\n", encoding="utf-8")
    code, out, err = run_cli("verify", str(path))
    assert code == 2 and out == ""
    assert ":2:" in err and "exceeds the limit" in err


def test_cli_non_utf8_file_exit_code(tmp_path):
    path = tmp_path / "latin1.zw"
    path.write_bytes("mode digraph\n# caf\u00e9\nvertices 1\n".encode("latin-1"))
    code, out, err = run_cli("verify", str(path))
    assert code == 2 and out == ""
    assert ":2:" in err and "UTF-8" in err


def test_cli_missing_file_exit_code(tmp_path):
    code, _, err = run_cli("verify", str(tmp_path / "absent.zw"))
    assert code == 2 and "error" in err


def _params(cases):
    """pytest params (value, message), each named by its value, or by its
    length when long."""
    return [
        pytest.param(value, message, id=value if len(value) <= 40 else f"{len(value)}-characters")
        for value, message in cases
    ]


@pytest.mark.parametrize(
    "order, message",
    _params([
        ("0", "order must be >= 1"),
        (str(sys.maxsize), f"order must be < {sys.maxsize}"),
        ("99999999999999999999", f"order must be < {sys.maxsize}"),
        ("1.5", "invalid order '1.5'"),
        ("abc", "invalid order 'abc'"),
        ("1_0", "invalid order '1_0'"),
        ("\u0663", "invalid order '\u0663'"),
        ("7" * 5000, f"invalid order {'7' * 40!r}... (5000 characters)"),
    ]),
)
@pytest.mark.parametrize("verb", ["verify", "euler", "exp"])
def test_cli_rejects_nonpositive_order(tmp_path, verb, order, message):
    # an order from sys.maxsize up is no list length: refused, not an
    # OverflowError; a token int() cannot read is quoted, at most 40 characters
    path = write_fixture(tmp_path, "triangle")
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        main([verb, path, "--order", order])
    assert exc.value.code == 2
    errors = [l for l in err.getvalue().splitlines() if "error:" in l]
    assert errors == [f"zetawalk {verb}: error: argument --order: {message}"]
    assert len(errors[0]) < 200


@pytest.mark.parametrize("fixture", ["triangle", "p3"])
@pytest.mark.parametrize(
    "tolerance, message",
    _params([
        ("-1", "tolerance must be a positive finite number"),
        ("0", "tolerance must be a positive finite number"),
        ("nan", "tolerance must be a positive finite number"),
        ("inf", "tolerance must be a positive finite number"),
        ("abc", "invalid tolerance 'abc'"),
        ("1_0", "invalid tolerance '1_0'"),
        ("\u0661", "invalid tolerance '\u0661'"),
        (" 1e-8", "invalid tolerance ' 1e-8'"),
        ("x" * 5000, f"invalid tolerance {'x' * 40!r}... (5000 characters)"),
    ]),
)
def test_cli_spectrum_rejects_bad_tolerance(tmp_path, fixture, tolerance, message):
    path = write_fixture(tmp_path, fixture)
    walk = "szegedy" if fixture == "p3" else "grover"
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err):
        main(["spectrum", path, walk, "--tolerance", tolerance])
    assert exc.value.code == 2
    errors = [l for l in err.getvalue().splitlines() if "error:" in l]
    assert errors == [f"zetawalk spectrum: error: argument --tolerance: {message}"]
    assert len(errors[0]) < 200


FOREST = """\
mode graph
vertices 6
edge 0 0 1
edge 1 1 2
edge 2 3 4
edge 3 4 5
prob 0 1
prob 1 1/3
prob 2 2/3
prob 3 1
prob 4 1
prob 5 2/5
prob 6 3/5
prob 7 1
"""


@pytest.mark.parametrize("text", [fixture_text("p3"), FOREST], ids=["p3", "forest"])
def test_cli_spectrum_tolerance_bounds_only_the_verdict(tmp_path, text):
    # |E| < |V|: the +-1 roots the prefactor divides out do not depend on --tolerance
    path = tmp_path / "tree.zw"
    path.write_text(text, encoding="utf-8")
    derived = lambda out: [l for l in out.splitlines() if l.startswith("derived[")]
    code, out, err = run_cli("spectrum", str(path), "szegedy", "--tolerance", "1e-16")
    assert code in (0, 1) and "cannot cancel" not in err, err
    code_ref, out_ref, _ = run_cli("spectrum", str(path), "szegedy", "--tolerance", "1e-8")
    assert code_ref == 0
    assert derived(out) and derived(out) == derived(out_ref)


@pytest.mark.parametrize("fixture, order", [("p3", 10), ("k4", 12)])
@pytest.mark.parametrize("verb", ["verify", "euler", "exp"])
def test_cli_default_order_is_max_of_10_and_arc_count(tmp_path, fixture, order, verb):
    code, out, err = run_cli(verb, write_fixture(tmp_path, fixture))
    assert code == 0, err
    assert f"\norder {order}\n" in out


@pytest.mark.parametrize(
    "verb, target, error",
    [
        ("verify", "verify_expressions", ConsistencyError("the power sums give a non-integer exponential numerator at t^2")),
        ("ihara", "ihara_digraph", ConsistencyError("vertex determinant expression disagrees")),
    ],
)
def test_cli_internal_defect_exit_code(tmp_path, monkeypatch, verb, target, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, broken)
    path = write_fixture(tmp_path, "paper-digraph")
    code, out, err = run_cli(verb, path)
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(error) in err


@pytest.mark.parametrize(
    "verb, fixture, module, target, error",
    [
        ("ihara", "paper-digraph", zeta, "det_poly_matrix", ValueError("det_poly_matrix needs P(0) = I")),
        ("verify", "paper-graph", zeta, "det_poly_matrix", ValueError("det_poly_matrix needs P(0) = I")),
        ("hashimoto", "paper-graph", zeta, "char_poly_rows", ArithmeticError("a broken kernel")),
        ("spectrum", "triangle", cli, "eigenvalues_numeric", RuntimeError("eigenvalue iteration failed")),
    ],
    ids=["ihara-value-error", "verify-value-error", "hashimoto-arithmetic-error", "spectrum-runtime-error"],
)
def test_cli_library_invariant_failures_exit_3(tmp_path, monkeypatch, verb, fixture, module, target, error):
    # a plain ValueError, ArithmeticError or RuntimeError raised inside the
    # library is a broken invariant: one error line and exit 3, no traceback
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, target, broken)
    args = [verb, write_fixture(tmp_path, fixture)] + (["grover"] if verb == "spectrum" else [])
    code, out, err = run_cli(*args)
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err == f"error: internal defect: {error}\n"


OUT_OF_MEMORY ="error: out of memory: the instance or the series order is too large for this machine\n"


@pytest.mark.parametrize(
    "verb, fixture, target",
    [
        ("verify", "paper-digraph", "verify_expressions"),
        ("ihara", "paper-digraph", "ihara_digraph"),
        ("ihara", "paper-graph", "ihara_graph"),
        ("spectrum", "triangle", "grover_transition"),
    ],
)
def test_cli_out_of_memory_is_an_input_error(tmp_path, monkeypatch, verb, fixture, target):
    # an instance too large for the machine is refused like any other
    # oversized input, not reported as a mismatch by a traceback's exit 1
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    args = [verb, write_fixture(tmp_path, fixture)] + (["grover"] if verb == "spectrum" else [])
    code, out, err = run_cli(*args)
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert err == OUT_OF_MEMORY


@pytest.mark.parametrize("verb", ["verify", "exp", "euler"])
def test_cli_an_order_too_large_for_memory_is_named(tmp_path, verb):
    # the largest accepted order on a 3-arc instance: the series list cannot
    # be allocated, so MemoryError is raised at once, before any walk
    code, out, err = run_cli(verb, write_fixture(tmp_path, "triangle"), "--order", str(sys.maxsize - 1))
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == OUT_OF_MEMORY


def test_exit_code_for_report_contract():
    agree = Verdict("exponential-vs-euler", True, None)
    bad = Verdict("hashimoto-vs-ihara", False, "at t^2")
    one = Series([1], 3)
    poly = Poly([1])
    ok_report = ZetaReport(3, one, one, poly, one, RatFunc.from_poly(poly), (agree,))
    bad_report = ZetaReport(3, one, one, poly, one, RatFunc.from_poly(poly), (agree, bad))
    assert exit_code_for_report(ok_report) == 0
    assert exit_code_for_report(bad_report) == 1


def test_fixture_round_trip_reports_identical(tmp_path):
    src = write_fixture(tmp_path, "c4")
    inst = parse_instance(fixture_text("c4"), source="c4")
    rendered = tmp_path / "c4rt.zw"
    rendered.write_text(render_instance(inst), encoding="utf-8")
    _, out1, _ = run_cli("hashimoto", src)
    _, out2, _ = run_cli("hashimoto", str(rendered))
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("instance")]
    assert strip(out1) == strip(out2)


@pytest.mark.parametrize(
    "text",
    ["mode digraph\nvertices 10000\narc 0 0 1\n", "mode graph\nvertices 10000\nedge 0 0 1\n"],
    ids=["digraph", "graph"],
)
def test_cli_ten_thousand_vertices_with_one_arc(tmp_path, monkeypatch, text):
    # the vertex side materializes only the vertices that carry arcs: the
    # isolated ones are rows of the identity (digraph) or (1 - t^2) factors
    # (graph), so verify stays small although the instance is not
    sizes = []
    real = zeta.det_poly_matrix

    def recording(p, scale):
        sizes.append(len(p))
        return real(p, scale)

    monkeypatch.setattr(zeta, "det_poly_matrix", recording)
    path = tmp_path / "sparse.zw"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli("verify", str(path), "--order", "10")
    assert (code, err) == (0, "")
    assert "VERDICT hashimoto-vs-ihara agree\n" in out and out.endswith("overall agree\n")
    assert sizes and max(sizes) <= 4
    code, out, err = run_cli("hashimoto", str(path))
    assert (code, err) == (0, "") and out.endswith("hashimoto 1\n")


@pytest.mark.parametrize("kind", ["arc", "edge"], ids=["digraph", "graph"])
def test_cli_ihara_refuses_more_vertices_than_its_report_takes(tmp_path, monkeypatch, kind):
    # ihara prints every entry of its n x n tables, so above the limit it
    # exits 2 before any table is built; verify takes the same instance
    def unreachable(*args):
        raise AssertionError("ihara built tables above its limit")

    def instance(n):
        path = tmp_path / f"{n}.zw"
        path.write_text(f"mode {'digraph' if kind == 'arc' else 'graph'}\nvertices {n}\n{kind} 0 0 1\n", encoding="utf-8")
        return str(path)

    n = cli.MAX_IHARA_VERTICES + 1
    for target in ("ihara_digraph", "ihara_graph"):
        monkeypatch.setattr(cli, target, unreachable)
    for fmt in ("text", "records"):
        code, out, err = run_cli("ihara", instance(n), "--format", fmt)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == (
            f"error: ihara takes at most {cli.MAX_IHARA_VERTICES} vertices, as its report prints every entry"
            f" of its n x n tables; the instance has {n}\n"
        )
    monkeypatch.undo()
    code, out, err = run_cli("verify", instance(n), "--order", "4")
    assert (code, err) == (0, "") and out.endswith("overall agree\n")
    # the limit is the last count taken, here lowered to keep the report small
    monkeypatch.setattr(cli, "MAX_IHARA_VERTICES", 3)
    assert [run_cli("ihara", instance(n))[0] for n in (3, 4)] == [cli.EXIT_OK, cli.EXIT_INPUT]


@pytest.mark.parametrize(
    "args",
    [(verb, "a\0b") for verb, *_ in cli._EXACT_VERBS] + [("spectrum", "a\0b", "grover"), ("fixtures", "p3", "-o", "a\0b")],
    ids=lambda args: args[0],
)
def test_cli_a_path_open_refuses_is_an_input_error(args):
    # open raises ValueError, not OSError, for a path with a NUL byte; it is
    # an unusable path, exit 2 with one error line, not an internal defect
    code, out, err = run_cli(*args)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.count("\n") == 1 and err.startswith("error: cannot open 'a\\x00b': ")
