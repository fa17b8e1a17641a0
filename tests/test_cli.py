import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from zetawalk.algebra import Poly, QQ, RatFunc, Series
from zetawalk import cli
from zetawalk.cli import exit_code_for_report, main
from zetawalk.digraph import GraphMode
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
from zetawalk.zeta import ConsistencyError, IharaIdentityError, Verdict, ZetaReport

from conftest import random_connected_graph, random_probability


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
    w = instance_weights(inst)
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
    assert code == 2
    assert "available" in err and "triangle" in err


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


def test_cli_spectrum_szegedy_large_graphs(tmp_path, rng):
    # at this size charpoly coefficients no longer agree to 1e-8; spectra must
    for i in range(6):
        g = random_connected_graph(rng, min_vertices=12, max_vertices=48, max_edges=96)
        edges = tuple((g.arcs[a].tail, g.arcs[a].head) for a in range(0, g.arc_count, 2))
        inst = Instance(GraphMode.SYMMETRIC, g.vertex_count, edges, prob=random_probability(rng, g))
        path = tmp_path / f"large{i}.zw"
        path.write_text(render_instance(inst), encoding="utf-8")
        code, out, err = run_cli("spectrum", str(path), "szegedy")
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


def test_cli_spectrum_rejects_loops(tmp_path):
    path = write_fixture(tmp_path, "paper-graph")
    code, _, err = run_cli("spectrum", path, "grover")
    assert code == 2 and "loop" in err


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


def test_cli_rejects_nonpositive_order(tmp_path):
    path = write_fixture(tmp_path, "triangle")
    with pytest.raises(SystemExit) as exc:
        run_cli("euler", path, "--order", "0")
    assert exc.value.code == 2


@pytest.mark.parametrize("fixture", ["triangle", "p3"])
@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf", "abc"])
def test_cli_spectrum_rejects_bad_tolerance(tmp_path, fixture, tolerance):
    path = write_fixture(tmp_path, fixture)
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", path, "szegedy" if fixture == "p3" else "grover", "--tolerance", tolerance)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "verb, target, error",
    [
        ("verify", "verify_expressions", ConsistencyError("N_2 mismatch: enumeration gives 1, trace gives 2")),
        ("ihara", "ihara_digraph", IharaIdentityError("vertex determinant expression disagrees")),
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


def test_exit_code_for_report_contract():
    agree = Verdict("exponential-vs-euler", True, None)
    bad = Verdict("hashimoto-vs-ihara", False, "at t^2")
    one = Series.one(QQ, 3)
    poly = Poly.one(QQ)
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
