"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N: PASS|FAIL`` line (visible with
``pytest -s`` or on failure).  Exact criteria run with zero tolerance on
rational arithmetic; spectral criteria use the stated 1e-8 / 1e-9 bounds.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from zetawalk.algebra import Poly, RatFunc, Series
from zetawalk.cli import exit_code_for_report, main
from zetawalk.digraph import arc_adjacency, build_digraph, symmetric_digraph
from zetawalk.instances import fixture_digraph, fixture_text
from zetawalk.walk import (
    eigenvalues_numeric,
    grover_spectrum_via_zeta,
    grover_transition,
    spectrum_deviation,
    szegedy_discriminant,
    szegedy_spectrum_via_factorization,
    szegedy_transition,
    uniform_probability,
    unitarity_defect,
)
from zetawalk.zeta import (
    WeightAssignment,
    Verdict,
    ZetaReport,
    hashimoto,
    ihara_digraph,
    ihara_graph,
    n_k_all,
    verify_expressions,
)

from conftest import (
    inversion_inputs,
    random_connected_graph,
    random_digraph,
    random_multigraph,
    random_probability,
    random_rational,
    random_weights,
)
from oracles import allones_inverse_check, block_woodbury_check, coeffs, sato_expression


def report(num: int, ok: bool, desc: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_digraph_ihara_identity_exact():
    rng = random.Random(101)
    failures = []
    d = fixture_digraph("paper-digraph")
    for trial in range(5):
        res = ihara_digraph(d, random_weights(rng, d))
        if not (res.agree and res.rhs.is_poly() and res.rhs.num == res.hashimoto):
            failures.append(("fixture", trial))
    for trial in range(200):
        dd = random_digraph(rng, max_vertices=4, max_arcs=10)
        res = ihara_digraph(dd, random_weights(rng, dd))
        if not (res.agree and res.rhs.is_poly() and res.rhs.num == res.hashimoto):
            failures.append(("random", trial))
    report(
        1,
        not failures,
        "digraph vertex-determinant identity, exact, fixture + 200 random instances"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_graph_ihara_identity_exact():
    rng = random.Random(202)
    failures = []
    g = fixture_digraph("paper-graph")
    for trial in range(5):
        res = ihara_graph(g, random_weights(rng, g))
        if not res.agree:
            failures.append(("fixture", trial))
    for trial in range(200):
        gg = random_multigraph(rng, max_vertices=4, max_edges=6)
        res = ihara_graph(gg, random_weights(rng, gg))
        if not res.agree:
            failures.append(("random", trial))
    report(
        2,
        not failures,
        "graph vertex-determinant identity as reduced rational functions, "
        "fixture + 200 random multigraphs"
        + (f"; failures: {failures}" if failures else ""),
    )


def _walk_budget(d, order, limit=250_000) -> bool:
    """Total structural walk count up to the given length stays enumerable."""
    b = np.array(arc_adjacency(d), dtype=object)
    if b.size == 0:
        return True
    total, power = 0, b
    for _ in range(order):
        total += int(power.sum())
        if total > limit:
            return False
        power = power @ b
    return True


def test_criterion_3_four_expression_agreement():
    rng = random.Random(303)
    failures = []

    def check(tag, d, w):
        rep = verify_expressions(d, w, 10)
        if not rep.all_agree:
            failures.append((tag, [(v.name, v.detail) for v in rep.verdicts if not v.agree]))

    for name in ("paper-digraph", "paper-graph", "triangle", "c4"):
        d = fixture_digraph(name)
        check(name, d, WeightAssignment.from_maps(d))
        check(name + "+random", d, random_weights(rng, d))
    loop = build_digraph(1, [(0, 0)])
    check("loop", loop, random_weights(rng, loop))

    made = 0
    while made < 30:
        d = random_digraph(rng, max_vertices=4, max_arcs=7)
        if not _walk_budget(d, 10):
            continue
        made += 1
        check(f"digraph#{made}", d, random_weights(rng, d))
    made = 0
    while made < 30:
        g = random_multigraph(rng, max_vertices=4, max_edges=3)
        if not _walk_budget(g, 10):
            continue
        made += 1
        check(f"graph#{made}", g, random_weights(rng, g))

    # power sums by enumeration vs trace, k <= 8, instances up to 10 arcs
    made = 0
    while made < 10:
        d = random_digraph(rng, max_vertices=4, max_arcs=10)
        if not _walk_budget(d, 8):
            continue
        made += 1
        n_k_all(d, random_weights(rng, d), 8)  # raises ConsistencyError on mismatch

    report(
        3,
        not failures,
        "exponential/Euler/inverse-Hashimoto agree to order 10 (exact) on fixtures "
        "and random instances; N_k enumeration equals trace for k <= 8"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_4_sato_specialization():
    rng = random.Random(404)
    failures = []
    d = fixture_digraph("paper-digraph")
    g = fixture_digraph("paper-graph")
    for trial in range(5):
        tau2_d = {i: random_rational(rng) for i in range(d.arc_count)}
        tau2_g = {i: random_rational(rng) for i in range(g.arc_count)}
        wd = WeightAssignment.from_maps(d, None, tau2_d)
        wg = WeightAssignment.from_maps(g, None, tau2_g)
        sato = coeffs(sato_expression(d, wd))
        rhs, graph_rhs = ihara_digraph(d, wd).rhs, ihara_graph(g, wg).rhs
        ok = (
            sato == (hashimoto(d, wd).coeffs, (1,))
            and sato == (rhs.num.coeffs, rhs.den.coeffs)
            and graph_rhs.is_poly() and graph_rhs.num == hashimoto(g, wg)
        )
        if not ok:
            failures.append(trial)
    for name in ("triangle", "c4", "k4", "p3"):
        gg = fixture_digraph(name)
        tau2 = {i: random_rational(rng) for i in range(gg.arc_count)}
        wgg = WeightAssignment.from_maps(gg, None, tau2)
        rhs = ihara_graph(gg, wgg).rhs
        if not (rhs.is_poly() and rhs.num == hashimoto(gg, wgg)):
            failures.append(name)
    report(
        4,
        not failures,
        "tau1=1 specialization reproduces the general vertex determinants exactly"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_5_inversion_identity_suite():
    allones, blocks = inversion_inputs()
    allones_ok = all(allones_inverse_check(n, k) for n, k in allones)
    woodbury_ok = all(block_woodbury_check(m1, m2) for m1, m2 in blocks)
    report(
        5,
        allones_ok and woodbury_ok,
        "all-ones inverse identity (n <= 8, k = 1..7) and block inverse/determinant "
        "identities (k, l <= 5), exact",
    )


def _connected_graphs_up_to_six_vertices():
    import networkx as nx

    for graph in nx.graph_atlas_g():
        n = graph.number_of_nodes()
        if not 1 <= n <= 6 or graph.number_of_edges() == 0:
            continue
        if not nx.is_connected(graph):
            continue
        yield symmetric_digraph(n, sorted(tuple(sorted(e)) for e in graph.edges()))


def _grover_factorization_coeffs(g) -> np.ndarray:
    mus = np.linalg.eigvalsh(szegedy_discriminant(g, uniform_probability(g)))
    poly = np.array([1.0 + 0j])
    for mu in mus:
        poly = np.polymul(poly, np.array([1.0, -2.0 * mu, 1.0], dtype=complex))
    m = g.edge_count - g.vertex_count
    base = np.array([1.0, 0.0, -1.0], dtype=complex)
    for _ in range(max(m, 0)):
        poly = np.polymul(poly, base)
    for _ in range(max(-m, 0)):
        poly, rem = np.polydiv(poly, base)
        assert float(np.max(np.abs(rem))) < 1e-10
    return poly


def test_criterion_6_grover_spectrum_exhaustive():
    count = 0
    worst = 0.0
    for g in _connected_graphs_up_to_six_vertices():
        count += 1
        direct = eigenvalues_numeric(grover_transition(g))
        derived = grover_spectrum_via_zeta(g)
        worst = max(worst, spectrum_deviation(direct, derived))
    coeff_worst = 0.0
    for name in ("triangle", "c4", "k4", "p3"):
        g = fixture_digraph(name)
        direct = np.poly(np.array(eigenvalues_numeric(grover_transition(g))))
        fact = _grover_factorization_coeffs(g)
        coeff_worst = max(coeff_worst, float(np.max(np.abs(direct - fact))))
    star = symmetric_digraph(4, [(0, 1), (0, 2), (0, 3)])
    direct = np.poly(np.array(eigenvalues_numeric(grover_transition(star))))
    coeff_worst = max(coeff_worst, float(np.max(np.abs(direct - _grover_factorization_coeffs(star)))))
    ok = count >= 140 and worst <= 1e-8 and coeff_worst <= 1e-8
    report(
        6,
        ok,
        f"Grover spectrum multiset identity on {count} connected graphs <= 6 vertices "
        f"(worst deviation {worst:.2e}); factorization coefficients within "
        f"{coeff_worst:.2e} on fixtures",
    )


OTHER_CANDIDATES = ((1, 1), (2, 1), (2, 2))


def _candidate_deviation(g, p, c, d, direct) -> float:
    """Distance from the direct spectrum to that of (lambda^2-1)^m prod(lambda^2 - d mu lambda + c).

    A negative m moves the +-1 pairs to the direct side instead of dividing.
    """
    mus = np.linalg.eigvalsh(szegedy_discriminant(g, p))
    roots = [r for mu in mus for r in np.roots([1.0, -d * mu, c])]
    m = g.edge_count - g.vertex_count
    units = [1.0, -1.0] * abs(m)
    if m >= 0:
        return spectrum_deviation(roots + units, direct)
    return spectrum_deviation(roots, list(direct) + units)


def test_criterion_7_szegedy_calibration():
    rng = random.Random(707)
    worst = 0.0
    closest_other = float("inf")
    for _ in range(50):
        g = random_connected_graph(rng)
        p = random_probability(rng, g)
        derived = szegedy_spectrum_via_factorization(g, p)
        direct = eigenvalues_numeric(szegedy_transition(g, p))
        worst = max(worst, spectrum_deviation(direct, derived))
        for c, d in OTHER_CANDIDATES:
            closest_other = min(closest_other, _candidate_deviation(g, p, c, d, direct))
    uniform_ok = True
    for name in ("triangle", "c4", "k4", "p3"):
        g = fixture_digraph(name)
        uniform = uniform_probability(g)
        if not np.array_equal(szegedy_transition(g, uniform), grover_transition(g)):
            uniform_ok = False
        derived = szegedy_spectrum_via_factorization(g, uniform)
        direct = eigenvalues_numeric(szegedy_transition(g, uniform))
        worst = max(worst, spectrum_deviation(direct, derived))
        if spectrum_deviation(derived, grover_spectrum_via_zeta(g)) > 1e-8:
            uniform_ok = False
        for c, d in OTHER_CANDIDATES:
            closest_other = min(closest_other, _candidate_deviation(g, uniform, c, d, direct))
    ok = worst <= 1e-8 and closest_other > 1e-8 and uniform_ok
    report(
        7,
        ok,
        f"the per-factor quadratic lambda^2 + 1 - 2*mu*lambda reproduces the direct "
        f"spectrum on {50 + 4} instances, worst deviation {worst:.2e}; every other "
        f"candidate (c, d) in {{1, 2}}^2 misses by at least {closest_other:.2e}; "
        f"uniform probabilities reproduce the Grover walk exactly",
    )


def test_criterion_8_unitarity():
    rng = random.Random(808)
    worst = 0.0
    for name in ("triangle", "c4", "k4", "p3"):
        g = fixture_digraph(name)
        worst = max(worst, unitarity_defect(grover_transition(g)))
        worst = max(worst, unitarity_defect(szegedy_transition(g, random_probability(rng, g))))
    for _ in range(10):
        g = random_connected_graph(rng, min_vertices=4, max_vertices=10, max_edges=32)
        assert g.arc_count <= 64
        worst = max(worst, unitarity_defect(grover_transition(g)))
        worst = max(worst, unitarity_defect(szegedy_transition(g, random_probability(rng, g))))
    report(8, worst <= 1e-9, f"all transition matrices unitary, worst defect {worst:.2e}")


def _run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue()


def test_criterion_9_cli_determinism(tmp_path):
    ok = True
    notes = []
    for name in ("paper-digraph", "paper-graph"):
        path = tmp_path / f"{name}.zw"
        path.write_text(fixture_text(name), encoding="utf-8")
        for verb in ("verify", "ihara"):
            runs = [_run_cli(verb, str(path)) for _ in range(3)]
            codes = {code for code, _ in runs}
            outputs = {text for _, text in runs}
            if codes != {0} or len(outputs) != 1:
                ok = False
                notes.append((name, verb, codes, len(outputs)))
    bad = tmp_path / "bad.zw"
    bad.write_text("mode digraph\nvertices 1\narc 0 0 7\n", encoding="utf-8")
    code, _ = _run_cli("verify", str(bad))
    if code != 2:
        ok = False
        notes.append(("parse-error-exit", code))
    one = Series([1], 3)
    fabricated = ZetaReport(
        3,
        one,
        one,
        Poly([1]),
        one,
        RatFunc.from_poly(Poly([1])),
        (Verdict("hashimoto-vs-ihara", False, "at t^1"),),
    )
    if exit_code_for_report(fabricated) != 1:
        ok = False
        notes.append(("mismatch-exit", exit_code_for_report(fabricated)))
    report(
        9,
        ok,
        "verify/ihara reports byte-identical across 3 runs on both bundled "
        "instances; exit codes 0/1/2 follow the contract"
        + (f"; notes: {notes}" if notes else ""),
    )
