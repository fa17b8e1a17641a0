"""Correctness checks owned by the benchmark.

They read the instance file and the verb's report and recompute what they
need with their own code, so they do not depend on any zetawalk kernel:

* exact verbs (``verify``, ``ihara``): exit code 0, every VERDICT ``agree``,
  and the reported ``hashimoto`` polynomial evaluated at two fixed rational
  points equals det(I - t0*M), computed here by Fraction elimination on the
  theta matrix rebuilt from the instance file;
* ``spectrum``: exit code 0 with VERDICT ``agree``, and the direct spectrum
  has one unimodular eigenvalue per arc whose squares sum to trace(U^2)
  computed from the instance; or exit code 2 with the Szegedy calibration
  message, a known defect that is reported as a failed call.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

T0_POINTS = (Fraction(1, 3), Fraction(-2, 7))
CALIBRATION_MESSAGE = "no candidate factorization matches the oracle characteristic polynomial"
EXIT_INPUT = 2


@dataclass(frozen=True)
class ParsedInstance:
    mode: str
    vertices: int
    arcs: tuple[tuple[int, int], ...]
    tau1: dict[int, Fraction]
    tau2: dict[int, Fraction]
    prob: dict[int, Fraction]

    def inverses(self, a: int) -> list[int]:
        """Inverse arcs of ``a``: the edge partner in graph mode, all reversed arcs otherwise."""
        if self.mode == "graph":
            return [a ^ 1]
        tail, head = self.arcs[a]
        return [b for b, (t, h) in enumerate(self.arcs) if (t, h) == (head, tail)]


def parse_instance(text: str) -> ParsedInstance:
    mode, vertices, pairs = None, 0, []
    weights = {"tau1": {}, "tau2": {}, "prob": {}}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        if key == "mode":
            mode = tokens[1]
        elif key == "vertices":
            vertices = int(tokens[1])
        elif key in ("arc", "edge"):
            pairs.append((int(tokens[2]), int(tokens[3])))
        else:
            weights[key][int(tokens[1])] = Fraction(tokens[2])
    arcs = []
    for u, v in pairs:
        arcs += [(u, v), (v, u)] if mode == "graph" else [(u, v)]
    return ParsedInstance(mode, vertices, tuple(arcs), weights["tau1"], weights["tau2"], weights["prob"])


def theta_matrix(inst: ParsedInstance) -> list[list[Fraction]]:
    """M[a][b] = tau1(a) tau2(b) [head(a) = tail(b)] - [b inverse of a]."""
    n = len(inst.arcs)
    m = [[Fraction(0)] * n for _ in range(n)]
    for a, (_, head) in enumerate(inst.arcs):
        t1 = inst.tau1.get(a, Fraction(1))
        for b, (tail, _) in enumerate(inst.arcs):
            if head == tail:
                m[a][b] = t1 * inst.tau2.get(b, Fraction(1))
        for b in inst.inverses(a):
            m[a][b] -= 1
    return m


def det_i_minus_tm(m: list[list[Fraction]], t0: Fraction) -> Fraction:
    """det(I - t0*M) by Gaussian elimination over the rationals."""
    n = len(m)
    rows = [[(1 if i == j else 0) - t0 * m[i][j] for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        det *= p
        for r in range(col + 1, n):
            factor = rows[r][col] / p
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def parse_poly(text: str) -> dict[int, Fraction]:
    """Coefficients of a rendered polynomial ``c0 + c1*t + c2*t^2 + ...``."""
    coeffs: dict[int, Fraction] = {}
    if text.strip() == "0":
        return coeffs
    for term in text.split(" + "):
        c, sep, power = term.partition("*t")
        k = 0 if not sep else (int(power[1:]) if power else 1)
        coeffs[k] = Fraction(c)
    return coeffs


def poly_value(coeffs: dict[int, Fraction], t0: Fraction) -> Fraction:
    return sum((c * t0**k for k, c in coeffs.items()), Fraction(0))


def report_lines(report: str) -> dict[str, str]:
    """``key value`` lines of a text report; VERDICT lines keyed ``VERDICT <name>``."""
    out = {}
    for line in report.splitlines():
        if line.startswith("VERDICT "):
            _, name, status = line.split(" ", 2)
            out[f"VERDICT {name}"] = status
        else:
            key, _, value = line.partition(" ")
            out[key] = value
    return out


def verdict_problems(fields: dict[str, str]) -> list[str]:
    verdicts = {k: v for k, v in fields.items() if k.startswith("VERDICT ")}
    problems = [f"{k} {v}" for k, v in verdicts.items() if v != "agree"]
    if not verdicts:
        problems.append("no VERDICT line")
    if fields.get("overall") != "agree":
        problems.append(f"overall {fields.get('overall')}")
    return problems


def check_exact(report: str, code: int, inst: ParsedInstance) -> list[str]:
    """Checks for a ``verify`` or ``ihara`` report."""
    if code != 0:
        return [f"exit code {code}"]
    fields = report_lines(report)
    problems = verdict_problems(fields)
    if int(fields.get("arcs", -1)) != len(inst.arcs):
        problems.append(f"arcs {fields.get('arcs')} != {len(inst.arcs)}")
    if "hashimoto" not in fields:
        return problems + ["no hashimoto line"]
    coeffs = parse_poly(fields["hashimoto"])
    m = theta_matrix(inst)
    for t0 in T0_POINTS:
        got, want = poly_value(coeffs, t0), det_i_minus_tm(m, t0)
        if got != want:
            problems.append(f"hashimoto({t0}) = {got}, det(I - t0*M) = {want}")
    return problems


def coeff_bits(report: str) -> int:
    """Largest numerator or denominator bit length in the hashimoto line."""
    fields = report_lines(report)
    coeffs = parse_poly(fields["hashimoto"]) if "hashimoto" in fields else {}
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs.values()),
        default=0,
    )


def trace_u_squared(inst: ParsedInstance, walk: str) -> float:
    """trace(U^2) of the walk matrix of a simple graph.

    U[a][b] U[b][a] is nonzero only for b = inv(a), where
    U[a][inv a] = 2 p(a) - 1, so trace(U^2) = sum_a (2p(a) - 1)(2p(inv a) - 1).
    The Grover walk ignores ``prob`` lines and has p(a) = 1/deg(tail a).
    """
    degree = [0] * inst.vertices
    for tail, _ in inst.arcs:
        degree[tail] += 1

    def p(a):
        return inst.prob[a] if walk == "szegedy" else Fraction(1, degree[inst.arcs[a][0]])

    return float(sum((2 * p(a) - 1) * (2 * p(a ^ 1) - 1) for a in range(len(inst.arcs))))


def check_spectrum(report: str, code: int, stderr: str, inst: ParsedInstance, walk: str):
    """(problems, calibration_failed) for a ``spectrum`` call."""
    if code == EXIT_INPUT and walk == "szegedy" and CALIBRATION_MESSAGE in stderr:
        return [], True
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[:200]}"], False
    fields = report_lines(report)
    problems = verdict_problems(fields)
    direct = [complex(v) for k, v in fields.items() if k.startswith("direct[")]
    if len(direct) != len(inst.arcs):
        problems.append(f"{len(direct)} direct eigenvalues for {len(inst.arcs)} arcs")
    worst = max((abs(abs(z) - 1) for z in direct), default=0.0)
    if worst > 1e-6:
        problems.append(f"direct eigenvalue off the unit circle by {worst:.3e}")
    # printed to 10 decimals, so each square carries ~1e-10 of rounding
    power_sum = sum(z * z for z in direct)
    expected = trace_u_squared(inst, walk)
    if not cmath.isclose(power_sum, expected, abs_tol=1e-6 * max(1, len(inst.arcs))):
        problems.append(f"sum of squared eigenvalues {power_sum} != trace(U^2) {expected}")
    if not math.isfinite(float(fields.get("max-deviation", "nan"))):
        problems.append("max-deviation is not finite")
    return problems, False
