"""Parse-error corpus for instance files.

Each case is one instance text with a fault, or several faults on one line,
for every error that ``parse_instance`` raises.  The expected line numbers and
messages fix which check wins when a line has several faults, whichever way
the line is tokenized.  The well-formed cases at the end fix what the parser
accepts: signs, leading zeros, comments, line breaks and whitespace other
than spaces.  The digit-limit cases assume the default int-to-string limit.
"""

import pytest

from zetawalk.instances import ParseError, parse_instance

LONG = "7" * 5000
G = "mode graph\nvertices 3\nedge 0 0 1\nedge 1 1 2\n"  # 4 arcs
D = "mode digraph\nvertices 2\narc 0 0 1\narc 1 1 0\n"  # 2 arcs
CASES = {
    # one malformed line for every error site
    "rational-syntax": D + "tau1 0 1.5\n",
    "rational-digit-limit": D + "tau1 0 " + LONG + "\n",
    "rational-denominator-digit-limit": D + "tau2 1 1/" + LONG + "\n",
    "rational-zero-denominator": D + "tau1 0 3/0\n",
    "integer-syntax": "mode graph\nvertices three\n",
    "integer-digit-limit": "mode graph\nvertices " + LONG + "\n",
    "weight-before-arcs": "mode digraph\nvertices 2\ntau1 0 1\n",
    "weight-token-count": D + "tau2 0\n",
    "weight-token-count-extra": D + "tau1 0 1 2\n",
    "weight-arc-out-of-range": D + "tau1 2 1\n",
    "weight-arc-negative": D + "tau2 -1 1\n",
    "weight-duplicate": D + "tau1 1 1/2\ntau1 1 1/3\n",
    "mode-duplicate": "mode graph\nmode graph\n",
    "mode-value": "mode multigraph\n",
    "mode-empty": "mode\n",
    "mode-extra": "mode graph digraph\n",
    "vertices-duplicate": "mode graph\nvertices 2\nvertices 2\n",
    "vertices-token-count": "mode graph\nvertices 2 3\n",
    "vertices-none": "mode graph\nvertices\n",
    "vertices-negative": "mode graph\nvertices -1\n",
    "vertices-limit": "mode graph\nvertices 10001\n",
    "edge-before-mode": "vertices 2\nedge 0 0 1\n",
    "arc-before-vertices": "mode digraph\narc 0 0 1\n",
    "edge-in-digraph-mode": "mode digraph\nvertices 2\nedge 0 0 1\n",
    "arc-in-graph-mode": "mode graph\nvertices 2\narc 0 0 1\n",
    "edge-after-weights": G + "prob 0 1\nedge 2 0 2\n",
    "arc-token-count": "mode digraph\nvertices 2\narc 0 0\n",
    "edge-token-count-extra": "mode graph\nvertices 2\nedge 0 0 1 1\n",
    "edge-id-not-contiguous": "mode graph\nvertices 2\nedge 1 0 1\n",
    "edge-id-repeated": "mode graph\nvertices 2\nedge 0 0 1\nedge 0 1 0\n",
    "arc-endpoint-out-of-range": "mode digraph\nvertices 2\narc 0 2 0\n",
    "arc-endpoint-negative": "mode digraph\nvertices 2\narc 0 0 -1\n",
    "edge-no-vertices": "mode graph\nvertices 0\nedge 0 0 0\n",
    "prob-in-digraph-mode": D + "prob 0 1\n",
    "unknown-directive": "mode graph\nnode 1\n",
    "unknown-directive-case": "Mode graph\n",
    "missing-mode": "vertices 2\n",
    "missing-mode-empty-text": "",
    "missing-mode-comments-only": "# nothing\n\n   \n",
    "missing-vertices": "mode graph\n",
    # lines with several faults: the first check in line order wins
    "prob-before-arcs-in-digraph-mode": "mode digraph\nvertices 2\nprob 0 x\n",
    "prob-without-mode": "prob 0 1/0\n",
    "prob-after-arcs-in-digraph-mode-bad-token": D + "prob 9 1/0\n",
    "weight-before-arcs-bad-count": "mode graph\nvertices 2\ntau2 x y z\n",
    "weight-count-and-bad-id": D + "tau1 x\n",
    "weight-bad-id-and-zero-denominator": D + "tau1 x 1/0\n",
    "weight-out-of-range-and-bad-rational": D + "tau1 7 0.5\n",
    "weight-duplicate-and-bad-rational": D + "tau1 0 1\ntau1 0 0.5\n",
    "weight-duplicate-and-zero-denominator": D + "tau2 0 1\ntau2 0 1/0\n",
    "weight-duplicate-and-over-long": D + "tau1 0 1\ntau1 0 " + LONG + "\n",
    "weight-over-long-id-and-bad-rational": D + "tau1 " + LONG + " x\n",
    "weight-out-of-range-in-graph-mode": G + "prob 4 1\n",
    "mode-duplicate-bad-value": "mode graph\nmode tree\n",
    "vertices-duplicate-bad-token": "mode graph\nvertices 2\nvertices x\n",
    "vertices-count-and-bad-tokens": "mode graph\nvertices x y\n",
    "edge-before-mode-wrong-kind": "vertices 2\narc x\n",
    "edge-wrong-kind-and-count": "mode graph\nvertices 2\narc 0\n",
    "edge-after-weights-bad-count": G + "tau1 0 1\nedge 5\n",
    "edge-bad-id-and-endpoint": "mode graph\nvertices 2\nedge x 9 9\n",
    "edge-not-contiguous-and-bad-endpoint": "mode graph\nvertices 2\nedge 3 x 0\n",
    "edge-endpoint-range-then-bad-token": "mode graph\nvertices 2\nedge 0 9 x\n",
    "edge-both-endpoints-out-of-range": "mode graph\nvertices 2\nedge 0 5 7\n",
    "edge-second-endpoint-out-of-range": "mode graph\nvertices 2\nedge 0 1 -3\n",
    "unknown-directive-before-mode": "tau3 0 1\nmode graph\n",
    "error-before-missing-mode": "vertices 2\nvertices 3\n",
    # non-ASCII digits, underscores and other near-integers
    "arabic-indic-vertices": "mode graph\nvertices \u0663\n",
    "fullwidth-edge-endpoint": "mode graph\nvertices 3\nedge 0 \uff11 2\n",
    "devanagari-weight-id": G + "tau1 \u0967 1\n",
    "arabic-indic-rational": G + "tau1 0 \u0663/\u0664\n",
    "superscript-rational": G + "tau1 0 \xb2\n",
    "underscore-vertices": "mode graph\nvertices 1_0\n",
    "underscore-edge-id": "mode graph\nvertices 3\nedge 0_0 0 1\n",
    "underscore-rational": G + "tau2 0 1_0/3\n",
    "underscore-denominator": G + "tau2 0 1/1_0\n",
    "plus-rational": G + "tau1 0 +1/2\n",
    "negative-denominator": G + "tau1 0 1/-2\n",
    "double-slash": G + "tau1 0 1/2/3\n",
    "bare-slash": G + "tau1 0 /2\n",
    "trailing-slash": G + "tau1 0 1/\n",
    "double-minus": G + "tau1 0 --1\n",
    "hex-integer": "mode graph\nvertices 0x3\n",
    "float-vertices": "mode graph\nvertices 3.0\n",
    "exponent-rational": G + "prob 0 1e3\n",
    "space-in-rational": G + "prob 0 1 /2\n",
    # over-long tokens
    "long-mode": "mode " + "m" * 5000 + "\n",
    "long-directive": "mode graph\n" + "z" * 5000 + " 1\n",
    "long-integer-syntax": "mode graph\nvertices " + "x" * 5000 + "\n",
    "long-edge-id": "mode graph\nvertices 2\nedge " + LONG + " 0 1\n",
    "long-edge-endpoint": "mode graph\nvertices 2\nedge 0 0 " + LONG + "\n",
    "long-negative-rational": D + "tau1 0 -" + LONG + "\n",
    "long-rational-syntax": G + "prob 0 " + "y" * 5000 + "\n",
    "long-zero-denominator": D + "tau1 0 1/" + "0" * 3000 + "\n",
    "long-zeros-vertices": "mode graph\nvertices " + "0" * 4400 + "2\n",
    "long-weight-id": D + "tau2 " + LONG + " 1\n",
    # line numbering follows str.splitlines and whitespace follows str.split
    "crlf-lines": "mode graph\r\nvertices 2\r\nedge 0 0 5\r\n",
    "form-feed-line-break": "mode graph\x0cvertices x\n",
    "line-separator": "mode graph\u2028vertices 2\u2029edge 0 0 9\n",
    "nel-line-break": "mode graph\x85vertices 2\x85edge 0 0 9\n",
    "unit-separator-is-whitespace": "mode graph\nvertices\x1f2\nedge 0 0 9\n",
    "nbsp-is-whitespace": "mode graph\nvertices\xa02\nedge\u30000\u20030 7\n",
    "comment-hides-fault": "mode graph\nvertices 2 # 9 9\nedge 0 0 1#x\ntau1 0 1/0 # zero\n",
    "comment-glued": "mode graph\nvertices 2#\nedge 0 0 3#1\n",
    # well-formed instances: signs, leading zeros, comments and separators
    "valid-signs-and-zeros": (
        "mode graph\nvertices +3\nedge -0 0 +1\nedge +1 01 002\n"
        "tau1 -0 -0/5\ntau2 +3 -6/4\nprob 0 007/7\nprob 3 1\n"
    ),
    "valid-digraph-weights": D + "tau1 1 -3\ntau2 0 10/4\ntau2 1 0\ntau1 0 4/6\n",
    "valid-comments-and-crlf": (
        "# header\r\nmode digraph # kind\r\n\r\nvertices 2#count\r\n"
        "arc 0 0 1 # a\r\narc 1 1 1\r\ntau1 1 2/3#w\r\n"
    ),
    "valid-other-whitespace": "mode\tgraph\nvertices\u00a02\n\x1fedge 0\u3000 0 1\t\nprob 1\u2003 1 \n",
    "valid-vertices-before-mode": "vertices 1\nmode digraph\narc 0 0 0\n",
    "valid-empty-graph": "mode graph\nvertices 0\n",
}


ERRORS = {
    'rational-syntax': (5, "f:5: expected a rational p/q, got '1.5'"),
    'rational-digit-limit': (5, 'f:5: rational of 5000 characters exceeds the integer digit limit'),
    'rational-denominator-digit-limit': (5, 'f:5: rational of 5002 characters exceeds the integer digit limit'),
    'rational-zero-denominator': (5, "f:5: zero denominator in '3/0'"),
    'integer-syntax': (2, "f:2: expected an integer, got 'three'"),
    'integer-digit-limit': (2, 'f:2: integer of 5000 characters exceeds the integer digit limit'),
    'weight-before-arcs': (3, 'f:3: tau1 line before any arcs are declared'),
    'weight-token-count': (5, 'f:5: tau2 needs: tau2 <arc-id> <p/q>'),
    'weight-token-count-extra': (5, 'f:5: tau1 needs: tau1 <arc-id> <p/q>'),
    'weight-arc-out-of-range': (5, 'f:5: arc id 2 out of range (have 2 arcs)'),
    'weight-arc-negative': (5, 'f:5: arc id -1 out of range (have 2 arcs)'),
    'weight-duplicate': (6, 'f:6: duplicate tau1 for arc 1'),
    'mode-duplicate': (2, 'f:2: duplicate mode line'),
    'mode-value': (1, "f:1: mode must be 'digraph' or 'graph', got 'multigraph'"),
    'mode-empty': (1, "f:1: mode must be 'digraph' or 'graph', got ''"),
    'mode-extra': (1, "f:1: mode must be 'digraph' or 'graph', got 'graph digraph'"),
    'vertices-duplicate': (3, 'f:3: duplicate vertices line'),
    'vertices-token-count': (2, 'f:2: vertices needs one integer'),
    'vertices-none': (2, 'f:2: vertices needs one integer'),
    'vertices-negative': (2, 'f:2: vertex count must be nonnegative'),
    'vertices-limit': (2, 'f:2: vertex count 10001 exceeds the limit 10000'),
    'edge-before-mode': (2, 'f:2: edge line before mode/vertices are declared'),
    'arc-before-vertices': (2, 'f:2: arc line before mode/vertices are declared'),
    'edge-in-digraph-mode': (3, 'f:3: edge line not allowed in digraph mode (use arc)'),
    'arc-in-graph-mode': (3, 'f:3: arc line not allowed in graph mode (use edge)'),
    'edge-after-weights': (6, 'f:6: edge line after weight lines'),
    'arc-token-count': (3, 'f:3: arc needs: arc <id> <a> <b>'),
    'edge-token-count-extra': (3, 'f:3: edge needs: edge <id> <a> <b>'),
    'edge-id-not-contiguous': (3, 'f:3: edge ids must be contiguous from 0; expected 0'),
    'edge-id-repeated': (4, 'f:4: edge ids must be contiguous from 0; expected 1'),
    'arc-endpoint-out-of-range': (3, 'f:3: arc 0 endpoint 2 out of range for 2 vertices'),
    'arc-endpoint-negative': (3, 'f:3: arc 0 endpoint -1 out of range for 2 vertices'),
    'edge-no-vertices': (3, 'f:3: edge 0 endpoint 0 out of range for 0 vertices'),
    'prob-in-digraph-mode': (5, 'f:5: prob lines are only allowed in graph mode'),
    'unknown-directive': (2, "f:2: unknown directive 'node'"),
    'unknown-directive-case': (1, "f:1: unknown directive 'Mode'"),
    'missing-mode': (0, 'f:0: missing mode line'),
    'missing-mode-empty-text': (0, 'f:0: missing mode line'),
    'missing-mode-comments-only': (0, 'f:0: missing mode line'),
    'missing-vertices': (0, 'f:0: missing vertices line'),
    'prob-before-arcs-in-digraph-mode': (3, 'f:3: prob lines are only allowed in graph mode'),
    'prob-without-mode': (1, 'f:1: prob lines are only allowed in graph mode'),
    'prob-after-arcs-in-digraph-mode-bad-token': (5, 'f:5: prob lines are only allowed in graph mode'),
    'weight-before-arcs-bad-count': (3, 'f:3: tau2 line before any arcs are declared'),
    'weight-count-and-bad-id': (5, 'f:5: tau1 needs: tau1 <arc-id> <p/q>'),
    'weight-bad-id-and-zero-denominator': (5, "f:5: expected an integer, got 'x'"),
    'weight-out-of-range-and-bad-rational': (5, 'f:5: arc id 7 out of range (have 2 arcs)'),
    'weight-duplicate-and-bad-rational': (6, 'f:6: duplicate tau1 for arc 0'),
    'weight-duplicate-and-zero-denominator': (6, 'f:6: duplicate tau2 for arc 0'),
    'weight-duplicate-and-over-long': (6, 'f:6: duplicate tau1 for arc 0'),
    'weight-over-long-id-and-bad-rational': (5, 'f:5: integer of 5000 characters exceeds the integer digit limit'),
    'weight-out-of-range-in-graph-mode': (5, 'f:5: arc id 4 out of range (have 4 arcs)'),
    'mode-duplicate-bad-value': (2, 'f:2: duplicate mode line'),
    'vertices-duplicate-bad-token': (3, 'f:3: duplicate vertices line'),
    'vertices-count-and-bad-tokens': (2, 'f:2: vertices needs one integer'),
    'edge-before-mode-wrong-kind': (2, 'f:2: arc line before mode/vertices are declared'),
    'edge-wrong-kind-and-count': (3, 'f:3: arc line not allowed in graph mode (use edge)'),
    'edge-after-weights-bad-count': (6, 'f:6: edge line after weight lines'),
    'edge-bad-id-and-endpoint': (3, "f:3: expected an integer, got 'x'"),
    'edge-not-contiguous-and-bad-endpoint': (3, 'f:3: edge ids must be contiguous from 0; expected 0'),
    'edge-endpoint-range-then-bad-token': (3, "f:3: expected an integer, got 'x'"),
    'edge-both-endpoints-out-of-range': (3, 'f:3: edge 0 endpoint 5 out of range for 2 vertices'),
    'edge-second-endpoint-out-of-range': (3, 'f:3: edge 0 endpoint -3 out of range for 2 vertices'),
    'unknown-directive-before-mode': (1, "f:1: unknown directive 'tau3'"),
    'error-before-missing-mode': (2, 'f:2: duplicate vertices line'),
    'arabic-indic-vertices': (2, "f:2: expected an integer, got '\u0663'"),
    'fullwidth-edge-endpoint': (3, "f:3: expected an integer, got '\uff11'"),
    'devanagari-weight-id': (5, "f:5: expected an integer, got '\u0967'"),
    'arabic-indic-rational': (5, "f:5: expected a rational p/q, got '\u0663/\u0664'"),
    'superscript-rational': (5, "f:5: expected a rational p/q, got '\xb2'"),
    'underscore-vertices': (2, "f:2: expected an integer, got '1_0'"),
    'underscore-edge-id': (3, "f:3: expected an integer, got '0_0'"),
    'underscore-rational': (5, "f:5: expected a rational p/q, got '1_0/3'"),
    'underscore-denominator': (5, "f:5: expected a rational p/q, got '1/1_0'"),
    'plus-rational': (5, "f:5: expected a rational p/q, got '+1/2'"),
    'negative-denominator': (5, "f:5: expected a rational p/q, got '1/-2'"),
    'double-slash': (5, "f:5: expected a rational p/q, got '1/2/3'"),
    'bare-slash': (5, "f:5: expected a rational p/q, got '/2'"),
    'trailing-slash': (5, "f:5: expected a rational p/q, got '1/'"),
    'double-minus': (5, "f:5: expected a rational p/q, got '--1'"),
    'hex-integer': (2, "f:2: expected an integer, got '0x3'"),
    'float-vertices': (2, "f:2: expected an integer, got '3.0'"),
    'exponent-rational': (5, "f:5: expected a rational p/q, got '1e3'"),
    'space-in-rational': (5, 'f:5: prob needs: prob <arc-id> <p/q>'),
    'long-mode': (1, "f:1: mode must be 'digraph' or 'graph', got 'mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm'... (5000 characters)"),
    'long-directive': (2, "f:2: unknown directive 'zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz'... (5000 characters)"),
    'long-integer-syntax': (2, "f:2: expected an integer, got 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    'long-edge-id': (3, 'f:3: integer of 5000 characters exceeds the integer digit limit'),
    'long-edge-endpoint': (3, 'f:3: integer of 5000 characters exceeds the integer digit limit'),
    'long-negative-rational': (5, 'f:5: rational of 5001 characters exceeds the integer digit limit'),
    'long-rational-syntax': (5, "f:5: expected a rational p/q, got 'yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy'... (5000 characters)"),
    'long-zero-denominator': (5, "f:5: zero denominator in '1/00000000000000000000000000000000000000'... (3002 characters)"),
    'long-zeros-vertices': (2, 'f:2: integer of 4401 characters exceeds the integer digit limit'),
    'long-weight-id': (5, 'f:5: integer of 5000 characters exceeds the integer digit limit'),
    'crlf-lines': (3, 'f:3: edge 0 endpoint 5 out of range for 2 vertices'),
    'form-feed-line-break': (2, "f:2: expected an integer, got 'x'"),
    'line-separator': (3, 'f:3: edge 0 endpoint 9 out of range for 2 vertices'),
    'nel-line-break': (3, 'f:3: edge 0 endpoint 9 out of range for 2 vertices'),
    'unit-separator-is-whitespace': (3, 'f:3: edge 0 endpoint 9 out of range for 2 vertices'),
    'nbsp-is-whitespace': (3, 'f:3: edge 0 endpoint 7 out of range for 2 vertices'),
    'comment-hides-fault': (4, "f:4: zero denominator in '1/0'"),
    'comment-glued': (3, 'f:3: edge 0 endpoint 3 out of range for 2 vertices'),
}

# (mode, vertices, pairs, tau1, tau2, prob) with each weight map as
# (arc id, str(value)) pairs in the order the lines gave them
INSTANCES = {
    'valid-signs-and-zeros': ('graph', 3, ((0, 1), (1, 2)), [(0, '0')], [(3, '-3/2')], [(0, '1'), (3, '1')]),
    'valid-digraph-weights': ('digraph', 2, ((0, 1), (1, 0)), [(1, '-3'), (0, '2/3')], [(0, '5/2'), (1, '0')], []),
    'valid-comments-and-crlf': ('digraph', 2, ((0, 1), (1, 1)), [(1, '2/3')], [], []),
    'valid-other-whitespace': ('graph', 2, ((0, 1),), [], [], [(1, '1')]),
    'valid-vertices-before-mode': ('digraph', 1, ((0, 0),), [], [], []),
    'valid-empty-graph': ('graph', 0, (), [], [], []),
}


def test_the_corpus_covers_every_case():
    assert set(ERRORS) | set(INSTANCES) == set(CASES)
    assert not set(ERRORS) & set(INSTANCES)


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_parse_error_message_and_line(case):
    with pytest.raises(ParseError) as exc:
        parse_instance(CASES[case], source="f")
    assert (exc.value.line, str(exc.value)) == ERRORS[case]


@pytest.mark.parametrize("case", sorted(INSTANCES))
def test_well_formed_text_parses_to_the_recorded_instance(case):
    inst = parse_instance(CASES[case], source="f")
    weights = ([(a, str(x)) for a, x in s.items()] for s in (inst.tau1, inst.tau2, inst.prob))
    assert (inst.mode.value, inst.vertex_count, inst.pairs, *weights) == INSTANCES[case]
