"""Tests for plane-curve data, intersection matrices, and link criteria."""

import copy
import random
from fractions import Fraction

import pytest

from singcalc.curves import (
    combinatorics_to_dot,
    curve_spec_from_dict,
    delta_invariant,
    genus_component,
    link_graph_adjust,
    qhs_test,
    surface_intersections,
)
from singcalc.errors import INDETERMINATE, InputError
from singcalc.qres2d import BivarPoly, local_invariants
from singcalc.schema import validate


def curve(degree, components, *points):
    """A curve as `schema.validate` gives it; components are (id, degree) pairs."""
    return validate(
        {
            "degree": degree,
            "components": [{"id": c, "degree": n} for c, n in components],
            "singular_points": list(points),
        },
        "lys-input.schema.json#/properties/curve",
    )


def cusp_point(pid, comp="c"):
    return {"id": pid, "mu": 2, "r": 1, "branches_on": {comp: 1}}


def tricuspidal_quartic():
    return curve(4, [("c", 4)], cusp_point("p1"), cusp_point("p2"), cusp_point("p3"))


def two_conics_two_points():
    node = lambda pid: {"id": pid, "mu": 1, "r": 2, "branches_on": {"a": 1, "b": 1}}
    return curve(4, [("a", 2), ("b", 2)], node("p1"), node("p2"))


def qhs(curve, k, genera=None, suspension_flags=None):
    """qhs_test with the genera curve_spec_from_dict derives, any in genera put over them."""
    return qhs_test(curve, k, {**curve_spec_from_dict(curve), **(genera or {})}, suspension_flags)


# ---------------------------------------------------------------- delta


def test_delta_cusp():
    assert delta_invariant(2, 1) == 1


def test_delta_node():
    assert delta_invariant(1, 2) == 0


def test_delta_e8():
    assert delta_invariant(8, 1) == 4


def test_delta_parity_rejected():
    with pytest.raises(InputError, match="delta_invariant parity"):
        delta_invariant(2, 2)


def test_delta_negative_rejected():
    with pytest.raises(InputError):
        delta_invariant(0, 3)
    with pytest.raises(InputError):
        delta_invariant(-2, 1)


# ---------------------------------------------------------------- genus


def test_genus_tricuspidal_quartic():
    assert genus_component(4, [1, 1, 1]) == 0


def test_genus_sextic_three_points():
    assert genus_component(6, [4, 3, 2]) == 1


def test_genus_line():
    assert genus_component(1, []) == 0


def test_genus_smooth_cubic():
    assert genus_component(3, []) == 1


def test_genus_negative_rejected():
    with pytest.raises(InputError, match="negative genus"):
        genus_component(3, [2])


def test_genus_rational_closed_form():
    # A degree-d curve whose deltas sum to (d-1)(d-2)/2 is rational.
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(1, 9)
        total = (d - 1) * (d - 2) // 2
        deltas = []
        while sum(deltas) < total:
            deltas.append(min(rng.randint(1, 4), total - sum(deltas)))
        assert genus_component(d, deltas) == 0


# ---------------------------------------------------- intersection matrices


def test_intersections_sextic_k1():
    v, vk = surface_intersections(6, 1, [6])
    assert v == [[Fraction(-6)]]
    assert vk == [[-6]]


def test_intersections_cubic_k2():
    v, vk = surface_intersections(3, 2, [3])
    assert v == [[Fraction(-3)]]
    assert vk == [[-6]]


def test_intersections_line_conic():
    v, vk = surface_intersections(3, 1, [1, 2])
    assert vk == [[-3, 2], [2, -4]]
    assert v == [[Fraction(-3), Fraction(2)], [Fraction(2), Fraction(-4)]]


def test_intersections_scaling_and_row_sums():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        degrees = [rng.randint(1, 6) for _ in range(n)]
        d = sum(degrees)
        k = rng.randint(1, 5)
        v, vk = surface_intersections(d, k, degrees)
        for i in range(n):
            for j in range(n):
                assert k * v[i][j] == vk[i][j]
        if k == 1:
            for j in range(n):
                assert sum(v[j]) == -degrees[j]


# ---------------------------------------------------------- graph adjust


def link_graph(*vertices, edges=()):
    """A link graph as `schema.validate` gives it: defaults filled in."""
    return validate(
        {"vertices": list(vertices), "edges": [list(e) for e in edges]},
        "combinatorics.schema.json",
    )


def test_adjust_single_marked():
    g = link_graph({"id": "c", "self_int": 36, "marked": True})
    out = link_graph_adjust(g, 6, [6])
    assert out["vertices"][0]["self_int"] == -6


def test_adjust_line_in_cubic():
    g = link_graph({"id": "l", "self_int": 1, "marked": True})
    assert link_graph_adjust(g, 3, [1])["vertices"][0]["self_int"] == -3


def test_adjust_leaves_unmarked_alone():
    g = link_graph(
        {"id": "c", "self_int": 36, "marked": True},
        {"id": "e", "self_int": -2},
        edges=[("c", "e")],
    )
    out = link_graph_adjust(g, 6, [6])
    assert out == {
        "vertices": [
            {"id": "c", "self_int": -6, "marked": True, "genus": 0},
            {"id": "e", "self_int": -2, "marked": False, "genus": 0},
        ],
        "edges": [["c", "e"]],
    }
    # the unmarked vertex and the edges are the input's; the input is unchanged
    assert out["vertices"][1] is g["vertices"][1] and out["edges"] is g["edges"]
    assert g["vertices"][0]["self_int"] == 36


def test_adjust_count_mismatch():
    g = link_graph({"id": "c", "self_int": 36, "marked": True})
    with pytest.raises(InputError, match="1 marked vertices but 2 component degrees"):
        link_graph_adjust(g, 6, [3, 3])


# --------------------------------------------------------------- QHS test


def test_qhs_tricuspidal_quartic():
    out = qhs(tricuspidal_quartic(), 1)
    assert out == {"is_qhs": True, "reasons": []}


def test_qhs_two_conics_two_points():
    out = qhs(two_conics_two_points(), 1, genera={"a": 0, "b": 0})
    assert out["is_qhs"] is False
    assert any("meet at 2 points" in r for r in out["reasons"])


def test_qhs_smooth_conic():
    assert qhs(curve(2, [("c", 2)]), 1) == {"is_qhs": True, "reasons": []}


def test_qhs_positive_genus_fails():
    # 6-cuspidal sextic: genus 10 - 6 = 4.
    sextic = curve(6, [("c", 6)], *(cusp_point(f"p{i}") for i in range(6)))
    assert curve_spec_from_dict(sextic) == {"c": 4}
    out = qhs(sextic, 1)
    assert out["is_qhs"] is False
    assert any("genus 4" in r for r in out["reasons"])


def test_qhs_multibranch_point_fails():
    p = {"id": "p", "mu": 1, "r": 2, "branches_on": {"c": 2}}
    out = qhs(curve(3, [("c", 3)], p), 1)
    assert out["is_qhs"] is False
    assert any("unibranch" in r for r in out["reasons"])


def test_qhs_k1_never_consults_flags():
    # Flags that would fail for k>1 are irrelevant at k=1.
    out = qhs(tricuspidal_quartic(), 1, suspension_flags={"p1": False})
    assert out == {"is_qhs": True, "reasons": []}


def test_qhs_k2_all_flags_true():
    flags = {"p1": True, "p2": True, "p3": True}
    out = qhs(tricuspidal_quartic(), 2, suspension_flags=flags)
    assert out == {"is_qhs": True, "reasons": []}


def test_qhs_k2_flag_false():
    flags = {"p1": True, "p2": False, "p3": True}
    out = qhs(tricuspidal_quartic(), 2, suspension_flags=flags)
    assert out["is_qhs"] is False


def test_qhs_k2_missing_flags_indeterminate():
    out = qhs(tricuspidal_quartic(), 2, suspension_flags={"p1": True})
    assert out["is_qhs"] is INDETERMINATE
    assert any("suspension condition unknown" in r for r in out["reasons"])
    # ... but a definite failure on another clause beats indeterminacy.
    sextic = curve(6, [("c", 6)], *(cusp_point(f"p{i}") for i in range(6)))
    assert qhs(sextic, 2)["is_qhs"] is False


# ----------------------------------------------------------- tree test


def test_tree_rational_cusp_graph():
    germ = BivarPoly({(0, 2): 1, (3, 0): -1})
    g = local_invariants(germ)["smooth_graph"]
    assert len(g.vertices) == 4
    # a rational tree: |E| = |V| - 1, connected, genus 0 everywhere
    assert len(g.edges) == len(g.vertices) - 1
    seen, stack = set(), [next(iter(g.vertices))]
    while stack:
        vid = stack.pop()
        if vid not in seen:
            seen.add(vid)
            stack.extend(v for e in g.edges if vid in e for v in e)
    assert seen == set(g.vertices)
    assert all(v["genus"] == 0 for v in g.vertices.values())


# ------------------------------------------------------------ curve checks


def test_spec_degree_mismatch():
    with pytest.raises(InputError, match="sum to"):
        curve_spec_from_dict(curve(5, [("c", 4)]))


def test_spec_branch_count_mismatch():
    p = {"id": "p", "mu": 1, "r": 2, "branches_on": {"c": 3}}
    with pytest.raises(InputError, match="branch counts"):
        curve_spec_from_dict(curve(3, [("c", 3)], p))


def test_spec_unknown_component():
    with pytest.raises(InputError, match="unknown component"):
        curve_spec_from_dict(curve(4, [("c", 4)], cusp_point("p", comp="zzz")))


def test_spec_negative_genus_rejected():
    p = {"id": "p", "mu": 8, "r": 1, "branches_on": {"c": 1}}
    with pytest.raises(InputError, match="negative genus"):
        curve_spec_from_dict(curve(2, [("c", 2)], p))


def test_spec_shared_point_genus_indeterminate():
    genera = curve_spec_from_dict(two_conics_two_points())
    assert genera == {"a": INDETERMINATE, "b": INDETERMINATE}


def test_spec_unmarked_vertex_genus():
    g = link_graph(
        {"id": "c", "self_int": 36, "marked": True}, {"id": "e", "self_int": -2, "genus": 1}
    )
    with pytest.raises(InputError, match="vertex 'e': unmarked vertices have genus 0, got 1"):
        link_graph_adjust(g, 6, [6])


# -------------------------------------------------------- serialization


def test_combinatorics_round_trip():
    # the adjusted graph is again a valid link graph, which the schema
    # passes as it is: every default is already filled in
    g = link_graph(
        {"id": "c", "self_int": -6, "marked": True, "genus": 1},
        {"id": "e", "self_int": -2},
        edges=[("c", "e")],
    )
    out = link_graph_adjust(g, 1, [1])
    assert validate(copy.deepcopy(out), "combinatorics.schema.json") == out
    assert out["vertices"][0] == {"id": "c", "self_int": -8, "marked": True, "genus": 1}


def test_curve_spec_from_dict():
    data = {
        "degree": 4,
        "components": [{"id": "c", "degree": 4}],
        "singular_points": [
            {"id": "p1", "mu": 2, "r": 1, "branches_on": {"c": 1}},
            {"id": "p2", "mu": 2, "r": 1, "branches_on": {"c": 1}},
            {"id": "p3", "mu": 2, "r": 1, "branches_on": {"c": 1}},
        ],
    }
    assert data == tricuspidal_quartic()
    assert curve_spec_from_dict(data) == {"c": 0}


def test_curve_spec_malformed():
    # the schema rejects what the converter would not know how to read
    curve = {"degree": 4, "components": [{"id": "c"}]}
    with pytest.raises(InputError, match=r"no degree in \$\.components\[0\]"):
        curve_spec_from_dict(validate(curve, "lys-input.schema.json#/properties/curve"))


def test_dot_export():
    g = link_graph(
        {"id": "c", "self_int": -6, "marked": True},
        {"id": "e", "self_int": -2},
        edges=[("c", "e")],
    )
    dot = combinatorics_to_dot(g)
    assert '"c" -- "e";' in dot
    assert "doublecircle" in dot
    assert dot.startswith("graph link {")


def test_dot_escapes_quotes_and_backslashes():
    # vertex ids are any JSON strings: a quote or a backslash in one must
    # neither end its DOT string early nor inject attributes
    c, e = 'c"] x [y="', "e\\"
    g = link_graph(
        {"id": c, "self_int": -6, "marked": True, "genus": 1},
        {"id": e, "self_int": -2},
        edges=[(c, e)],
    )
    assert combinatorics_to_dot(g).splitlines() == [
        "graph link {",
        "  node [shape=circle];",
        r'  "c\"] x [y=\"" [label="c\"] x [y=\"\n-6\ng=1" shape=doublecircle];',
        r'  "e\\" [label="e\\\n-2"];',
        r'  "c\"] x [y=\"" -- "e\\";',
        "}",
    ]
