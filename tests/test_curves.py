"""Tests for plane-curve data, intersection matrices, and link criteria."""

import random
from fractions import Fraction

import pytest

from singcalc.curves import (
    Combinatorics,
    CurveComponent,
    CurveSpec,
    GraphVertex,
    SingularPoint,
    combinatorics_from_dict,
    combinatorics_to_dict,
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


def cusp_point(pid, comp="c"):
    return SingularPoint(id=pid, mu=2, r=1, branches_on=((comp, 1),))


def tricuspidal_quartic():
    return CurveSpec(
        degree=4,
        components=(CurveComponent("c", 4),),
        singular_points=(cusp_point("p1"), cusp_point("p2"), cusp_point("p3")),
    )


def two_conics_two_points():
    node = lambda pid: SingularPoint(
        id=pid, mu=1, r=2, branches_on=(("a", 1), ("b", 1))
    )
    return CurveSpec(
        degree=4,
        components=(CurveComponent("a", 2), CurveComponent("b", 2)),
        singular_points=(node("p1"), node("p2")),
    )


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


def test_intersections_bad_input():
    with pytest.raises(InputError):
        surface_intersections(5, 1, [2, 2])
    with pytest.raises(InputError):
        surface_intersections(4, 0, [4])
    with pytest.raises(InputError):
        surface_intersections(4, 1, [])


# ---------------------------------------------------------- graph adjust


def test_adjust_single_marked():
    g = Combinatorics((GraphVertex("c", 36, marked=True),), ())
    out = link_graph_adjust(g, 6, [6])
    assert out.vertices[0].self_int == -6


def test_adjust_line_in_cubic():
    g = Combinatorics((GraphVertex("l", 1, marked=True),), ())
    assert link_graph_adjust(g, 3, [1]).vertices[0].self_int == -3


def test_adjust_leaves_unmarked_alone():
    g = Combinatorics(
        (
            GraphVertex("c", 36, marked=True),
            GraphVertex("e", -2),
        ),
        (("c", "e"),),
    )
    out = link_graph_adjust(g, 6, [6])
    by_id = {v.id: v for v in out.vertices}
    assert by_id["e"].self_int == -2
    assert by_id["c"].self_int == -6
    assert out.edges == (("c", "e"),)


def test_adjust_count_mismatch():
    g = Combinatorics((GraphVertex("c", 36, marked=True),), ())
    with pytest.raises(InputError):
        link_graph_adjust(g, 6, [3, 3])


# --------------------------------------------------------------- QHS test


def test_qhs_tricuspidal_quartic():
    out = qhs_test(tricuspidal_quartic(), 1)
    assert out == {"is_qhs": True, "reasons": []}


def test_qhs_two_conics_two_points():
    out = qhs_test(two_conics_two_points(), 1, genera={"a": 0, "b": 0})
    assert out["is_qhs"] is False
    assert any("meet at 2 points" in r for r in out["reasons"])


def test_qhs_smooth_conic():
    spec = CurveSpec(degree=2, components=(CurveComponent("c", 2),))
    assert qhs_test(spec, 1) == {"is_qhs": True, "reasons": []}


def test_qhs_positive_genus_fails():
    # 6-cuspidal sextic: genus 10 - 6 = 4.
    points = tuple(cusp_point(f"p{i}") for i in range(6))
    spec = CurveSpec(
        degree=6, components=(CurveComponent("c", 6),), singular_points=points
    )
    assert spec.genera() == {"c": 4}
    out = qhs_test(spec, 1)
    assert out["is_qhs"] is False
    assert any("genus 4" in r for r in out["reasons"])


def test_qhs_multibranch_point_fails():
    p = SingularPoint(id="p", mu=1, r=2, branches_on=(("c", 2),))
    spec = CurveSpec(
        degree=3, components=(CurveComponent("c", 3),), singular_points=(p,)
    )
    out = qhs_test(spec, 1)
    assert out["is_qhs"] is False
    assert any("unibranch" in r for r in out["reasons"])


def test_qhs_k1_never_consults_flags():
    # Flags that would fail for k>1 are irrelevant at k=1.
    out = qhs_test(tricuspidal_quartic(), 1, suspension_flags={"p1": False})
    assert out == {"is_qhs": True, "reasons": []}


def test_qhs_k2_all_flags_true():
    flags = {"p1": True, "p2": True, "p3": True}
    out = qhs_test(tricuspidal_quartic(), 2, suspension_flags=flags)
    assert out == {"is_qhs": True, "reasons": []}


def test_qhs_k2_flag_false():
    flags = {"p1": True, "p2": False, "p3": True}
    out = qhs_test(tricuspidal_quartic(), 2, suspension_flags=flags)
    assert out["is_qhs"] is False


def test_qhs_k2_missing_flags_indeterminate():
    out = qhs_test(tricuspidal_quartic(), 2, suspension_flags={"p1": True})
    assert out["is_qhs"] is INDETERMINATE
    assert any("suspension condition unknown" in r for r in out["reasons"])
    # ... but a definite failure on another clause beats indeterminacy.
    points = tuple(cusp_point(f"p{i}") for i in range(6))
    sextic = CurveSpec(
        degree=6, components=(CurveComponent("c", 6),), singular_points=points
    )
    assert qhs_test(sextic, 2)["is_qhs"] is False


# ----------------------------------------------------------- tree test


def test_tree_rational_cusp_graph():
    germ = BivarPoly({(0, 2): 1, (3, 0): -1})
    g = local_invariants(germ).smooth_graph
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
    assert all(v.genus == 0 for v in g.vertices.values())


# ------------------------------------------------------------ CurveSpec


def test_spec_degree_mismatch():
    with pytest.raises(InputError, match="sum to"):
        CurveSpec(degree=5, components=(CurveComponent("c", 4),))


def test_spec_branch_count_mismatch():
    with pytest.raises(InputError, match="branch counts"):
        SingularPoint(id="p", mu=1, r=2, branches_on=(("c", 3),))


def test_spec_unknown_component():
    p = SingularPoint(id="p", mu=2, r=1, branches_on=(("zzz", 1),))
    with pytest.raises(InputError, match="unknown component"):
        CurveSpec(degree=4, components=(CurveComponent("c", 4),), singular_points=(p,))


def test_spec_negative_genus_rejected():
    p = SingularPoint(id="p", mu=8, r=1, branches_on=(("c", 1),))
    with pytest.raises(InputError, match="negative genus"):
        CurveSpec(degree=2, components=(CurveComponent("c", 2),), singular_points=(p,))


def test_spec_shared_point_genus_indeterminate():
    spec = two_conics_two_points()
    assert spec.genera() == {"a": INDETERMINATE, "b": INDETERMINATE}


def test_spec_unmarked_vertex_genus():
    with pytest.raises(InputError, match="unmarked"):
        GraphVertex("e", -2, marked=False, genus=1)


# -------------------------------------------------------- serialization


def test_combinatorics_round_trip():
    g = Combinatorics(
        (GraphVertex("c", -6, marked=True, genus=1), GraphVertex("e", -2)),
        (("c", "e"),),
    )
    assert combinatorics_from_dict(combinatorics_to_dict(g)) == g


def test_curve_spec_from_dict():
    spec = curve_spec_from_dict(
        {
            "degree": 4,
            "components": [{"id": "c", "degree": 4}],
            "singular_points": [
                {"id": "p1", "mu": 2, "r": 1, "branches_on": {"c": 1}},
                {"id": "p2", "mu": 2, "r": 1, "branches_on": {"c": 1}},
                {"id": "p3", "mu": 2, "r": 1, "branches_on": {"c": 1}},
            ],
        }
    )
    assert spec == tricuspidal_quartic()


def test_curve_spec_malformed():
    with pytest.raises(InputError):
        curve_spec_from_dict({"degree": 4, "components": [{"id": "c"}]})


def test_dot_export():
    g = Combinatorics(
        (GraphVertex("c", -6, marked=True), GraphVertex("e", -2)),
        (("c", "e"),),
    )
    dot = combinatorics_to_dot(g)
    assert '"c" -- "e";' in dot
    assert "doublecircle" in dot
    assert dot.startswith("graph link {")
