"""Global plane-curve data and the combinatorics of surface links.

A projective plane curve enters as the "curve" object of a `singcalc lys`
input, as `schema.validate` returns it: its degree, its irreducible
components, and numerical local data (Milnor number, branch count) for
each singular point.  From these the module derives
delta invariants and component genera, builds the intersection matrices of
the cone-like surfaces lying over the curve, rewrites resolution-graph
decorations when the curve is pushed from the projective plane into such a
surface, and decides whether the link is a rational homology sphere.

Everything here is arithmetic over exact rationals; no floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import INDETERMINATE, InputError

__all__ = [
    "delta_invariant",
    "genus_component",
    "surface_intersections",
    "link_graph_adjust",
    "qhs_test",
    "curve_spec_from_dict",
    "combinatorics_to_dot",
    "dot_graph",
]

# ---------------------------------------------------------------------------
# local numerical invariants
# ---------------------------------------------------------------------------


def delta_invariant(mu: int, r: int) -> int:
    """Delta contribution of a curve germ, (mu - r + 1) / 2.

    ``mu`` is the Milnor number and ``r`` the number of local branches.
    The combination mu - r + 1 must be even and >= 0; odd combinations are
    rejected as malformed input ("delta_invariant parity").

    >>> delta_invariant(2, 1)   # cusp
    1
    >>> delta_invariant(1, 2)   # node
    0
    >>> delta_invariant(8, 1)
    4
    """
    if mu < 0 or r < 1:
        raise InputError(f"need mu >= 0 and r >= 1, got mu={mu}, r={r}")
    if (mu - r + 1) % 2 != 0:
        raise InputError(
            f"delta_invariant parity violated: mu - r + 1 = {mu - r + 1} is odd (mu={mu}, r={r})"
        )
    delta = (mu - r + 1) // 2
    if delta < 0:
        raise InputError(f"negative delta invariant from mu={mu}, r={r}")
    return delta


def genus_component(degree: int, deltas) -> int:
    """Geometric genus of an irreducible plane curve of the given degree.

    ``deltas`` lists the delta invariants of its singular points; the genus
    is (d-1)(d-2)/2 minus their sum.  A negative result means the numerical
    data cannot come from an irreducible curve and is rejected.

    >>> genus_component(4, [1, 1, 1])
    0
    >>> genus_component(6, [4, 3, 2])
    1
    >>> genus_component(1, [])
    0
    """
    if degree < 1:
        raise InputError(f"component degree must be >= 1, got {degree}")
    g = (degree - 1) * (degree - 2) // 2 - sum(deltas)
    if g < 0:
        raise InputError(
            f"degree-{degree} component with delta sum {sum(deltas)} "
            f"would have negative genus {g}"
        )
    return g


# ---------------------------------------------------------------------------
# the curve
# ---------------------------------------------------------------------------


def curve_spec_from_dict(curve: dict) -> dict:
    """Check a curve and return the geometric genus of each component.

    ``curve`` is the "curve" object of a document that `schema.validate`
    accepted against schemas/lys-input.schema.json: ``degree``,
    ``components`` with ``id`` and ``degree``, and ``singular_points``
    with ``id``, ``mu``, ``r`` and ``branches_on``, which maps component
    ids to the number of local branches there.  The checks the schema
    cannot make raise InputError on the first fault, in this order: at
    each point, the branch counts sum to r and delta_invariant accepts
    (mu, r); component ids are distinct; component degrees sum to the
    degree; point ids are distinct; every point lies on declared
    components; and no component has a negative genus.

    A point on a single component gives its full delta to that
    component.  A point shared between components splits its delta in a
    way the numerical data does not pin down, so a component through a
    shared point gets INDETERMINATE.

    >>> cusp = {"mu": 2, "r": 1, "branches_on": {"c": 1}}
    >>> curve_spec_from_dict({"degree": 4, "components": [{"id": "c", "degree": 4}],
    ...     "singular_points": [{**cusp, "id": p} for p in ("p1", "p2", "p3")]})
    {'c': 0}
    """
    points = curve["singular_points"]
    deltas = []
    for p in points:
        counts = sorted(p["branches_on"].values())
        if sum(counts) != p["r"]:
            raise InputError(
                f"point {p['id']!r}: branch counts {counts} sum to {sum(counts)}, "
                f"expected r = {p['r']}"
            )
        deltas.append(delta_invariant(p["mu"], p["r"]))
    ids = [c["id"] for c in curve["components"]]
    if len(set(ids)) != len(ids):
        raise InputError(f"duplicate component ids: {ids}")
    total = sum(c["degree"] for c in curve["components"])
    if total != curve["degree"]:
        raise InputError(f"component degrees sum to {total}, curve degree is {curve['degree']}")
    point_ids = [p["id"] for p in points]
    if len(set(point_ids)) != len(point_ids):
        raise InputError(f"duplicate singular point ids: {point_ids}")
    known = set(ids)
    for p in points:
        for comp in sorted(p["branches_on"]):
            if comp not in known:
                raise InputError(f"point {p['id']!r} references unknown component {comp!r}")
    genera = {}
    for c in curve["components"]:
        on_c = [(p, delta) for p, delta in zip(points, deltas) if c["id"] in p["branches_on"]]
        if any(len(p["branches_on"]) > 1 for p, _ in on_c):
            genera[c["id"]] = INDETERMINATE
        else:
            genera[c["id"]] = genus_component(c["degree"], [delta for _, delta in on_c])
    return genera


# ---------------------------------------------------------------------------
# intersection matrices on the cone-like surfaces
# ---------------------------------------------------------------------------


def surface_intersections(degree: int, k: int, degrees) -> tuple:
    """Intersection matrices of the curve components inside the surface.

    For a degree-d curve with components of the given degrees sitting in
    the k-th cone-like surface, returns the pair (V, Vk):

    * ``V``    -- rational matrix, entries Fraction: off-diagonal
                  d_i * d_j / k, diagonal -d_i * (d - d_i + k) / k;
    * ``Vk``   -- the integral matrix k * V, entries int.

    ``degree`` and ``k`` are at least 1, and ``degrees`` is a nonempty
    list of positive ints that sum to ``degree``: those of a curve that
    `curve_spec_from_dict` accepted.

    >>> surface_intersections(6, 1, [6])[0]
    [[Fraction(-6, 1)]]
    >>> surface_intersections(3, 2, [3])[1]
    [[-6]]
    """
    n = len(degrees)
    v = [[Fraction(0)] * n for _ in range(n)]
    vk = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                vk[i][j] = -degrees[i] * (degree - degrees[i] + k)
            else:
                vk[i][j] = degrees[i] * degrees[j]
            v[i][j] = Fraction(vk[i][j], k)
    return v, vk


# ---------------------------------------------------------------------------
# resolution-graph combinatorics
# ---------------------------------------------------------------------------


def link_graph_adjust(graph: dict, degree: int, degrees) -> dict:
    """Rewrite self-intersections when the curve moves to the cone surface.

    ``graph`` is a link graph that `schema.validate` accepted against
    schemas/combinatorics.schema.json: vertices with ``id``, ``self_int``,
    ``marked`` and ``genus``, and ``edges``, pairs of ids.  Marked vertices
    are curve components, unmarked ones exceptional curves of genus 0.
    The i-th marked vertex (in vertex order) corresponds to the degree-d_i
    component; the result holds a new dict for it whose self-intersection
    is d_i * (d + 1) lower.  Unmarked vertices and the edges are the
    graph's own.

    >>> g = {"vertices": [{"id": "c", "self_int": 36, "marked": True, "genus": 0}], "edges": []}
    >>> link_graph_adjust(g, 6, [6])["vertices"][0]["self_int"]
    -6
    """
    vertices = graph["vertices"]
    for v in vertices:
        if not v["marked"] and v["genus"] != 0:
            raise InputError(
                f"vertex {v['id']!r}: unmarked vertices have genus 0, got {v['genus']}"
            )
    ids = [v["id"] for v in vertices]
    if len(set(ids)) != len(ids):
        raise InputError(f"duplicate vertex ids: {ids}")
    known = set(ids)
    for a, b in graph["edges"]:
        if a not in known or b not in known:
            raise InputError(f"edge ({a!r}, {b!r}) references unknown vertex")
        if a == b:
            raise InputError(f"loop edge at {a!r} not allowed")
    degrees = list(degrees)
    marked = [v["id"] for v in vertices if v["marked"]]
    if len(marked) != len(degrees):
        raise InputError(
            f"{len(marked)} marked vertices but {len(degrees)} component degrees"
        )
    shift = {vid: d * (degree + 1) for vid, d in zip(marked, degrees)}
    return {
        "vertices": [
            {**v, "self_int": v["self_int"] - shift[v["id"]]} if v["marked"] else v
            for v in vertices
        ],
        "edges": graph["edges"],
    }


# ---------------------------------------------------------------------------
# link criteria
# ---------------------------------------------------------------------------


def qhs_test(curve: dict, k: int, genera: dict, suspension_flags: dict = None):
    """Decide whether the link of the cone-like surface is a rational
    homology sphere, from the curve combinatorics.

    The criteria: every component is rational (genus 0); every component is
    unibranch at each of its singular points; for a reducible curve all
    components pass through exactly one common point and meet nowhere else;
    and, for k > 1, every singular point satisfies the suspension condition
    recorded in ``suspension_flags`` (point id -> bool).

    ``curve`` is a curve that `curve_spec_from_dict` accepted, and ``k`` is
    at least 1.  ``genera`` maps component ids to genera: those
    `curve_spec_from_dict` returns, with any the caller knows put over
    them, as it must where the derivation leaves a genus INDETERMINATE.
    Every key of ``genera`` and ``suspension_flags`` must name a component
    or singular point of ``curve``.
    For k = 1 the suspension flags are irrelevant and their values never
    consulted; for k > 1 a missing flag makes the verdict INDETERMINATE
    rather than False.

    Returns ``{"is_qhs": True | False | INDETERMINATE, "reasons": [...]}``.
    """
    reasons = []
    undetermined = 0  # reasons that leave the verdict open; the rest are failures

    unknown = set(genera) - {c["id"] for c in curve["components"]}
    if unknown:
        raise InputError(f"genera given for unknown components: {sorted(unknown)}")
    points = curve["singular_points"]
    flags = suspension_flags or {}
    unknown = set(flags) - {p["id"] for p in points}
    if unknown:
        raise InputError(f"suspension flags given for unknown points: {sorted(unknown)}")
    for comp_id, g in sorted(genera.items()):
        if g is INDETERMINATE:
            undetermined += 1
            reasons.append(f"genus of component {comp_id!r} not determined by the data")
        elif g != 0:
            reasons.append(f"component {comp_id!r} has genus {g} != 0")

    for p in points:
        for comp, count in sorted(p["branches_on"].items()):
            if count > 1:
                reasons.append(
                    f"component {comp!r} has {count} branches at point {p['id']!r}; "
                    "need unibranch components"
                )

    if len(curve["components"]) > 1:
        meeting = [p for p in points if len(p["branches_on"]) > 1]
        all_ids = {c["id"] for c in curve["components"]}
        if len(meeting) != 1:
            where = sorted(p["id"] for p in meeting)
            reasons.append(
                f"components meet at {len(meeting)} points {where}; need exactly one"
            )
        elif set(meeting[0]["branches_on"]) != all_ids:
            missing = sorted(all_ids - set(meeting[0]["branches_on"]))
            reasons.append(
                f"components {missing} miss the common point {meeting[0]['id']!r}"
            )

    if k > 1:
        for p in points:
            if p["id"] not in flags:
                undetermined += 1
                reasons.append(
                    f"suspension condition unknown at point {p['id']!r} (k = {k})"
                )
            elif not flags[p["id"]]:
                reasons.append(f"suspension condition fails at point {p['id']!r} (k = {k})")

    if len(reasons) > undetermined:
        return {"is_qhs": False, "reasons": reasons}
    if undetermined:
        return {"is_qhs": INDETERMINATE, "reasons": reasons}
    return {"is_qhs": True, "reasons": []}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def combinatorics_to_dot(graph: dict) -> str:
    """Render a link graph, as `link_graph_adjust` takes and returns it, in
    DOT format for graphviz."""
    nodes = [
        (v["id"], f"{v['id']}\n{v['self_int']}" + (f"\ng={v['genus']}" if v["genus"] else ""),
         v["marked"])
        for v in graph["vertices"]
    ]
    return dot_graph("link", nodes, graph["edges"])


def _dot_string(s: str) -> str:
    """s as a DOT quoted string: backslashes and double quotes escaped,
    line breaks written as \\n."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def dot_graph(name: str, nodes, edges) -> str:
    """An undirected DOT graph of circles: ``nodes`` are (id, label,
    double circle?) triples, ``edges`` pairs of ids.  Ids and labels may
    hold any characters; label lines are separated by newlines."""
    q = _dot_string
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for vid, label, double in nodes:
        shape = " shape=doublecircle" if double else ""
        lines.append(f"  {q(vid)} [label={q(label)}{shape}];")
    lines.extend(f"  {q(a)} -- {q(b)};" for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
