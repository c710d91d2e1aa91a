"""Global plane-curve data and the combinatorics of surface links.

A projective plane curve enters as a :class:`CurveSpec`: its degree, its
irreducible components, and numerical local data (Milnor number, branch
count) for each singular point.  From these the module derives
delta invariants and component genera, builds the intersection matrices of
the cone-like surfaces lying over the curve, rewrites resolution-graph
decorations when the curve is pushed from the projective plane into such a
surface, and decides whether the link is a rational homology sphere.

Everything here is arithmetic over exact rationals; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import INDETERMINATE, InputError
from .schema import field, keyed, objects

__all__ = [
    "delta_invariant",
    "genus_component",
    "CurveComponent",
    "SingularPoint",
    "CurveSpec",
    "surface_intersections",
    "GraphVertex",
    "Combinatorics",
    "link_graph_adjust",
    "qhs_test",
    "combinatorics_to_dict",
    "combinatorics_from_dict",
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
# curve specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveComponent:
    """One irreducible component: an identifier and its degree."""

    id: str
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise InputError(f"component {self.id!r}: degree must be >= 1, got {self.degree}")


@dataclass(frozen=True)
class SingularPoint:
    """Numerical data of one singular point of the curve.

    ``mu`` is the Milnor number, at least 1 at a singular point, and
    ``branches_on`` maps component ids to the number of local branches the
    component contributes at this point; the counts must sum to ``r``.
    """

    id: str
    mu: int
    r: int
    branches_on: tuple  # tuple of (component_id, branch_count)

    def __post_init__(self):
        if self.mu < 1:
            raise InputError(f"point {self.id!r}: mu must be >= 1, got {self.mu}")
        counts = dict(self.branches_on)
        if len(counts) != len(self.branches_on):
            raise InputError(f"point {self.id!r}: duplicate component in branches_on")
        for comp, n in counts.items():
            if n < 1:
                raise InputError(
                    f"point {self.id!r}: branch count for {comp!r} must be >= 1, got {n}"
                )
        if sum(counts.values()) != self.r:
            raise InputError(
                f"point {self.id!r}: branch counts {sorted(counts.values())} sum to "
                f"{sum(counts.values())}, expected r = {self.r}"
            )
        # delta() re-checks parity; trigger the check at construction time.
        delta_invariant(self.mu, self.r)

    def delta(self) -> int:
        return delta_invariant(self.mu, self.r)

    def components(self) -> tuple:
        return tuple(comp for comp, _ in self.branches_on)


@dataclass(frozen=True)
class CurveSpec:
    """A reduced projective plane curve given by numerical data.

    Validation enforces that component degrees sum to the total degree,
    that every branch count refers to a declared component, and that each
    component whose genus is determined by the data has genus >= 0.
    """

    degree: int
    components: tuple
    singular_points: tuple = ()

    def __post_init__(self):
        if self.degree < 1:
            raise InputError(f"curve degree must be >= 1, got {self.degree}")
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise InputError(f"duplicate component ids: {ids}")
        if not self.components:
            raise InputError("curve needs at least one component")
        total = sum(c.degree for c in self.components)
        if total != self.degree:
            raise InputError(
                f"component degrees sum to {total}, curve degree is {self.degree}"
            )
        known = set(ids)
        point_ids = [p.id for p in self.singular_points]
        if len(set(point_ids)) != len(point_ids):
            raise InputError(f"duplicate singular point ids: {point_ids}")
        for p in self.singular_points:
            for comp in p.components():
                if comp not in known:
                    raise InputError(
                        f"point {p.id!r} references unknown component {comp!r}"
                    )
        self.genera()  # genus_component rejects a negative genus

    def genera(self) -> dict:
        """Geometric genus per component, where the data determines it.

        A point lying on a single component contributes its full delta to
        that component.  A point shared between components splits its delta
        in a way the numerical data (mu, r, branch counts) does not pin
        down, so any component through a shared point gets INDETERMINATE.
        """
        shared = {
            p.id for p in self.singular_points if len(p.branches_on) > 1
        }
        out = {}
        for c in self.components:
            touched_shared = any(
                p.id in shared and c.id in p.components() for p in self.singular_points
            )
            if touched_shared:
                out[c.id] = INDETERMINATE
                continue
            deltas = [
                p.delta()
                for p in self.singular_points
                if p.components() == (c.id,)
            ]
            out[c.id] = genus_component(c.degree, deltas)
        return out


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

    >>> surface_intersections(6, 1, [6])[0]
    [[Fraction(-6, 1)]]
    >>> surface_intersections(3, 2, [3])[1]
    [[-6]]
    """
    if degree < 1 or k < 1:
        raise InputError(f"need degree >= 1 and k >= 1, got degree={degree}, k={k}")
    degrees = list(degrees)
    if not degrees or any(d < 1 for d in degrees):
        raise InputError(f"component degrees must be positive, got {degrees}")
    if sum(degrees) != degree:
        raise InputError(
            f"component degrees {degrees} sum to {sum(degrees)}, expected {degree}"
        )
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


@dataclass(frozen=True)
class GraphVertex:
    """Decorated vertex of a dual resolution graph.

    ``marked`` flags the vertices coming from curve components (as opposed
    to exceptional curves of the resolution); only marked vertices may
    carry positive genus.
    """

    id: str
    self_int: int
    marked: bool = False
    genus: int = 0

    def __post_init__(self):
        if self.genus < 0:
            raise InputError(f"vertex {self.id!r}: genus must be >= 0, got {self.genus}")
        if not self.marked and self.genus != 0:
            raise InputError(
                f"vertex {self.id!r}: unmarked vertices have genus 0, got {self.genus}"
            )


@dataclass(frozen=True)
class Combinatorics:
    """A decorated graph: vertices with self-intersections, and edges."""

    vertices: tuple
    edges: tuple  # tuple of (id, id) pairs

    def __post_init__(self):
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise InputError(f"duplicate vertex ids: {ids}")
        known = set(ids)
        for a, b in self.edges:
            if a not in known or b not in known:
                raise InputError(f"edge ({a!r}, {b!r}) references unknown vertex")
            if a == b:
                raise InputError(f"loop edge at {a!r} not allowed")


def link_graph_adjust(graph: Combinatorics, degree: int, degrees) -> Combinatorics:
    """Rewrite self-intersections when the curve moves to the cone surface.

    The i-th marked vertex (in vertex order) corresponds to the degree-d_i
    component; its self-intersection drops by d_i * (d + 1).  Unmarked
    vertices are untouched.

    >>> g = Combinatorics((GraphVertex("c", 36, marked=True),), ())
    >>> link_graph_adjust(g, 6, [6]).vertices[0].self_int
    -6
    """
    degrees = list(degrees)
    marked = [v for v in graph.vertices if v.marked]
    if len(marked) != len(degrees):
        raise InputError(
            f"{len(marked)} marked vertices but {len(degrees)} component degrees"
        )
    shift = {v.id: d * (degree + 1) for v, d in zip(marked, degrees)}
    new_vertices = tuple(
        GraphVertex(v.id, v.self_int - shift[v.id], v.marked, v.genus)
        if v.id in shift
        else v
        for v in graph.vertices
    )
    return Combinatorics(new_vertices, graph.edges)


# ---------------------------------------------------------------------------
# link criteria
# ---------------------------------------------------------------------------


def _neighbours(ids, edges) -> dict:
    """id -> list of the ids it shares an edge with, once per edge."""
    adj = {i: [] for i in ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _connected(ids, adjacency) -> bool:
    if not ids:
        return True
    seen = set()
    stack = [next(iter(ids))]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adjacency[x])
    return seen == set(ids)


def qhs_test(spec: CurveSpec, k: int, genera: dict = None, suspension_flags: dict = None):
    """Decide whether the link of the cone-like surface is a rational
    homology sphere, from the curve combinatorics.

    The criteria: every component is rational (genus 0); every component is
    unibranch at each of its singular points; for a reducible curve all
    components pass through exactly one common point and meet nowhere else;
    and, for k > 1, every singular point satisfies the suspension condition
    recorded in ``suspension_flags`` (point id -> bool).

    ``genera`` overrides/extends the genera derived from ``spec``, each
    >= 0; it is required wherever the derivation leaves a genus
    INDETERMINATE.  Every key of either map must name a component or
    singular point of ``spec``.
    For k = 1 the suspension flags are irrelevant and their values never
    consulted; for k > 1 a missing flag makes the verdict INDETERMINATE
    rather than False.

    Returns ``{"is_qhs": True | False | INDETERMINATE, "reasons": [...]}``.
    """
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    reasons = []
    undetermined = 0  # reasons that leave the verdict open; the rest are failures

    derived = spec.genera()
    if genera:
        unknown = set(genera) - {c.id for c in spec.components}
        if unknown:
            raise InputError(f"genera given for unknown components: {sorted(unknown)}")
        for comp_id, g in sorted(genera.items()):
            if g < 0:
                raise InputError(f"bad genus of component {comp_id!r} in genera: {g}; need >= 0")
        derived = {**derived, **genera}
    flags = suspension_flags or {}
    unknown = set(flags) - {p.id for p in spec.singular_points}
    if unknown:
        raise InputError(f"suspension flags given for unknown points: {sorted(unknown)}")
    for comp_id, g in sorted(derived.items()):
        if g is INDETERMINATE:
            undetermined += 1
            reasons.append(f"genus of component {comp_id!r} not determined by the data")
        elif g != 0:
            reasons.append(f"component {comp_id!r} has genus {g} != 0")

    for p in spec.singular_points:
        for comp, count in p.branches_on:
            if count > 1:
                reasons.append(
                    f"component {comp!r} has {count} branches at point {p.id!r}; "
                    "need unibranch components"
                )

    if len(spec.components) > 1:
        meeting = [p for p in spec.singular_points if len(p.branches_on) > 1]
        all_ids = {c.id for c in spec.components}
        if len(meeting) != 1:
            where = sorted(p.id for p in meeting)
            reasons.append(
                f"components meet at {len(meeting)} points {where}; need exactly one"
            )
        elif set(meeting[0].components()) != all_ids:
            missing = sorted(all_ids - set(meeting[0].components()))
            reasons.append(
                f"components {missing} miss the common point {meeting[0].id!r}"
            )

    if k > 1:
        for p in spec.singular_points:
            if p.id not in flags:
                undetermined += 1
                reasons.append(
                    f"suspension condition unknown at point {p.id!r} (k = {k})"
                )
            elif not flags[p.id]:
                reasons.append(f"suspension condition fails at point {p.id!r} (k = {k})")

    if len(reasons) > undetermined:
        return {"is_qhs": False, "reasons": reasons}
    if undetermined:
        return {"is_qhs": INDETERMINATE, "reasons": reasons}
    return {"is_qhs": True, "reasons": []}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def combinatorics_to_dict(graph: Combinatorics) -> dict:
    return {
        "vertices": [
            {"id": v.id, "self_int": v.self_int, "marked": v.marked, "genus": v.genus}
            for v in graph.vertices
        ],
        "edges": [[a, b] for a, b in graph.edges],
    }


def combinatorics_from_dict(data: dict) -> Combinatorics:
    """Parse a graph as docs/schemas/combinatorics.schema.json defines it."""
    data = keyed(data, "vertices edges", "graph")
    vertices = tuple(
        GraphVertex(
            id=field(v, "id", "string", where),
            self_int=field(v, "self_int", "integer", where),
            marked=field(v, "marked", "boolean", where, False),
            genus=field(v, "genus", "integer", where, 0),
        )
        for where, v in objects(
            data, "vertices", "graph vertex", "graph", "id self_int marked genus"
        )
    )
    edges = tuple(map(tuple, field(data, "edges", ("array", ("array", "string")), "graph", [])))
    if any(len(edge) != 2 for edge in edges):
        raise InputError("bad edges of graph: an edge joins 2 vertex ids")
    return Combinatorics(vertices, edges)


def curve_spec_from_dict(data: dict) -> CurveSpec:
    """Parse the "curve" object of docs/schemas/lys-input.schema.json."""
    data = keyed(data, "degree components singular_points", "curve")
    components = tuple(
        CurveComponent(field(c, "id", "string", where), field(c, "degree", "integer", where))
        for where, c in objects(data, "components", "curve component", "curve", "id degree")
    )
    points = tuple(
        SingularPoint(
            id=field(p, "id", "string", where),
            mu=field(p, "mu", "integer", where),
            r=field(p, "r", "integer", where),
            branches_on=tuple(
                sorted(field(p, "branches_on", ("object", "integer"), where).items())
            ),
        )
        for where, p in objects(
            data, "singular_points", "curve singular point", "curve", "id mu r branches_on", []
        )
    )
    degree = field(data, "degree", "integer", "curve")
    return CurveSpec(degree=degree, components=components, singular_points=points)


def combinatorics_to_dot(graph: Combinatorics, name: str = "link") -> str:
    """Render the decorated graph in DOT format for graphviz."""
    nodes = [
        (v.id, f"{v.id}\\n{v.self_int}" + (f"\\ng={v.genus}" if v.genus else ""), v.marked)
        for v in graph.vertices
    ]
    return dot_graph(name, nodes, graph.edges)


def dot_graph(name: str, nodes, edges) -> str:
    """An undirected DOT graph of circles: ``nodes`` are (id, label,
    double circle?) triples, ``edges`` pairs of ids."""
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for vid, label, double in nodes:
        shape = " shape=doublecircle" if double else ""
        lines.append(f'  "{vid}" [label="{label}"{shape}];')
    lines.extend(f'  "{a}" -- "{b}";' for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
