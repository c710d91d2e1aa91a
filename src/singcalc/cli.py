"""Command-line front end: one subcommand per pipeline.

    singcalc local      --input germ.json      [--format json|text|dot]
    singcalc lys        --input curve.json     [--k N] [--format ...]
    singcalc quotient   --d D --beta B         [--format json|text]
    singcalc weightfilt --input matrix.json    [--m N] [--center M]
    singcalc wlys       --input germ3.json     [--format json|text]
    singcalc zeta       --input graph.json     [--n 1|2]

Reports are deterministic: JSON is emitted with sorted keys, and exact
rationals are serialized as strings "p/q".  Exit codes: 0 success,
1 input error, 2 valid-but-unsupported input, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import curves, monodromy, qres2d, quotient, weightfilt, wlys
from .cyclo import CycloProduct, DensePoly, expand, require_polynomial
from .errors import INDETERMINATE, InputError, SingcalcError
from .schema import REQUIRED, field, keyed, monomials, objects, read

# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _poly_block(c: CycloProduct) -> dict:
    """Factored form, expansion, degree, and display text of a product."""
    dense = expand(c)
    return {
        "factors": {str(m): e for m, e in c.factors},
        "expansion": list(dense.coeffs),
        "degree": dense.degree,
        "text": _poly_text(c, dense),
    }


def _poly_text(c: CycloProduct, dense: DensePoly | None = None) -> str:
    """The expanded polynomial up to degree 40, the factored form above;
    ``dense`` is the expansion of ``c`` where the caller holds it."""
    if c.degree() > 40:
        return str(c)
    return str(expand(c) if dense is None else dense)


def _verdict(value):
    if value is INDETERMINATE:
        return "indeterminate"
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bytes that are not UTF-8 and
        # integer literals past the interpreter's digit limit
        raise InputError(f"input file {path} is not valid JSON: {exc}")


def _products(value, convert):
    """value with convert(c) for each CycloProduct c in it or its dicts, in order."""
    if isinstance(value, dict):
        return {key: _products(v, convert) for key, v in value.items()}
    return convert(value) if isinstance(value, CycloProduct) else value


def _emit(report: dict, fmt: str, text_renderer, dot_renderer=None) -> str:
    """The report in a format.  JSON expands each product in it, text only
    those it prints up to degree 40; no format admits a non-polynomial."""
    if fmt == "json":
        return json.dumps(_products(report, _poly_block), sort_keys=True, indent=2) + "\n"
    _products(report, require_polynomial)
    return text_renderer(report) if fmt == "text" else dot_renderer()


def _factor_map(obj: dict, key: str, where: str, default=REQUIRED):
    """The factor map obj[key], m -> exponent of (t^m - 1), as a product."""
    exponents = field(obj, key, ("object", "integer"), where, default)
    if exponents is None:
        return None
    at = f"{key} of {where}"
    return CycloProduct({read(m, "order", at): e for m, e in exponents.items()})


# ---------------------------------------------------------------------------
# local: resolution of a plane-curve germ
# ---------------------------------------------------------------------------


def _bivar_from_json(data) -> qres2d.BivarPoly:
    germ = field(keyed(data, "germ", "germ input"), "germ", "array", "germ input")
    return qres2d.BivarPoly(monomials(germ, "ij", "germ"))


def _qgraph_json(g: qres2d.QResolutionGraph) -> dict:
    return {
        "vertices": [
            {
                "id": v.id,
                "multiplicity": v.multiplicity,
                "self_int": None if v.self_int is None else str(v.self_int),
                "genus": v.genus,
                "quotient_points": [[d, b] for d, b in v.quotient_points],
            }
            for v in sorted(g.vertices.values(), key=lambda v: v.id)
        ],
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "quotient": None if e.quotient is None else [e.quotient[0], e.quotient[1]],
            }
            for e in g.edges
        ],
        "strict": sorted(g.strict_vertices),
        "blowups": g.blowups,
    }


def _sgraph_json(g: qres2d.SmoothResolutionGraph) -> dict:
    return {
        "vertices": [
            {
                "id": v.id,
                "multiplicity": v.multiplicity,
                "self_int": v.self_int,
                "genus": v.genus,
                "chi_open": v.chi_open,
            }
            for v in sorted(g.vertices.values(), key=lambda v: v.id)
        ],
        "edges": [[u, v] for u, v in g.edges],
        "strict": sorted(g.strict_vertices),
    }


def _sgraph_dot(g: qres2d.SmoothResolutionGraph) -> str:
    strict = set(g.strict_vertices)
    nodes = []
    for vid in sorted(g.vertices):
        v = g.vertices[vid]
        label = f"{vid}\\nN={v.multiplicity}"
        if v.self_int is not None:
            label += f"\\ne={v.self_int}"
        nodes.append((vid, label, vid in strict))
    return curves.dot_graph("resolution", nodes, g.edges)


def _local_text(report: dict) -> str:
    lines = [
        f"mu     = {report['mu']}",
        f"r      = {report['r']}",
        f"delta  = {report['delta']}",
        f"Delta  = {_poly_text(report['char_poly'])}",
        f"degree = {report['char_poly'].degree()}",
        "smooth resolution graph:",
    ]
    for v in report["smooth_graph"]["vertices"]:
        lines.append(
            f"  {v['id']}: N={v['multiplicity']} e={v['self_int']} chi={v['chi_open']}"
        )
    for u, v in report["smooth_graph"]["edges"]:
        lines.append(f"  {u} -- {v}")
    return "\n".join(lines) + "\n"


def cmd_local(args) -> str:
    germ = _bivar_from_json(_load_json(args.input))
    inv = qres2d.local_invariants(germ)
    report = {
        "mu": inv.mu,
        "r": inv.branches,
        "delta": curves.delta_invariant(inv.mu, inv.branches),
        "char_poly": inv.delta,
        "graph": _qgraph_json(inv.graph),
        "smooth_graph": _sgraph_json(inv.smooth_graph),
    }
    return _emit(report, args.format, _local_text, lambda: _sgraph_dot(inv.smooth_graph))


# ---------------------------------------------------------------------------
# lys: invariants of a cone-like surface singularity from curve data
# ---------------------------------------------------------------------------


def _lys_text(report: dict) -> str:
    lines = [
        f"d = {report['d']}, k = {report['k']}",
        f"mu    = {report['milnor_number']}",
        f"Delta = {_poly_text(report['char_poly'])}",
        f"degree = {report['char_poly'].degree()}",
        f"QHS link: {report['qhs']['is_qhs']}",
    ]
    for reason in report["qhs"]["reasons"]:
        lines.append(f"  - {reason}")
    if report.get("jordan2") is not None:
        lines.append(f"Jordan size-2 part: {_poly_text(report['jordan2'])}")
    return "\n".join(lines) + "\n"


def cmd_lys(args) -> str:
    declared = "curve k points alexander graph genera suspension_flags"
    data = keyed(_load_json(args.input), declared, "lys input")
    spec = curves.curve_spec_from_dict(field(data, "curve", "object", "lys input"))
    k = field(data, "k", "integer", "lys input", 1)
    k = k if args.k is None else args.k

    curve_points = {p.id: (p.mu, p.r) for p in spec.singular_points}
    points = []
    for where, entry in objects(
        data, "points", "point", "lys input", "id mu r charpoly jordan1", []
    ):
        pid = field(entry, "id", "string", where, None)
        mu, r = field(entry, "mu", "integer", where), field(entry, "r", "integer", where)
        if pid is not None and curve_points.get(pid) != (mu, r):
            raise InputError(
                f"{where} has id {pid!r}, which names no curve singular point "
                f"with mu = {mu}, r = {r}"
            )
        points.append(
            monodromy.LYSPoint(
                mu_p=mu,
                r_p=r,
                delta_p_charpoly=_factor_map(entry, "charpoly", where),
                jordan1_p=_factor_map(entry, "jordan1", where, None),
            )
        )
    on_curve = sorted((p.mu, p.r) for p in spec.singular_points)
    provided = sorted((p.mu_p, p.r_p) for p in points)
    if on_curve != provided:
        raise InputError(
            "points list does not match the curve's singular points "
            f"(curve has {len(on_curve)}, got {len(provided)})"
        )

    lys_input = monodromy.LYSInput(
        d=spec.degree,
        k=k,
        points=tuple(points),
        alexander=_factor_map(data, "alexander", "lys input", None),
    )
    char = monodromy.char_poly_lys(lys_input)
    mu_total = monodromy.milnor_number(spec.degree, k, lys_input.mu_cone())

    degrees = [c.degree for c in spec.components]
    vhat, vk = curves.surface_intersections(spec.degree, k, degrees)

    adjusted = None
    graph = field(data, "graph", "object", "lys input", None)
    if graph is not None:
        link_graph = curves.combinatorics_from_dict(graph)
        adjusted = curves.link_graph_adjust(link_graph, spec.degree, degrees)

    qhs = curves.qhs_test(
        spec,
        k,
        genera=field(data, "genera", ("object", "integer"), "lys input", None),
        suspension_flags=field(data, "suspension_flags", ("object", "boolean"), "lys input", None),
    )

    jordan2 = None
    if points and all(p.jordan1_p is not None for p in points):
        jordan2 = monodromy.jordan2_sis(lys_input)

    report = {
        "d": spec.degree,
        "k": k,
        "milnor_number": mu_total,
        "char_poly": char,
        "intersections": {
            "vhat": [[str(x) for x in row] for row in vhat],
            "vhat_k": [[str(x) for x in row] for row in vk],
        },
        "link_graph": None if adjusted is None else curves.combinatorics_to_dict(adjusted),
        "qhs": {"is_qhs": _verdict(qhs["is_qhs"]), "reasons": qhs["reasons"]},
        "jordan2": jordan2,
        "alexander": lys_input.alexander,
    }

    def render_dot():
        if adjusted is None:
            raise InputError("dot output needs a link graph in the input")
        return curves.combinatorics_to_dot(adjusted)

    return _emit(report, args.format, _lys_text, render_dot)


# ---------------------------------------------------------------------------
# quotient: normal form and resolution chain of a cyclic point
# ---------------------------------------------------------------------------


def _quotient_text(report: dict) -> str:
    chain = ", ".join(str(x) for x in report["chain_self_intersections"])
    return (
        f"{report['type']}\n"
        f"chain: ({chain})\n"
        f"correction: {report['correction']}\n"
    )


def cmd_quotient(args) -> str:
    normal = quotient.normalize_type(args.d, 1, args.beta)
    chain = quotient.hj_resolve(args.d, args.beta)
    report = {
        "d": args.d,
        "beta": args.beta,
        "type": quotient.symbol(normal),
        "chain_self_intersections": [-b for b in chain.b],
        "correction": str(chain.correction),
    }
    return _emit(report, args.format, _quotient_text)


# ---------------------------------------------------------------------------
# weightfilt: filtration and level polynomials of an automorphism
# ---------------------------------------------------------------------------


def _weightfilt_text(report: dict) -> str:
    lines = [
        f"dimension = {report['dimension']}, m = {report['m']}, "
        f"center = {report['center']}",
        "gr dims: "
        + ", ".join(
            f"{k}: {v}" for k, v in sorted(report["gr_dims"].items(), key=lambda kv: int(kv[0]))
        ),
        "jordan blocks of I - h^m: " + str(report["jordan_blocks"]),
    ]
    for k in sorted(report["delta"], key=int):
        lines.append(f"Delta^[{k}] = {_poly_text(report['delta'][k])}")
    return "\n".join(lines) + "\n"


def cmd_weightfilt(args) -> str:
    h = weightfilt.matrix_from_json(_load_json(args.input))
    census = weightfilt.analyze(h, args.m)
    report = {
        "dimension": len(h),
        "m": census.m,
        "center": args.center,
        "gr_dims": {str(level): dim for level, dim in census.gr_dims(args.center).items()},
        "jordan_blocks": list(census.jordan_blocks()),
        "delta": {str(k): p for k, p in census.deltas().items()},
    }
    return _emit(report, args.format, _weightfilt_text)


# ---------------------------------------------------------------------------
# wlys: weighted decomposition and admissibility
# ---------------------------------------------------------------------------


def _wlys_text(report: dict) -> str:
    k = report["k"] if report["k"] is not None else "infinity (weighted-homogeneous)"
    lines = [
        f"weights = {tuple(report['weights'])}",
        f"d = {report['d']}, k = {k}",
        f"admissible: {report['admissible']}",
    ]
    for f in report["failures"]:
        lines.append(f"  - {f}")
    return "\n".join(lines) + "\n"


def cmd_wlys(args) -> str:
    data = keyed(_load_json(args.input), "poly weights points", "wlys input")
    f = wlys.trivar_from_json(field(data, "poly", "array", "wlys input"))
    weights = field(data, "weights", ("array", "integer"), "wlys input")
    if len(weights) != 3:
        raise InputError(f"bad weights of wlys input: expected 3 integers, got {len(weights)}")
    w = wlys.WeightVector(*weights)
    entries = field(data, "points", ("array", "object"), "wlys input", [])
    points = [wlys.point_from_json(p, f"point {n}") for n, p in enumerate(entries)]
    out = wlys.wlys_admissibility(f, w, points)
    report = {
        "weights": list(w.as_tuple()),
        "d": out["d"],
        "k": out["k"],
        "admissible": _verdict(out["admissible"]),
        "failures": out["failures"],
        "parts": [
            {"degree": m, "poly": wlys.trivar_to_json(part)} for m, part in out["parts"]
        ],
    }
    return _emit(report, args.format, _wlys_text)


# ---------------------------------------------------------------------------
# zeta: A'Campo evaluation on a supplied resolution graph
# ---------------------------------------------------------------------------


def _zeta_text(report: dict) -> str:
    return (
        f"zeta = {report['zeta']['text']}\n"
        f"Delta (n={report['n']}) = {_poly_text(report['char_poly'])}\n"
    )


def cmd_zeta(args) -> str:
    data = keyed(_load_json(args.input), "vertices strict", "zeta input")
    vertices = {}
    for where, entry in objects(
        data, "vertices", "vertex", "zeta input", "id multiplicity chi_open genus"
    ):
        vid = field(entry, "id", "string", where)
        if vid in vertices:
            raise InputError(
                f"bad id of {where}: {json.dumps(vid)} is the id of an earlier vertex"
            )
        multiplicity = field(entry, "multiplicity", "integer", where)
        if multiplicity < 1:
            raise InputError(
                f"bad multiplicity of {where} ({json.dumps(vid)}): {multiplicity}; need >= 1"
            )
        genus = field(entry, "genus", "integer", where, 0)
        if genus < 0:
            raise InputError(f"bad genus of {where} ({json.dumps(vid)}): {genus}; need >= 0")
        vertices[vid] = qres2d.SmoothVertex(
            id=vid,
            multiplicity=multiplicity,
            self_int=None,
            genus=genus,
            chi_open=field(entry, "chi_open", "integer", where),
        )
    strict = field(data, "strict", ("array", "string"), "zeta input", [])
    for vid in strict:
        if vid not in vertices:
            raise InputError(f"bad strict of zeta input: {json.dumps(vid)} names no vertex")
    graph = qres2d.SmoothResolutionGraph(vertices=vertices, edges=[], strict_vertices=strict)
    zeta = monodromy.acampo_zeta(graph)
    char = monodromy.zeta_to_char(zeta, args.n)
    report = {
        "n": args.n,
        "zeta": {"factors": {str(m): e for m, e in zeta.factors}, "text": str(zeta)},
        "char_poly": char,
    }
    return _emit(report, args.format, _zeta_text)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singcalc",
        description="Exact invariants of cone-like surface singularities "
        "from plane-curve data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dot=False):
        p.add_argument("--input", help="input JSON file")
        formats = ["json", "text", "dot"] if dot else ["json", "text"]
        p.add_argument("--format", choices=formats, default="json")

    p_local = sub.add_parser("local", help="resolve a plane-curve germ")
    common(p_local, dot=True)

    p_lys = sub.add_parser("lys", help="invariants from tangent-cone data")
    common(p_lys, dot=True)
    p_lys.add_argument("--k", type=int, default=None, help="transversality gap (default 1)")

    p_quot = sub.add_parser("quotient", help="resolve a cyclic quotient point")
    p_quot.add_argument("--d", type=int, required=True, help="group order")
    p_quot.add_argument("--beta", type=int, required=True, help="second weight of 1/d(1,beta)")
    p_quot.add_argument("--format", choices=["json", "text"], default="json")

    p_wf = sub.add_parser("weightfilt", help="weight filtration of an automorphism")
    common(p_wf)
    p_wf.add_argument("--m", type=int, default=None, help="power making h^m unipotent")
    p_wf.add_argument("--center", type=int, default=0, help="filtration center")

    p_wlys = sub.add_parser("wlys", help="weighted decomposition and admissibility")
    common(p_wlys)

    p_zeta = sub.add_parser("zeta", help="zeta function of a resolution graph")
    common(p_zeta)
    p_zeta.add_argument("--n", type=int, default=1, choices=[1, 2], help="cohomology degree")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on the first call and reused after it,
    since building one costs more than most reports."""
    return build_parser()


_HANDLERS = {
    "local": cmd_local,
    "lys": cmd_lys,
    "quotient": cmd_quotient,
    "weightfilt": cmd_weightfilt,
    "wlys": cmd_wlys,
    "zeta": cmd_zeta,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; that is an input error here.
        return 0 if exc.code == 0 else 1
    try:
        handler = _HANDLERS[args.command]
        if args.command != "quotient" and not args.input:
            raise InputError(f"{args.command} needs --input FILE")
        sys.stdout.write(handler(args))
        return 0
    except SingcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # never panic on malformed input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
