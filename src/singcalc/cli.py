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
import json
import sys
from fractions import Fraction

from . import curves, monodromy, qres2d, quotient, weightfilt, wlys
from .cyclo import CycloProduct, expand
from .errors import INDETERMINATE, InputError, SingcalcError

# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _frac(x) -> str:
    return str(Fraction(x))


def _poly_block(c: CycloProduct) -> dict:
    """Factored form, expansion, degree, and display text of a product."""
    dense = expand(c)
    return {
        "factors": {str(m): e for m, e in c.factors},
        "expansion": list(dense.coeffs),
        "degree": dense.degree,
        "text": str(dense) if dense.degree <= 40 else str(c),
    }


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
    except json.JSONDecodeError as exc:
        raise InputError(f"input file {path} is not valid JSON: {exc}")


def _emit(report: dict, fmt: str, text_renderer, dot_renderer=None) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        return text_renderer(report)
    if fmt == "dot":
        if dot_renderer is None:
            raise InputError("dot output is not available for this subcommand")
        return dot_renderer()
    raise InputError(f"unknown format {fmt!r}")


def _cyclo_from_factor_map(data) -> CycloProduct:
    try:
        return CycloProduct({int(m): int(e) for m, e in dict(data).items()})
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed factor map {data!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# local: resolution of a plane-curve germ
# ---------------------------------------------------------------------------


def _bivar_from_json(data) -> qres2d.BivarPoly:
    if isinstance(data, dict):
        data = data.get("germ")
    if not isinstance(data, list):
        raise InputError('germ JSON must be {"germ": [{"i","j","c"}, ...]}')
    terms = {}
    try:
        for entry in data:
            key = (int(entry["i"]), int(entry["j"]))
            terms[key] = terms.get(key, Fraction(0)) + Fraction(str(entry["c"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed germ entry: {exc}") from exc
    return qres2d.BivarPoly(terms)


def _qgraph_json(g: qres2d.QResolutionGraph) -> dict:
    return {
        "vertices": [
            {
                "id": v.id,
                "multiplicity": v.multiplicity,
                "self_int": None if v.self_int is None else _frac(v.self_int),
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
    lines = ["graph resolution {", "  node [shape=circle];"]
    for vid in sorted(g.vertices):
        v = g.vertices[vid]
        label = f"{v.id}\\nN={v.multiplicity}"
        if v.self_int is not None:
            label += f"\\ne={v.self_int}"
        shape = " shape=doublecircle" if vid in strict else ""
        lines.append(f'  "{v.id}" [label="{label}"{shape}];')
    for u, v in g.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _local_text(report: dict) -> str:
    lines = [
        f"mu     = {report['mu']}",
        f"r      = {report['r']}",
        f"delta  = {report['delta']}",
        f"Delta  = {report['char_poly']['text']}",
        f"degree = {report['char_poly']['degree']}",
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
        "char_poly": _poly_block(inv.delta),
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
        f"Delta = {report['char_poly']['text']}",
        f"degree = {report['char_poly']['degree']}",
        f"QHS link: {report['qhs']['is_qhs']}",
    ]
    for reason in report["qhs"]["reasons"]:
        lines.append(f"  - {reason}")
    if report.get("jordan2") is not None:
        lines.append(f"Jordan size-2 part: {report['jordan2']['text']}")
    return "\n".join(lines) + "\n"


def _id_map(data: dict, field: str, convert):
    """The optional {id: value} map data[field], values passed through convert."""
    value = data.get(field)
    if value is None:
        return None
    try:
        return {str(key): convert(v) for key, v in value.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {field}: {exc}") from exc


def cmd_lys(args) -> str:
    data = _load_json(args.input)
    if not isinstance(data, dict) or "curve" not in data:
        raise InputError('lys JSON must be {"curve": {...}, "points": [...]}')
    spec = curves.curve_spec_from_dict(data["curve"])
    try:
        k = args.k if args.k is not None else int(data.get("k", 1))
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed k: {exc}") from exc
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")

    point_entries = data.get("points", [])
    if not isinstance(point_entries, list):
        raise InputError(f"malformed points: expected an array, got {point_entries!r}")
    points = []
    for entry in point_entries:
        try:
            mu = int(entry["mu"])
            r = int(entry["r"])
            charpoly = entry["charpoly"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed point entry: {exc}") from exc
        jordan1 = entry.get("jordan1")
        points.append(
            monodromy.LYSPoint(
                mu_p=mu,
                r_p=r,
                delta_p_charpoly=_cyclo_from_factor_map(charpoly),
                jordan1_p=None if jordan1 is None else _cyclo_from_factor_map(jordan1),
            )
        )
    declared = [(p.id, p.mu, p.r) for p in spec.singular_points]
    provided = [(e.get("id"), int(e["mu"]), int(e["r"])) for e in point_entries]
    if len(declared) != len(provided) or sorted(x[1:] for x in declared) != sorted(
        x[1:] for x in provided
    ):
        raise InputError(
            "points list does not match the curve's singular points "
            f"(curve has {len(declared)}, got {len(provided)})"
        )

    alexander = data.get("alexander")
    lys_input = monodromy.LYSInput(
        d=spec.degree,
        k=k,
        points=tuple(points),
        alexander=None if alexander is None else _cyclo_from_factor_map(alexander),
    )
    char = monodromy.char_poly_lys(lys_input)
    mu_total = monodromy.milnor_number(spec.degree, k, lys_input.mu_cone())

    degrees = [c.degree for c in spec.components]
    vhat, vk = curves.surface_intersections(spec.degree, k, degrees)

    link_graph = None
    adjusted = None
    if "graph" in data:
        link_graph = curves.combinatorics_from_dict(data["graph"])
        adjusted = curves.link_graph_adjust(link_graph, spec.degree, degrees)

    qhs = curves.qhs_test(
        spec,
        k,
        genera=_id_map(data, "genera", int),
        suspension_flags=_id_map(data, "suspension_flags", bool),
    )

    jordan2 = None
    if points and all(p.jordan1_p is not None for p in points):
        jordan2 = monodromy.jordan2_sis(lys_input)

    report = {
        "d": spec.degree,
        "k": k,
        "milnor_number": mu_total,
        "char_poly": _poly_block(char),
        "intersections": {
            "vhat": [[_frac(x) for x in row] for row in vhat],
            "vhat_k": [[_frac(x) for x in row] for row in vk],
        },
        "link_graph": None if adjusted is None else curves.combinatorics_to_dict(adjusted),
        "qhs": {"is_qhs": _verdict(qhs["is_qhs"]), "reasons": qhs["reasons"]},
        "jordan2": None if jordan2 is None else _poly_block(jordan2),
        "alexander": None
        if lys_input.alexander is None
        else _poly_block(lys_input.alexander),
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
    if args.d is None or args.beta is None:
        raise InputError("quotient needs --d and --beta")
    qtype = quotient.normalize_type(quotient.cyclic(args.d, 1, args.beta))
    chain = quotient.hj_resolve(args.d, args.beta)
    report = {
        "d": args.d,
        "beta": args.beta,
        "type": str(qtype),
        "chain_self_intersections": [-b for b in chain.b],
        "correction": _frac(chain.correction),
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
        lines.append(f"Delta^[{k}] = {report['delta'][k]['text']}")
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
        "delta": {str(k): _poly_block(p) for k, p in census.deltas().items()},
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
    data = _load_json(args.input)
    if not isinstance(data, dict) or "poly" not in data or "weights" not in data:
        raise InputError('wlys JSON must be {"poly": [...], "weights": [p,q,r], "points": [...]}')
    f = wlys.trivar_from_json(data["poly"])
    try:
        w = wlys.WeightVector(*[int(x) for x in data["weights"]])
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed weights: {exc}") from exc
    points = [wlys.point_from_json(p) for p in data.get("points", [])]
    out = wlys.wlys_admissibility(f, w, points)
    decomp = wlys.wdecompose(f, w)
    report = {
        "weights": list(w.as_tuple()),
        "d": out["d"],
        "k": out["k"],
        "admissible": _verdict(out["admissible"]),
        "failures": out["failures"],
        "parts": [
            {"degree": m, "poly": wlys.trivar_to_json(part)} for m, part in decomp.parts
        ],
    }
    return _emit(report, args.format, _wlys_text)


# ---------------------------------------------------------------------------
# zeta: A'Campo evaluation on a supplied resolution graph
# ---------------------------------------------------------------------------


def _zeta_text(report: dict) -> str:
    return (
        f"zeta = {report['zeta']['text']}\n"
        f"Delta (n={report['n']}) = {report['char_poly']['text']}\n"
    )


def cmd_zeta(args) -> str:
    data = _load_json(args.input)
    if not isinstance(data, dict) or "vertices" not in data:
        raise InputError('zeta JSON must be {"vertices": [{"id","multiplicity","chi_open"}]}')
    vertices = {}
    try:
        for entry in data["vertices"]:
            vid = str(entry["id"])
            vertices[vid] = qres2d.SmoothVertex(
                id=vid,
                multiplicity=int(entry["multiplicity"]),
                self_int=None,
                genus=int(entry.get("genus", 0)),
                chi_open=int(entry["chi_open"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed vertex entry: {exc}") from exc
    strict = [str(s) for s in data.get("strict", [])]
    graph = qres2d.SmoothResolutionGraph(vertices=vertices, edges=[], strict_vertices=strict)
    zeta = monodromy.acampo_zeta(graph)
    char = monodromy.zeta_to_char(zeta, args.n)
    report = {
        "n": args.n,
        "zeta": {"factors": {str(m): e for m, e in zeta.factors}, "text": str(zeta)},
        "char_poly": _poly_block(char),
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


_HANDLERS = {
    "local": cmd_local,
    "lys": cmd_lys,
    "quotient": cmd_quotient,
    "weightfilt": cmd_weightfilt,
    "wlys": cmd_wlys,
    "zeta": cmd_zeta,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
