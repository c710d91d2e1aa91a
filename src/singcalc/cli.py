"""Command-line front end: one subcommand per pipeline.

    singcalc local      --input germ.json      [--format json|text|dot]
    singcalc lys        --input curve.json     [--k N] [--format ...]
    singcalc quotient   --d D --beta B         [--format json|text]
    singcalc weightfilt --input matrix.json    [--m N] [--center M] [--format json|text]
    singcalc wlys       --input germ3.json     [--format json|text]
    singcalc zeta       --input graph.json     [--n 1|2] [--format json|text]

COMMANDS is the one table of subcommands and their options; the
argparse parser is built from it.  A plain argv, `command (--option
value)*` with each option spelled in full and given once and each value
one that option takes, is read straight from the table into the
namespace the parser would give.  Every other argv (help, abbreviations,
--option=value, repeats, values that start with "-", bad values) goes
to the parser, and only then is argparse imported.  Inputs are UTF-8
JSON files, read as bytes and decoded as UTF-8.

Reports are deterministic: JSON is emitted with sorted keys.  Handlers
put exact rationals in a report as Fractions, and the writer spells each
as the string of its str(), "p/q" or "n".  Exit codes: 0 success,
1 input error, 2 valid-but-unsupported input, 3 internal inconsistency.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import curves, monodromy, qres2d, quotient, weightfilt, wlys
from .cyclo import CycloProduct, DensePoly, expand, require_polynomial
from .errors import INDETERMINATE, InputError, SingcalcError, Unsupported
from .schema import rational, validate

# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


class _Expansion:
    """A product's expansion as `_write` writes it: the coefficients, and
    whether the sum of the product's exponents is odd."""

    __slots__ = ("coeffs", "odd")

    def __init__(self, coeffs: tuple[int, ...], odd: bool):
        self.coeffs = coeffs
        self.odd = odd


def _poly_block(c: CycloProduct) -> dict:
    """Factored form, expansion, degree and display text of a product."""
    dense = expand(c)
    return {
        "factors": {str(m): e for m, e in c.factors},
        "expansion": _Expansion(dense.coeffs, sum(e for _, e in c.factors) % 2 == 1),
        "degree": dense.degree,
        "text": _poly_text(c, dense),
    }


def _decimals(coeffs: tuple[int, ...], odd: bool, sep: str) -> str:
    """The coefficients in decimal, joined by sep: the low half converted,
    the high half its mirror, each sign flipped when odd."""
    n = len(coeffs)
    try:
        low = list(map(str, coeffs[: (n + 1) // 2]))
    except ValueError:
        raise Unsupported(
            f"a coefficient of the degree-{n - 1} expansion has more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's limit for "
            "writing an integer in decimal; --format text prints the factored form"
        )
    high = low[::-1] if n % 2 == 0 else low[-2::-1]  # a middle one is written once
    if odd and high:
        # prefix each with "-" and cancel "--"; no decimal starts with 0,
        # so "-0" can only be a negated zero
        high = [("-" + (sep + "-").join(high)).replace("--", "").replace("-0", "0")]
    return sep.join(low + high)


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
    """The JSON value in a UTF-8 file.  The bytes are decoded, and CRLF
    and a lone CR made one newline, as a text-mode read would: JSON error
    offsets count the characters of that text.  The decoding is done
    here, not by json.loads, which would also take UTF-16 and UTF-32."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except OSError as exc:  # a directory, no permission to read, a failed read
        raise InputError(f"cannot read input file {path}: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bytes that are not UTF-8, a
        # path with a NUL and integer literals past the interpreter's digit
        # limit, whose message ends in advice a CLI user cannot follow
        reason = str(exc)
        if "sys.set_int_max_str_digits" in reason:
            reason = (
                f"an integer of more than {sys.get_int_max_str_digits()} digits, "
                "the interpreter's limit for reading an integer in decimal"
            )
        raise InputError(f"input file {path} is not valid JSON: {reason}")


def _products(value, convert):
    """value with convert(c) for each CycloProduct c in it or its dicts, in order."""
    if isinstance(value, dict):
        return {key: _products(v, convert) for key, v in value.items()}
    return convert(value) if isinstance(value, CycloProduct) else value


def _write(value, out: list, indent: str) -> None:
    """Append to out the pieces of the text json.dumps(value, sort_keys=True,
    indent=2) writes, at the nesting whose line break and indent is indent.
    Containers are the plain dicts, lists and tuples reports are built of;
    a Fraction is written as the string of its str()."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is Fraction:  # tested early: a lys report holds a matrix of them
        out.append(encode_basestring_ascii(str(value)))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            out += (sep, encode_basestring_ascii(key), ": ")
            _write(value[key], out, inner)
            sep = "," + inner
        out += (indent, "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out += (indent, "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is _Expansion:
        inner = indent + "  "
        # appended apart: joining them here would copy the decimals, the
        # largest part of a big report, once more before the final join
        out += ("[", inner, _decimals(value.coeffs, value.odd, "," + inner), indent, "]")
    else:  # floats, subclasses of int and str, and types JSON cannot write
        out.append(json.dumps(value))


def _emit(report: dict, fmt: str, text_renderer, dot_renderer=None) -> str:
    """The report in a format.  JSON expands each product in it, text only
    those it prints up to degree 40; no format admits a non-polynomial.

    JSON is the text json.dumps(..., sort_keys=True, indent=2) writes, which
    `_write` writes directly: the stock encoder never uses its C code when
    it indents.  The products are expanded first, in the report's order, so
    that an error names the first of them.  A product of factors
    (t^m - 1)^e has a[deg - i] = (-1)^(sum e) a[i], because
    t^deg P(1/t) = prod (1 - t^m)^e, and `expand` builds the high half as
    that mirror of the low one; so the mirror of the low half's decimals
    is exactly the high half's, and each coefficient list is one join of
    them."""
    if fmt == "json":
        out: list = []
        _write(_products(report, _poly_block), out, "\n")
        out.append("\n")
        return "".join(out)
    _products(report, require_polynomial)
    return text_renderer(report) if fmt == "text" else dot_renderer()


def _factor_map(exponents: dict | None, *path) -> CycloProduct | None:
    """A factor map, m -> exponent of (t^m - 1), at path in its input, as a
    product; None for an absent map."""
    if exponents is None:
        return None
    return CycloProduct({rational(m, *path, m): e for m, e in exponents.items()})


# ---------------------------------------------------------------------------
# local: resolution of a plane-curve germ
# ---------------------------------------------------------------------------


def _graph_json(g) -> dict:
    """A resolution graph as the report writes it: vertices and strict ids sorted."""
    return {
        "vertices": [g.vertices[vid] for vid in sorted(g.vertices)],
        "edges": g.edges,
        "strict": sorted(g.strict_vertices),
    }


def _sgraph_dot(g: qres2d.ResolutionGraph) -> str:
    strict = set(g.strict_vertices)
    nodes = []
    for vid in sorted(g.vertices):
        v = g.vertices[vid]
        label = f"{vid}\nN={v['multiplicity']}"
        if v["self_int"] is not None:
            label += f"\ne={v['self_int']}"
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
    doc = validate(_load_json(args.input), "germ.schema.json")
    germ = qres2d.BivarPoly(
        ((m["i"], m["j"]), rational(m["c"], "germ", n, "c")) for n, m in enumerate(doc["germ"])
    )
    inv = qres2d.local_invariants(germ)
    graph, smooth = inv["graph"], inv["smooth_graph"]
    report = {
        **inv,
        "delta": curves.delta_invariant(inv["mu"], inv["r"]),
        "graph": {**_graph_json(graph), "blowups": graph.blowups},
        "smooth_graph": _graph_json(smooth),
    }
    return _emit(report, args.format, _local_text, lambda: _sgraph_dot(smooth))


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
    doc = validate(_load_json(args.input), "lys-input.schema.json")
    curve = doc["curve"]
    genera = curves.curve_spec_from_dict(curve)
    d = curve["degree"]
    k = doc["k"] if args.k is None else args.k
    points = [
        {
            **p,
            "charpoly": _factor_map(p["charpoly"], "points", n, "charpoly"),
            "jordan1": _factor_map(p.get("jordan1"), "points", n, "jordan1"),
        }
        for n, p in enumerate(doc["points"])
    ]
    alexander = _factor_map(doc.get("alexander"), "alexander")
    cone = {"d": d, "k": k, "points": points, "alexander": alexander}
    char = monodromy.char_poly_lys(cone)

    on_curve = {p["id"]: (p["mu"], p["r"]) for p in curve["singular_points"]}
    for n, p in enumerate(points):
        if "id" in p and on_curve.get(p["id"]) != (p["mu"], p["r"]):
            raise InputError(
                f"point {n} has id {p['id']!r}, which names no curve singular point "
                f"with mu = {p['mu']}, r = {p['r']}"
            )
    if sorted(on_curve.values()) != sorted((p["mu"], p["r"]) for p in points):
        raise InputError(
            "points list does not match the curve's singular points "
            f"(curve has {len(on_curve)}, got {len(points)})"
        )
    degrees = [c["degree"] for c in curve["components"]]
    vhat, vk = curves.surface_intersections(d, k, degrees)

    link_graph = None
    if "graph" in doc:
        link_graph = curves.link_graph_adjust(doc["graph"], d, degrees)

    qhs = curves.qhs_test(
        curve, k, {**genera, **doc.get("genera", {})}, doc.get("suspension_flags")
    )

    jordan2 = None
    if points and all(p["jordan1"] is not None for p in points):
        jordan2 = monodromy.jordan2_sis(cone)

    report = {
        "d": d,
        "k": k,
        "milnor_number": char.degree(),  # char_poly_lys checked it against the Milnor number
        "char_poly": char,
        "intersections": {
            "vhat": vhat,
            "vhat_k": [[str(x) for x in row] for row in vk],
        },
        "link_graph": link_graph,
        "qhs": {"is_qhs": _verdict(qhs["is_qhs"]), "reasons": qhs["reasons"]},
        "jordan2": jordan2,
        "alexander": alexander,
    }

    def render_dot():
        if link_graph is None:
            raise InputError("dot output needs a link graph in the input")
        return curves.combinatorics_to_dot(link_graph)

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
    b, correction, _ = quotient.hj_resolve(args.d, args.beta)
    report = {
        "d": args.d,
        "beta": args.beta,
        "type": quotient.symbol(normal),
        "chain_self_intersections": [-b_i for b_i in b],
        "correction": correction,
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
    h = weightfilt.matrix_from_json(validate(_load_json(args.input), "matrix.schema.json"))
    census = weightfilt.analyze(h, args.m)
    report = {
        **census,
        "dimension": len(h),
        "center": args.center,
        "gr_dims": {str(level + args.center): dim for level, dim in census["gr_dims"].items()},
        "jordan_blocks": list(census["jordan_blocks"]),
        "delta": {str(k): p for k, p in census["delta"].items()},
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
    doc = validate(_load_json(args.input), "wlys-input.schema.json")
    f = wlys.trivar_from_json(doc["poly"])
    points = []
    for n, p in enumerate(doc["points"]):
        coords = tuple(rational(x, "points", n, "coords", i) for i, x in enumerate(p["coords"]))
        if not any(coords):
            raise InputError("point must have a nonzero coordinate")
        points.append((coords, p["clause"]))  # the flags are accepted and ignored
    out = wlys.wlys_admissibility(f, doc["weights"], points)
    report = {
        "weights": doc["weights"],
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
    doc = validate(_load_json(args.input), "zeta-graph.schema.json")
    vertices = {}
    for n, v in enumerate(doc["vertices"]):
        if v["id"] in vertices:
            raise InputError(
                f"bad $.vertices[{n}].id: {json.dumps(v['id'])} is the id of an earlier vertex"
            )
        vertices[v["id"]] = v
    strict = doc["strict"]
    for n, vid in enumerate(strict):
        if vid not in vertices:
            raise InputError(f"bad $.strict[{n}]: {json.dumps(vid)} names no vertex")
    zeta = monodromy.acampo_zeta(vertices, strict)
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


_FORMATS = {"choices": ["json", "text"], "default": "json"}
_DOT_FORMATS = {"choices": ["json", "text", "dot"], "default": "json"}
_INPUT = {"help": "input JSON file"}

# subcommand -> (handler, help, {option: add_argument's keywords for it});
# the options are added, and listed in --help, in this order
COMMANDS = {
    "local": (cmd_local, "resolve a plane-curve germ",
              {"--input": _INPUT, "--format": _DOT_FORMATS}),
    "lys": (cmd_lys, "invariants from tangent-cone data", {
        "--input": _INPUT,
        "--format": _DOT_FORMATS,
        "--k": {"type": int, "default": None, "help": "transversality gap; overrides the input's k"},
    }),
    "quotient": (cmd_quotient, "resolve a cyclic quotient point", {
        "--d": {"type": int, "required": True, "help": "group order"},
        "--beta": {"type": int, "required": True, "help": "second weight of 1/d(1,beta)"},
        "--format": _FORMATS,
    }),
    "weightfilt": (cmd_weightfilt, "weight filtration of an automorphism", {
        "--input": _INPUT,
        "--format": _FORMATS,
        "--m": {"type": int, "default": None, "help": "power making h^m unipotent"},
        "--center": {"type": int, "default": 0, "help": "filtration center"},
    }),
    "wlys": (cmd_wlys, "weighted decomposition and admissibility",
             {"--input": _INPUT, "--format": _FORMATS}),
    "zeta": (cmd_zeta, "zeta function of a resolution graph", {
        "--input": _INPUT,
        "--format": _FORMATS,
        "--n": {"type": int, "default": 1, "choices": [1, 2], "help": "cohomology degree"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with a subparser for each entry of COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="singcalc",
        description="Exact invariants of cone-like surface singularities "
        "from plane-curve data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on the first call and reused after it,
    since building it costs more than most reports."""
    return build_parser()


def _plain_args(argv: list) -> SimpleNamespace | None:
    """The namespace the parser gives an argv `command (--option value)*`
    in which each option is one of the command's, spelled in full and
    given once, each value is a string that does not start with "-" and
    that the option's type and choices take, and every required option
    is given; None for any other argv, which is left to the parser."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    handler, _, options = COMMANDS[argv[0]]
    args = {"command": argv[0], "handler": handler}
    for option, value in zip(argv[1::2], argv[2::2]):
        keywords = options.get(option) if type(option) is str else None
        if keywords is None or option[2:] in args or type(value) is not str or value[:1] == "-":
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except (TypeError, ValueError):
                return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        args[option[2:]] = value
    for option, keywords in options.items():
        if option[2:] not in args:
            if keywords.get("required"):
                return None
            args[option[2:]] = keywords.get("default")
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on bad flags; that is an input error here.
            return 0 if exc.code == 0 else 1
    try:
        if "input" in vars(args) and not args.input:
            raise InputError(f"{args.command} needs --input FILE")
        sys.stdout.write(args.handler(args))
        return 0
    except SingcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # never panic on malformed input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
