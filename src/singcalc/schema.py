"""Readers for the value types of the JSON input schemas in docs/schemas/.

Every input parser reads its values here.  An integer is a JSON integer,
neither a boolean nor a number with a fraction or exponent part (1.0); a
rational a JSON integer or a string "p" or "p/q" of decimal digits, read
as an int, or as a Fraction when written "p/q"; an order, a factor-map
key, a string of digits without a leading zero.  The
other kinds are JSON types, and (container, kind) reads the entries of an
array or object as kind.  An object of a schema has no key the schema does
not declare.  Off-schema values raise a one-line InputError.

>>> read(7, "rational", "c"), read("-4", "rational", "c"), read("6/4", "rational", "c")
(7, -4, Fraction(3, 2))
>>> read(1.0, "integer", "k")
Traceback (most recent call last):
...
singcalc.errors.InputError: bad k: expected a JSON integer, got 1.0
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InputError

__all__ = [
    "REQUIRED",
    "read",
    "keyed",
    "field",
    "objects",
    "monomials",
]

_TYPES = {"integer": int, "string": str, "boolean": bool, "array": list, "object": dict}
_PATTERNS = {"rational": re.compile(r"(-?[0-9]+)(?:/([0-9]+))?"),
             "order": re.compile(r"[1-9][0-9]*")}
_EXPECTED = {"rational": 'an integer or a "p/q" string', "order": "a positive integer key"}
REQUIRED = object()


def read(x, kind, where: str):
    """x as kind: an int for an order, an int or (for "p/q") a Fraction for
    a rational, else x."""
    if _TYPES.get(kind) is type(x):  # type, not isinstance: True is no integer
        return x
    if isinstance(kind, tuple):
        outer, inner = kind
        if type(x) is not _TYPES[outer]:
            read(x, outer, where)  # raises
        plain = _TYPES.get(inner)
        if all(type(v) is plain for v in (x if outer == "array" else x.values())):
            return x  # every entry has the plain JSON type: nothing to convert
        items = enumerate(x) if outer == "array" else x.items()
        name = "entry {} of {}" if outer == "array" else "{} of {}"
        x = {k: read(v, inner, name.format(k, where)) for k, v in items}
        return list(x.values()) if outer == "array" else x
    if kind == "rational" and type(x) is int:
        return x
    if kind in _PATTERNS and type(x) is str and (match := _PATTERNS[kind].fullmatch(x)):
        try:
            if kind == "order" or match[2] is None:
                return int(x)
            return Fraction(int(match[1]), int(match[2]))
        except ZeroDivisionError as exc:
            raise InputError(f"bad {where}: zero denominator in {json.dumps(x)}") from exc
        except ValueError as exc:  # more digits than the interpreter converts
            raise InputError(f"bad {where}: {exc}") from exc
    expected = _EXPECTED.get(kind, "a JSON " + kind)
    raise InputError(f"bad {where}: expected {expected}, got {json.dumps(x, default=repr):.40}")


def keyed(x, keys: str, where: str) -> dict:
    """x as a JSON object, each key of it one of the space-separated keys.

    >>> keyed({"mu": 2, "jordan": {}}, "id mu r charpoly jordan1", "point 0")
    Traceback (most recent call last):
    ...
    singcalc.errors.InputError: undeclared key "jordan" in point 0; declared: id mu r charpoly jordan1
    """
    x = read(x, "object", where)
    declared = keys.split()
    for key in x:
        if key not in declared:
            raise InputError(f"undeclared key {json.dumps(key):.40} in {where}; declared: {keys}")
    return x


def field(obj: dict, key: str, kind, where: str, default=REQUIRED):
    """obj[key] read as kind; default when the key is absent."""
    if key in obj:
        x = obj[key]
        return x if _TYPES.get(kind) is type(x) else read(x, kind, f"{key} of {where}")
    if default is REQUIRED:
        raise InputError(f"no {key} in {where}")
    return default


def objects(obj: dict, key: str, noun: str, where: str, keys: str, default=REQUIRED) -> list:
    """(f"{noun} {n}", entry) for the entries of obj[key], an array of
    objects with the space-separated keys."""
    entries = field(obj, key, ("array", "object"), where, default)
    return [(f"{noun} {n}", keyed(entry, keys, f"{noun} {n}")) for n, entry in enumerate(entries)]


def monomials(entries, exponents: str, where: str) -> dict:
    """{exponent tuple: coefficient} of monomials {"i": .., "c": ..}, exponents naming the keys."""
    terms = {}
    keys = " ".join(exponents) + " c"
    for n, entry in enumerate(read(entries, ("array", "object"), where)):
        at = f"monomial {n}"
        entry = keyed(entry, keys, at)
        term = tuple(field(entry, e, "integer", at) for e in exponents)
        c = field(entry, "c", "rational", at)
        terms[term] = terms[term] + c if term in terms else c
    return terms
