"""The JSON Schemas of the inputs, shipped in schemas/, and their one interpreter.

Each handler passes its input to `validate` with its schema's file name,
then only indexes what it gets back: the schemas are the one statement of
every input's types, keys, bounds and defaults.  The interpreter knows the
draft-07 they use: type, where an integer is a JSON integer, not a boolean
or 1.0; required, properties, additionalProperties (false or a schema),
propertyNames, and default, filled in where a key is absent; items,
minItems, maxItems, minimum, enum, and pattern, whose $ matches only at
the end, as in ECMA-262; anyOf over alternatives of distinct types; $ref.
A value off its schema raises a one-line InputError that locates it by
its JSONPath from the document's root.

>>> validate({"germ": [{"i": 1, "j": 2.0, "c": 1}]}, "germ.schema.json")
Traceback (most recent call last):
...
singcalc.errors.InputError: bad $.germ[0].j: expected a JSON integer, got 2.0
>>> validate({"vertices": [{"id": "E", "multiplicity": 2, "chi_open": 1}]}, "zeta-graph.schema.json")
{'vertices': [{'id': 'E', 'multiplicity': 2, 'chi_open': 1, 'genus': 0}], 'strict': []}
"""

from __future__ import annotations

import functools
import json
import os
import re
from fractions import Fraction

from .errors import InputError

__all__ = ["validate", "rational"]

_TYPES = {"integer": int, "string": str, "boolean": bool, "array": list, "object": dict, "null": type(None)}


class _Invalid(Exception):
    """A value off its schema: the message before and after its location,
    whose path is gathered from the value outwards, as the error passes up
    through the arrays and objects that hold it."""

    def __init__(self, head: str, tail: str = ""):
        self.head, self.tail, self.path = head, tail, []


def validate(doc, name: str):
    """doc, checked against the schema ``name``, a file of schemas/ or a part
    of one, "file#/json/pointer"; defaults are filled into doc in place."""
    try:
        _checker(name)(doc)
    except _Invalid as exc:
        raise InputError(exc.head + _where(reversed(exc.path)) + exc.tail) from None
    return doc


def rational(x, *path):
    """A rational of a document `validate` accepted, a JSON integer or a
    string "p" or "p/q", as an int, or as a Fraction when written "p/q"; a
    factor-map key reads as an int.  path locates x in the document for
    the errors of a zero denominator and of more digits than the
    interpreter converts.

    >>> rational(7), rational("-4"), rational("6/4")
    (7, -4, Fraction(3, 2))
    """
    if type(x) is int:
        return x
    p, _, q = x.partition("/")
    try:
        return Fraction(int(p), int(q)) if q else int(p)
    except ZeroDivisionError:
        raise InputError(f"bad {_where(path)}: zero denominator in {json.dumps(x)}") from None
    except ValueError as exc:  # more digits than the interpreter converts
        raise InputError(f"bad {_where(path)}: {exc}") from None


def _where(path) -> str:
    """The JSONPath of a location: $, then [n], .key, or ["key"] for a key
    that is no identifier, each key cut to 40 characters as `_shown` cuts."""
    key = lambda s: f".{s:.40}" if s.isidentifier() and s.isascii() else f"[{_shown(s)}]"  # noqa: E731
    return "$" + "".join(f"[{s}]" if type(s) is int else key(s) for s in path)


def _shown(x) -> str:
    return f"{json.dumps(x, default=repr):.40}"


@functools.cache
def _document(name: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "schemas", name), encoding="utf-8") as fh:
        return json.load(fh)


@functools.cache
def _checker(ref: str):
    """The check of the schema at ref, "file#/json/pointer": a function that
    raises _Invalid for a value off the schema and fills in its defaults."""
    name, _, pointer = ref.partition("#")
    node = _document(name)
    for step in pointer.split("/")[1:]:
        node = node[step]
    return _compile(node, name)


def _compile(node: dict, name: str):
    if "$ref" in node:
        ref = node["$ref"]
        return _checker(name + ref if ref.startswith("#") else ref)
    if "anyOf" in node:
        # dispatched on the value's type: trying the alternatives in turn
        # would raise an exception for each value the first one misses
        alternatives = {_TYPES[alt["type"]]: _compile(alt, name) for alt in node["anyOf"]}
        expected = " or ".join(f"a JSON {alt['type']}" for alt in node["anyOf"])

        def any_of(x):
            if type(x) not in alternatives:
                raise _Invalid("bad ", f": expected {expected}, got {_shown(x)}")
            alternatives[type(x)](x)

        return any_of

    tests = []  # (is x off the schema?, what x was expected to be), in order
    if "type" in node:
        tests.append((lambda x, kind=_TYPES[node["type"]]: type(x) is not kind, f"a JSON {node['type']}"))
    if "enum" in node:
        off = lambda x, enum=node["enum"]: not any(type(x) is type(e) and x == e for e in enum)  # noqa: E731
        tests.append((off, "one of " + ", ".join(map(json.dumps, node["enum"]))))
    if "minimum" in node:
        tests.append((lambda x, low=node["minimum"]: x < low, f">= {node['minimum']}"))
    if "pattern" in node:
        pattern = node["pattern"]
        search = re.compile(pattern[:-1] + r"\Z" if pattern.endswith("$") else pattern).search
        tests.append((lambda x: search(x) is None, f"a string matching {pattern}"))
    if "minItems" in node:
        tests.append((lambda x, n=node["minItems"]: len(x) < n, f"{node['minItems']} or more entries"))
    if "maxItems" in node:
        tests.append((lambda x, n=node["maxItems"]: len(x) > n, f"{node['maxItems']} or fewer entries"))
    items = _compile(node["items"], name) if "items" in node else None
    properties = node.get("properties", {})
    declared = " ".join(properties)
    defaults = [(key, json.dumps(sub["default"])) for key, sub in properties.items() if "default" in sub]
    properties = {key: _compile(sub, name) for key, sub in properties.items()}
    required = node.get("required", ())
    extra = node.get("additionalProperties", True)
    extra = None if extra is False else (lambda x: None) if extra is True else _compile(extra, name)
    names = _compile(node["propertyNames"], name) if "propertyNames" in node else None

    def check(x):
        for off, expected in tests:
            if off(x):
                raise _Invalid("bad ", f": expected {expected}, got {_shown(x)}")
        if items is not None:
            for n, item in enumerate(x):
                try:
                    items(item)
                except _Invalid as exc:
                    exc.path.append(n)
                    raise
        elif type(x) is dict:
            for key, value in x.items():
                sub = properties.get(key, extra)
                if sub is None:
                    raise _Invalid(f"undeclared key {_shown(key)} in ", f"; declared: {declared}")
                try:
                    if names is not None:
                        names(key)
                    sub(value)
                except _Invalid as exc:
                    exc.path.append(key)
                    raise
            for key in required:
                if key not in x:
                    raise _Invalid(f"no {key} in ")
            for key, default in defaults:
                if key not in x:
                    x[key] = json.loads(default)  # a fresh copy for each document

    return check
