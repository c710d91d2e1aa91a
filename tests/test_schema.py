"""The schema interpreter against jsonschema, the reference implementation
of JSON Schema, on seeded mutants of every input in tests/data.

jsonschema is a test-only dependency.  It is given singcalc's strict
integer (a JSON integer, not a boolean or 1.0), and then the two must
agree on every mutant, accept or reject.  Only the validators run, so no
mutant reaches a computation that could take long.
"""

import json
import random
from pathlib import Path

import pytest

from singcalc import schema
from singcalc.errors import InputError

DATA = Path(__file__).parent / "data"
SCHEMAS = Path(schema.__file__).parent / "schemas"

# (schema, document) of each input; the link graph of a lys input is
# also a document of its own schema
SAMPLES = [
    ("germ.schema.json", "a4_germ.json"),
    ("germ.schema.json", "a6_translated_germ.json"),
    ("germ.schema.json", "cusp_germ.json"),
    ("lys-input.schema.json", "sextic6_lys.json"),
    ("lys-input.schema.json", "sextic144_lys.json"),
    ("matrix.schema.json", "unipotent2.json"),
    ("wlys-input.schema.json", "wlys_s10.json"),
    ("zeta-graph.schema.json", "zeta_cusp.json"),
    ("combinatorics.schema.json", "sextic6_lys.json#graph"),
]
# Values that replace a node: zero and signs at every minimum, integers
# past 32 and 64 bits, booleans, a zero denominator, a string of more
# digits than the interpreter converts, a factor-map key with a leading
# zero, and null and the empty containers.
VALUES = (0, 1, -1, 10**6 + 3, 2**40, 10**30, -(10**30), True, False, "1/0", "7" * 5000, "06", None, [], {})
# Keys that an object key is renamed to: a factor-map key with a leading
# zero, and a valid one.
KEYS = ("06", "6")
MUTANTS_PER_SAMPLE = 150


def _sample(source: str):
    name, _, key = source.partition("#")
    doc = json.loads((DATA / name).read_text())
    return doc[key] if key else doc


def _paths(doc, path=()):
    """The key path of every node of a JSON document, the root first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(doc, rng):
    """doc with one random mutation: a node replaced by one of VALUES, an
    object's key dropped or renamed to one of KEYS, or an array entry
    duplicated."""
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    move = rng.randrange(4)
    if move == 1 and isinstance(node, dict) and node:
        del node[rng.choice(list(node))]
    elif move == 2 and isinstance(node, dict) and node:
        node[rng.choice(KEYS)] = node.pop(rng.choice(list(node)))
    elif move == 3 and isinstance(node, list) and node:
        node.insert(rng.randrange(len(node) + 1), json.loads(json.dumps(rng.choice(node))))
    else:
        value = json.loads(json.dumps(rng.choice(VALUES)))  # a fresh copy
        if not path:
            return value
        parent[path[-1]] = value
    return doc


def mutants(source: str, seed: int):
    """MUTANTS_PER_SAMPLE seeded mutants of a sample, each mutated 1 to 3 times."""
    rng = random.Random(f"{seed}:{source}")
    for _ in range(MUTANTS_PER_SAMPLE):
        doc = _sample(source)
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(doc, rng)
        yield doc


def _reference(name: str):
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    registry = referencing.Registry().with_resources(
        (path.name, referencing.Resource.from_contents(json.loads(path.read_text())))
        for path in SCHEMAS.glob("*.schema.json")
    )
    base = jsonschema.Draft7Validator
    strict = base.TYPE_CHECKER.redefine("integer", lambda checker, x: type(x) is int)
    validator = jsonschema.validators.extend(base, type_checker=strict)
    return validator(json.loads((SCHEMAS / name).read_text()), registry=registry)


def _accepts(doc, name: str) -> bool:
    try:
        schema.validate(json.loads(json.dumps(doc)), name)
    except InputError as exc:
        assert "\n" not in str(exc)
        return False
    return True


@pytest.mark.parametrize("name,source", SAMPLES, ids=[source for _, source in SAMPLES])
def test_validate_agrees_with_jsonschema(name, source):
    reference = _reference(name)
    verdicts, disagreements = set(), []
    for doc in mutants(source, seed=1):
        ours, theirs = _accepts(doc, name), reference.is_valid(doc)
        verdicts.add(ours)
        if ours != theirs:
            disagreements.append((ours, json.dumps(doc)[:300]))
    assert not disagreements, disagreements[:3]
    assert verdicts == {True, False}  # the corpus has mutants on both sides


def _keywords(node):
    """The keywords of a schema node and of the schemas inside it."""
    yield from node
    subschemas = [node.get(key) for key in ("items", "propertyNames", "additionalProperties")]
    subschemas += [*node.get("properties", {}).values(), *node.get("definitions", {}).values()]
    subschemas += node.get("anyOf", [])
    for sub in subschemas:
        if isinstance(sub, dict):
            yield from _keywords(sub)


def test_schemas_use_only_the_interpreted_keywords():
    # a keyword the interpreter does not know would be ignored, and the
    # schema would promise a check that no reader makes
    known = {
        "$schema", "$id", "title", "description", "definitions", "$ref", "anyOf", "type", "enum",
        "required", "properties", "additionalProperties", "propertyNames", "default",
        "items", "minItems", "maxItems", "minimum", "pattern",
    }
    paths = sorted(SCHEMAS.glob("*.schema.json"))
    assert len(paths) == 6
    for path in paths:
        assert set(_keywords(json.loads(path.read_text()))) <= known, path.name


def test_defaults_are_filled_in_fresh():
    # each document gets its own copy of a default array
    graph = '{"vertices": [{"id": "E", "multiplicity": 1, "chi_open": 1}]}'
    first = schema.validate(json.loads(graph), "zeta-graph.schema.json")
    first["strict"].append("E")
    second = schema.validate(json.loads(graph), "zeta-graph.schema.json")
    assert second["strict"] == [] and second["vertices"][0]["genus"] == 0


@pytest.mark.parametrize(
    "doc,name,line",
    [
        (
            {"curve": {"degree": 1, "components": [{"id": "l", "degree": 1}]}, "alexander": {"06": 1}},
            "lys-input.schema.json",
            'bad $.alexander["06"]: expected a string matching ^[1-9][0-9]*$, got "06"',
        ),
        (
            {"a b": -1},
            "lys-input.schema.json#/properties/genera",
            'bad $["a b"]: expected >= 0, got -1',
        ),
        (
            [["1", 0], [{}, 1]],
            "matrix.schema.json",
            "bad $[1][0]: expected a JSON integer or a JSON string, got {}",
        ),
        (
            # draft-07 patterns are ECMA-262 ones, where $ matches only at the end
            {"germ": [{"i": 0, "j": 2, "c": "5\n"}]},
            "germ.schema.json",
            'bad $.germ[0].c: expected a string matching ^-?[0-9]+(/[0-9]+)?$, got "5\\n"',
        ),
    ],
    ids=["factor-map-key", "key-no-identifier", "any-of", "trailing-newline"],
)
def test_error_line_locates_the_value(doc, name, line):
    with pytest.raises(InputError) as caught:
        schema.validate(doc, name)
    assert str(caught.value) == line
