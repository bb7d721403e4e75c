"""Problem-file format (JSON) and result envelopes.

A problem file looks like::

    {
      "version": "1",
      "space": {"points": ["a", "b"], "mu": {"a": 1.0, "b": 1.0}},
      "edges": [{"u": "a", "v": "b", "weight": 1.0, "exponent": 2.0}],
      "kill": [{"point": "a", "kappa": 1.0, "exponent": 2.0}],
      "boundary": ["b"],
      "defaults": {"tol": 1e-9}
    }

Each invariant is checked once, by its owner.  ``parse_problem`` checks the
JSON shape: section types, record keys (a key it does not read is an error),
point names that are strings, numbers that are JSON numbers (a boolean or an
int past the float range is not) and the types of ``defaults``.
``MeasureSpace`` checks mu; ``EnergySpec.from_columns`` takes the columns,
looks up every point and checks self-loops, weights, exponents and kappas
(the ``Infinity`` and ``NaN`` that Python's parser accepts fail these
ranges); ``ProxConfig`` checks the ranges of ``defaults``.  ``parse_problem``
raises only StructuralError, naming the offending record.

The records of ``edges`` and ``kill`` are read as one column per key, and
each column is checked whole; only a column that fails is scanned record by
record, to name the first bad one.

``serialize(parse(text))`` is a normal form: parsing it again yields an
identical structure.  A fixed-schema emitter writes it from the columns,
and its bytes equal ``json.dumps(doc, indent=2)`` of the same document;
``input_digest`` is the SHA-256 of those bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .energy import EnergySpec
from .errors import ParameterError, StructuralError
from .space import MeasureSpace

FORMAT_VERSION = "1"


@dataclass
class ProblemFile:
    """A parsed problem file.  ``mu`` is aligned with ``points``; ``edges``
    and ``kill`` hold one column per key, in the key order of ``_RECORDS``."""

    version: str
    points: list[str]
    mu: list[float]
    edges: tuple[list, ...]
    kill: tuple[list, ...]
    boundary: list[str]
    defaults: dict = field(default_factory=dict)
    # the EnergySpec that parse_problem built to validate the file
    spec: EnergySpec | None = field(default=None, init=False, repr=False, compare=False)

    def to_energy_spec(self) -> EnergySpec:
        space = MeasureSpace(tuple(self.points), np.array(self.mu, dtype=float))
        return EnergySpec.from_columns(space, self.edges, self.kill, self.boundary)


def _require(cond: bool, message: str):
    if not cond:
        raise StructuralError(message)


def _as_float(value) -> float:
    """A JSON number as a float.  Anything else (a boolean, an int past the
    float range, a string, an object) reads as NaN, which the range check of
    the value's owner rejects under the record's name."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def _floats(values: list) -> list[float]:
    """A column of JSON numbers as floats, checked whole; a column that
    fails is read value by value with ``_as_float``."""
    if set(map(type, values)) <= {int, float}:
        try:
            return list(map(float, values))
        except OverflowError:
            pass
    return list(map(_as_float, values))


def _all_str(values: list) -> bool:
    return set(map(type, values)) <= {str}


def _require_keys(record: dict, keys, where: str):
    for key in record:
        if key not in keys:
            raise StructuralError(f"{where}: unknown key {key!r}")


# section -> (record name, key -> default); a None default marks a required
# point name, every other key is a number
_RECORDS = {
    "edges": ("edge", {"u": None, "v": None, "weight": 1.0, "exponent": 2.0}),
    "kill": ("kill", {"point": None, "kappa": 0.0, "exponent": 2.0}),
}


def _raise_first_bad_record(records: list, name: str, keys: dict):
    """Scan the records in order and raise the shape error of the first bad
    one; called only once a column check has failed."""
    for i, record in enumerate(records):
        where = f"{name} {i}"
        _require(isinstance(record, dict), f"{where}: must be an object")
        _require_keys(record, keys, where)
        for key, default in keys.items():
            if default is None:
                _require(isinstance(record.get(key), str), f"{where}: {key} must name a point")
    raise AssertionError("a column check failed on records that pass the scan")


def _read_columns(raw: dict, section: str) -> tuple[list, ...]:
    """The records of ``section`` as one column per key, in the key order of
    ``_RECORDS``: point names as lists of strings, numbers as floats with
    the defaults filled."""
    name, keys = _RECORDS[section]
    records = raw.get(section, [])
    _require(isinstance(records, list), f"{section} must be a list")
    if not (set(map(type, records)) <= {dict} and set(chain.from_iterable(records)) <= keys.keys()):
        _raise_first_bad_record(records, name, keys)
    columns = []
    for key, default in keys.items():
        column = list(map(dict.get, records, repeat(key), repeat(default)))
        if default is None:
            if not _all_str(column):
                _raise_first_bad_record(records, name, keys)
        else:
            column = _floats(column)
        columns.append(column)
    return tuple(columns)


def parse_problem(text: str) -> ProblemFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(raw, dict), "problem file must be a JSON object")
    _require_keys(raw, ("version", "space", "edges", "kill", "boundary", "defaults"), "problem file")
    version = raw.get("version", FORMAT_VERSION)
    _require(isinstance(version, str), "version must be a string")

    space = raw.get("space")
    _require(isinstance(space, dict), "missing 'space' object")
    _require_keys(space, ("points", "mu"), "space")
    points = space.get("points")
    _require(
        isinstance(points, list) and _all_str(points),
        "space.points must be a list of strings",
    )
    mu_raw = space.get("mu", {})
    _require(isinstance(mu_raw, dict), "space.mu must be an object")
    mu = _floats(list(map(mu_raw.get, points, repeat(1.0))))
    if not mu_raw.keys() <= set(points):
        for p in mu_raw:
            _require(p in points, f"space.mu names unknown point {p!r}")
    edges = _read_columns(raw, "edges")
    kill = _read_columns(raw, "kill")

    boundary = raw.get("boundary", [])
    _require(
        isinstance(boundary, list) and _all_str(boundary),
        "boundary must be a list of point names",
    )

    defaults = raw.get("defaults", {})
    _require(isinstance(defaults, dict), "defaults must be an object")
    _require_keys(defaults, ("tol", "max_iterations"), "defaults")
    tol, max_iterations = defaults.get("tol", 0), defaults.get("max_iterations", 0)
    _require(not math.isnan(_as_float(tol)), "defaults.tol must be a number")
    _require(type(max_iterations) is int, "defaults.max_iterations must be an integer")

    problem = ProblemFile(
        version=version,
        points=list(points),
        mu=mu,
        edges=edges,
        kill=kill,
        boundary=boundary,
        defaults=dict(defaults),
    )
    # the values are checked where they are owned: mu by MeasureSpace, the
    # rest by EnergySpec
    try:
        problem.spec = problem.to_energy_spec()
    except ParameterError as exc:
        raise StructuralError(str(exc)) from exc
    problem.boundary = [points[i] for i in np.flatnonzero(problem.spec.boundary_mask)]
    return problem


def _tokens(numbers: list[float]) -> list[str]:
    """The JSON token of each number, as the encoder writes it."""
    return json.dumps(numbers)[1:-1].split(", ") if numbers else []


def _block(brackets: str, items: list[str], depth: int) -> str:
    """A list or object of the JSON texts ``items`` at nesting ``depth``, laid
    out as ``json.dumps(..., indent=2)`` lays it out."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _records(section: str, columns: tuple[list, ...], names: dict[str, str]) -> str:
    """The ``section`` list: one ``%`` template per record, filled from one
    token column per key."""
    keys = _RECORDS[section][1]
    template = _block("{}", [f"{encode_basestring_ascii(k)}: %s" for k in keys], 2)
    tokens = [
        list(map(names.__getitem__, column)) if default is None else _tokens(column)
        for column, default in zip(columns, keys.values())
    ]
    return _block("[]", list(map(template.__mod__, zip(*tokens))), 1)


def serialize_problem(problem: ProblemFile) -> str:
    """The normal form: ``json.dumps(doc, indent=2)`` of the problem, written
    from its columns with every point name encoded once."""
    names = dict(zip(problem.points, map(encode_basestring_ascii, problem.points)))
    points = list(map(names.__getitem__, problem.points))
    mu = list(map("%s: %s".__mod__, zip(points, _tokens(problem.mu))))
    space = [f'"points": {_block("[]", points, 2)}', f'"mu": {_block("{}", mu, 2)}']
    sections = [
        f'"version": {json.dumps(problem.version)}',
        f'"space": {_block("{}", space, 1)}',
        f'"edges": {_records("edges", problem.edges, names)}',
        f'"kill": {_records("kill", problem.kill, names)}',
        f'"boundary": {_block("[]", list(map(names.__getitem__, problem.boundary)), 1)}',
        # the small defaults dict goes through the encoder, one level in
        '"defaults": ' + json.dumps(problem.defaults, indent=2).replace("\n", "\n  "),
    ]
    return _block("{}", sections, 0) + "\n"


def input_digest(problem: ProblemFile) -> str:
    return hashlib.sha256(serialize_problem(problem).encode()).hexdigest()


def make_envelope(command: str, problem: ProblemFile, seed: int, **results) -> dict:
    """Result envelope; every numeric claim is carried by witness tables."""
    return {
        "command": command,
        "format_version": FORMAT_VERSION,
        "seed": seed,
        "input_digest": input_digest(problem),
        **results,
    }


def envelope_to_json(envelope: dict) -> str:
    """The envelope's JSON text; every result value is a plain Python value."""
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"
