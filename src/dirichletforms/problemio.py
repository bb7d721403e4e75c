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

``input_digest`` is the SHA-256 of what ``parse_problem`` checked, read
from the spec it built, in one fixed byte layout: a little-endian int64
header ``[n, edge rows, term rows, len(version), len(name) for each
point]``; the version and the point names in UTF-8 (``surrogatepass``, as
JSON may escape a lone surrogate); mu as ``<f8``; the term table's columns
``(u, v, w, p, m)``, ints as ``<i8`` and floats as ``<f8``; the boundary
mask, one byte per point; and ``json.dumps`` of ``defaults`` with sorted
keys and ``tol`` a float.  The header's counts come first, so no two
problems share the bytes.  Layout, key order, omitted record defaults and
``1`` against ``1.0`` leave the digest as it is.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat

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
    return problem


def input_digest(problem: ProblemFile) -> str:
    """The SHA-256 of the checked problem, in the layout of the module docstring."""
    spec = problem.spec
    texts = [t.encode("utf-8", "surrogatepass") for t in (problem.version, *problem.points)]
    header = [spec.space.n, spec._edge_count, len(spec._terms[0]), *map(len, texts)]
    defaults = dict(problem.defaults)
    if "tol" in defaults:
        defaults["tol"] = float(defaults["tol"])
    parts = [
        np.array(header, dtype="<i8").tobytes(),
        b"".join(texts),
        np.asarray(spec.space.mu, dtype="<f8").tobytes(),
        *(np.asarray(c, dtype="<i8" if i < 2 else "<f8").tobytes()
          for i, c in enumerate(spec._terms)),
        spec.boundary_mask.astype(np.uint8).tobytes(),
        json.dumps(defaults, sort_keys=True).encode(),
    ]
    return hashlib.sha256(b"".join(parts)).hexdigest()


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
