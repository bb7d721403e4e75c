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
``MeasureSpace`` checks mu; ``EnergySpec`` looks up every point and checks
self-loops, weights, exponents and kappas (the ``Infinity`` and ``NaN`` that
Python's parser accepts fail these ranges); ``ProxConfig`` checks the ranges
of ``defaults``.  ``parse_problem`` raises only StructuralError, naming the
offending record.
``serialize(parse(text))`` is a normal form: parsing it again yields an
identical structure.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import Edge, EnergySpec, KillTerm
from .errors import ParameterError, StructuralError
from .space import MeasureSpace

FORMAT_VERSION = "1"


@dataclass
class ProblemFile:
    version: str
    points: list[str]
    mu: dict[str, float]
    edges: list[dict]
    kill: list[dict]
    boundary: list[str]
    defaults: dict = field(default_factory=dict)
    # the EnergySpec that parse_problem built to validate the file
    spec: EnergySpec | None = field(default=None, init=False, repr=False, compare=False)

    def to_energy_spec(self) -> EnergySpec:
        space = MeasureSpace(
            tuple(self.points), np.array([self.mu[p] for p in self.points])
        )
        edges = tuple(Edge(**e) for e in self.edges)
        kill = tuple(KillTerm(**k) for k in self.kill)
        return EnergySpec(space, edges, kill, frozenset(self.boundary))


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


def _read_records(raw: dict, section: str) -> list[dict]:
    """The records of ``section`` with their defaults filled and their numbers
    as floats, in the key order of ``_RECORDS``."""
    name, keys = _RECORDS[section]
    records = raw.get(section, [])
    _require(isinstance(records, list), f"{section} must be a list")
    out = []
    for i, record in enumerate(records):
        where = f"{name} {i}"
        _require(isinstance(record, dict), f"{where}: must be an object")
        _require_keys(record, keys, where)
        row = {}
        for key, default in keys.items():
            if default is None:
                _require(isinstance(record.get(key), str), f"{where}: {key} must name a point")
                row[key] = record[key]
            else:
                row[key] = _as_float(record.get(key, default))
        out.append(row)
    return out


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
        isinstance(points, list) and all(isinstance(p, str) for p in points),
        "space.points must be a list of strings",
    )
    mu_raw = space.get("mu", {})
    _require(isinstance(mu_raw, dict), "space.mu must be an object")
    mu = {p: _as_float(mu_raw.get(p, 1.0)) for p in points}
    for p in mu_raw:
        _require(p in mu, f"space.mu names unknown point {p!r}")
    edges = _read_records(raw, "edges")
    kill = _read_records(raw, "kill")

    boundary = raw.get("boundary", [])
    _require(
        isinstance(boundary, list) and all(isinstance(p, str) for p in boundary),
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


def serialize_problem(problem: ProblemFile) -> str:
    doc = {
        "version": problem.version,
        "space": {
            "points": problem.points,
            "mu": {p: problem.mu[p] for p in problem.points},
        },
        "edges": problem.edges,
        "kill": problem.kill,
        "boundary": problem.boundary,
        "defaults": problem.defaults,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


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
    def default(obj):
        if isinstance(obj, np.ndarray):
            return [float(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            return float(obj)
        if isinstance(obj, frozenset):
            return sorted(obj)
        raise TypeError(f"not JSON serializable: {type(obj)}")

    return json.dumps(envelope, indent=2, sort_keys=True, default=default) + "\n"
