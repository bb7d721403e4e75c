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

Parsing validates every EnergySpec invariant and the types of ``defaults``
(``tol`` a number, ``max_iterations`` an integer; a JSON boolean is never a
number, and neither is the ``Infinity`` or ``NaN`` that Python's parser
accepts), rejects every key it does not read, and names the offending
record in error messages.
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
from .errors import StructuralError
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
        edges = tuple(
            Edge(e["u"], e["v"], float(e["weight"]), float(e["exponent"]))
            for e in self.edges
        )
        kill = tuple(
            KillTerm(k["point"], float(k["kappa"]), float(k["exponent"]))
            for k in self.kill
        )
        return EnergySpec(space, edges, kill, frozenset(self.boundary))


def _require(cond: bool, message: str):
    if not cond:
        raise StructuralError(message)


def _is_number(value) -> bool:
    """A JSON number: an int or a float (not a boolean), finite as a float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_keys(record: dict, keys: tuple[str, ...], where: str):
    for key in record:
        if key not in keys:
            raise StructuralError(f"{where}: unknown key {key!r}")


def parse_problem(text: str) -> ProblemFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(raw, dict), "problem file must be a JSON object")
    _require_keys(raw, ("version", "space", "edges", "kill", "boundary", "defaults"), "problem file")
    version = str(raw.get("version", FORMAT_VERSION))

    space = raw.get("space")
    _require(isinstance(space, dict), "missing 'space' object")
    _require_keys(space, ("points", "mu"), "space")
    points = space.get("points")
    _require(
        isinstance(points, list) and all(isinstance(p, str) for p in points),
        "space.points must be a list of strings",
    )
    _require(len(points) == len(set(points)), "space.points must be unique")
    mu_raw = space.get("mu", {})
    _require(isinstance(mu_raw, dict), "space.mu must be an object")
    mu = {}
    for p in points:
        v = mu_raw.get(p, 1.0)
        _require(
            _is_number(v) and v > 0,
            f"space.mu[{p!r}]: measure weight must be > 0 and finite",
        )
        mu[p] = float(v)
    for p in mu_raw:
        _require(p in mu, f"space.mu names unknown point {p!r}")

    edges = []
    for i, e in enumerate(raw.get("edges", [])):
        _require(isinstance(e, dict), f"edge {i}: must be an object")
        _require_keys(e, ("u", "v", "weight", "exponent"), f"edge {i}")
        for key in ("u", "v"):
            _require(key in e, f"edge {i}: missing endpoint {key!r}")
            _require(e[key] in mu, f"edge {i}: unknown point {e[key]!r}")
        _require(e["u"] != e["v"], f"edge {i}: self-loops are not allowed")
        w = e.get("weight", 1.0)
        _require(
            _is_number(w) and w > 0, f"edge {i}: weight must be > 0 and finite"
        )
        p = e.get("exponent", 2.0)
        _require(
            _is_number(p) and p > 1,
            f"edge {i}: exponent must exceed 1 and be finite",
        )
        edges.append(
            {"u": e["u"], "v": e["v"], "weight": float(w), "exponent": float(p)}
        )

    kill = []
    for i, k in enumerate(raw.get("kill", [])):
        _require(isinstance(k, dict), f"kill {i}: must be an object")
        _require_keys(k, ("point", "kappa", "exponent"), f"kill {i}")
        _require("point" in k and k["point"] in mu, f"kill {i}: unknown point")
        kappa = k.get("kappa", 0.0)
        _require(
            _is_number(kappa) and kappa >= 0,
            f"kill {i}: kappa must be >= 0 and finite",
        )
        q = k.get("exponent", 2.0)
        _require(
            _is_number(q) and q > 1,
            f"kill {i}: exponent must exceed 1 and be finite",
        )
        kill.append(
            {"point": k["point"], "kappa": float(kappa), "exponent": float(q)}
        )

    boundary = raw.get("boundary", [])
    _require(isinstance(boundary, list), "boundary must be a list")
    for p in boundary:
        _require(p in mu, f"boundary names unknown point {p!r}")

    defaults = raw.get("defaults", {})
    _require(isinstance(defaults, dict), "defaults must be an object")
    _require_keys(defaults, ("tol", "max_iterations"), "defaults")
    _require(_is_number(defaults.get("tol", 0)), "defaults.tol must be a number")
    _require(_is_int(defaults.get("max_iterations", 0)), "defaults.max_iterations must be an integer")

    problem = ProblemFile(
        version=version,
        points=list(points),
        mu=mu,
        edges=edges,
        kill=kill,
        boundary=[p for p in points if p in set(boundary)],
        defaults=dict(defaults),
    )
    problem.spec = problem.to_energy_spec()  # enforce all construction invariants now
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
