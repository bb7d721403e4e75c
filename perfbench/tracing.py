"""Spans around calls into the program's layers, installed from outside it.

``install`` replaces each traced public name by a timing wrapper in every
``dirichletforms`` module namespace that binds it (``resolvent.energy``,
``criticality.green_on_nonneg``, ``potential.energy_hessian`` and so on),
and on the classes whose methods are traced.  ``numpy.linalg.solve`` and
``scipy.optimize.minimize`` are wrapped where they live and counted only
when called from the program.

Spans nest through a stack.  A span's self time is its duration minus the
time its child spans cover.  Spans are aggregated as they close, per name
and per (parent, child) pair, so memory stays flat over millions of calls.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# span name -> (module, attribute path) of the traced callable
FUNCTIONS = {
    "space.check_field": ("dirichletforms.space", "MeasureSpace.check_field"),
    "energy.energy": ("dirichletforms.energy", "energy"),
    "energy.energy_gradient": ("dirichletforms.energy", "energy_gradient"),
    "energy.spec_build": ("dirichletforms.energy", "EnergySpec.__init__"),
    "resolvent.prox": ("dirichletforms.resolvent", "prox"),
    "resolvent.energy_hessian": ("dirichletforms.resolvent", "energy_hessian"),
    "resolvent.green": ("dirichletforms.resolvent", "green"),
    "modular.luxemburg_norm": ("dirichletforms.modular", "luxemburg_norm"),
    "criticality.K_of": ("dirichletforms.criticality", "K_of"),
    "criticality.hardy_optimal_constant": ("dirichletforms.criticality", "hardy_optimal_constant"),
    "criticality.classify": ("dirichletforms.criticality", "classify"),
    "potential.capacity": ("dirichletforms.potential", "capacity"),
    "potential.excessive_envelope": ("dirichletforms.potential", "excessive_envelope"),
    "problemio.parse_problem": ("dirichletforms.problemio", "parse_problem"),
    "problemio.to_energy_spec": ("dirichletforms.problemio", "ProblemFile.to_energy_spec"),
    "problemio.input_digest": ("dirichletforms.problemio", "input_digest"),
    "problemio.envelope_to_json": ("dirichletforms.problemio", "envelope_to_json"),
    "cli.main": ("dirichletforms.cli", "main"),
}

# The per-layer metrics: (metric, span, field).  Every value is per round.
METRICS = [
    ("space.check_field.calls", "space.check_field", "calls"),
    ("space.check_field.self_s", "space.check_field", "self_s"),
    ("energy.energy.calls", "energy.energy", "calls"),
    ("energy.energy.self_s", "energy.energy", "self_s"),
    ("energy.energy_gradient.calls", "energy.energy_gradient", "calls"),
    ("energy.energy_gradient.self_s", "energy.energy_gradient", "self_s"),
    ("energy.spec_build.self_s", "energy.spec_build", "self_s"),
    ("resolvent.prox.calls", "resolvent.prox", "calls"),
    ("resolvent.prox.self_s", "resolvent.prox", "self_s"),
    ("resolvent.prox.iterations", "resolvent.prox", "count"),
    ("resolvent.energy_hessian.calls", "resolvent.energy_hessian", "calls"),
    ("resolvent.energy_hessian.self_s", "resolvent.energy_hessian", "self_s"),
    ("resolvent.linsolve.calls", "resolvent.linsolve", "calls"),
    ("resolvent.linsolve.self_s", "resolvent.linsolve", "self_s"),
    ("resolvent.green.calls", "resolvent.green", "calls"),
    ("resolvent.green.steps", "resolvent.green", "count"),
    ("resolvent.green.self_s", "resolvent.green", "self_s"),
    ("scipy.lbfgs.calls", "scipy.lbfgs", "calls"),
    ("scipy.lbfgs.nit", "scipy.lbfgs", "count"),
    ("scipy.lbfgs.self_s", "scipy.lbfgs", "self_s"),
    ("modular.luxemburg_norm.calls", "modular.luxemburg_norm", "calls"),
    ("modular.luxemburg_norm.self_s", "modular.luxemburg_norm", "self_s"),
    ("criticality.K_of.calls", "criticality.K_of", "calls"),
    ("criticality.K_of.self_s", "criticality.K_of", "self_s"),
    ("criticality.hardy_optimal_constant.self_s", "criticality.hardy_optimal_constant", "self_s"),
    ("criticality.classify.self_s", "criticality.classify", "self_s"),
    ("potential.capacity.calls", "potential.capacity", "calls"),
    ("potential.capacity.self_s", "potential.capacity", "self_s"),
    ("potential.excessive_envelope.self_s", "potential.excessive_envelope", "self_s"),
    ("problemio.parse_problem.self_s", "problemio.parse_problem", "self_s"),
    ("problemio.to_energy_spec.calls", "problemio.to_energy_spec", "calls"),
    ("problemio.input_digest.self_s", "problemio.input_digest", "self_s"),
    ("problemio.envelope_to_json.self_s", "problemio.envelope_to_json", "self_s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
]

PROGRAM_MODULES = ("dirichletforms.resolvent", "dirichletforms.potential")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.count = 0  # iterations, steps or nit, where the span has them


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], Stat] = {}
        self.stack: list[list] = []  # open spans: [name, time covered by children]
        self.active = False  # while false every wrapper passes straight through

    def wrap(self, name, fn, count=None, when=None):
        """Timing wrapper; ``count(result_or_exc)`` adds to the span's count,
        and ``when()`` false makes the call pass through untraced."""
        stat = self.stats.setdefault(name, Stat())
        stack, edges = self.stack, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (when is not None and not when()):
                return fn(*args, **kwargs)
            span = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(span)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    stat.count += count(out)
                return out
            except Exception as exc:
                if count is not None:
                    stat.count += count(exc)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - span[1]
                key = (parent[0] if parent else "<round>", name)
                edge = edges.get(key) or edges.setdefault(key, Stat())
                edge.calls += 1
                edge.total_s += dt
                if parent is not None:
                    parent[1] += dt

        return wrapper

    def per_round(self, rounds: int) -> dict:
        spans = {
            name: {
                "calls": s.calls / rounds,
                "total_s": s.total_s / rounds,
                "self_s": s.self_s / rounds,
                "count": s.count / rounds,
            }
            for name, s in sorted(self.stats.items())
        }
        edges = [
            {"parent": p, "child": c, "calls": s.calls / rounds, "total_s": s.total_s / rounds}
            for (p, c), s in sorted(self.edges.items())
            if s.calls
        ]
        return {"spans": spans, "edges": edges}


def _rebind(original, replacement):
    """Replace ``original`` by ``replacement`` in every package namespace."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dirichletforms" or mod_name.startswith("dirichletforms.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


# Frame 2 of these checks is the caller of the wrapper that runs them.
def _called_from_program() -> bool:
    return sys._getframe(2).f_globals.get("__name__") in PROGRAM_MODULES


def _lbfgs_from_program() -> bool:
    return sys._getframe(2).f_globals.get("__name__", "").startswith("dirichletforms.")


def _prox_iterations(out):
    report = out[1] if isinstance(out, tuple) else getattr(out, "report", None)
    return report.iterations if report is not None else 0


def _green_steps(out):
    trace = getattr(out, "alpha_trace", None)
    if trace is None:
        trace = getattr(out, "trace", None) or []
    return len(trace)


def install() -> Tracer:
    import importlib

    import numpy
    import scipy.optimize

    import dirichletforms.cli  # noqa: F401  (loads every submodule)

    tracer = Tracer()
    counts = {"resolvent.prox": _prox_iterations, "resolvent.green": _green_steps}
    for name, (mod_name, path) in FUNCTIONS.items():
        owner = importlib.import_module(mod_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, counts.get(name))
        if cls_path:
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped)

    # EnergySpec's cached index arrays are part of building a spec
    from dirichletforms.energy import EnergySpec

    for prop in vars(EnergySpec).values():
        if isinstance(prop, functools.cached_property):
            prop.func = tracer.wrap("energy.spec_build", prop.func)

    numpy.linalg.solve = tracer.wrap(
        "resolvent.linsolve", numpy.linalg.solve, when=_called_from_program
    )
    scipy.optimize.minimize = tracer.wrap(
        "scipy.lbfgs",
        scipy.optimize.minimize,
        count=lambda res: int(getattr(res, "nit", 0)),
        when=_lbfgs_from_program,
    )
    return tracer
