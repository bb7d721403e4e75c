import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirichletforms import StructuralError, prox
from dirichletforms.cli import COMMANDS, EXIT_CODES, FLAGS, main
from dirichletforms.problemio import ProblemFile, input_digest, parse_problem
from conftest import serialize_oracle

PROBLEM = {
    "version": "1",
    "space": {
        "points": ["a", "b", "c"],
        "mu": {"a": 1.0, "b": 2.0, "c": 1.0},
    },
    "edges": [
        {"u": "a", "v": "b", "weight": 1.0, "exponent": 2.0},
        {"u": "b", "v": "c", "weight": 0.5, "exponent": 2.0},
    ],
    "kill": [{"point": "a", "kappa": 1.0, "exponent": 2.0}],
    "boundary": ["c"],
    "defaults": {},
}


@pytest.fixture
def problem_path(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM))
    return str(path)


def test_the_digest_ignores_the_layout(problem_path):
    with open(problem_path) as fh:
        problem = parse_problem(fh.read())
    assert input_digest(parse_problem(serialize_oracle(problem))) == input_digest(problem)


def test_input_digest_is_pinned():
    # the digest is part of every answer, so its bytes must not drift
    problem = parse_problem(json.dumps(PROBLEM))
    assert input_digest(problem) == (
        "01887f2411886e85f14ae5eccb24fc6540b8eab30cacf96fde7628f630752ee6"
    )


def _digest(doc: dict) -> str:
    return input_digest(parse_problem(json.dumps(doc)))


def test_the_digest_ignores_the_layout_of_defaults():
    for a, b in [
        ({"tol": 1e-9, "max_iterations": 5}, {"max_iterations": 5, "tol": 1e-9}),
        ({"tol": 1}, {"tol": 1.0}),
    ]:
        assert _digest({**PROBLEM, "defaults": a}) == _digest({**PROBLEM, "defaults": b})


def test_the_digest_keeps_point_names_apart():
    # both name lists join to "abc"; the length header tells them apart
    a, b = ({"space": {"points": points}} for points in (["ab", "c"], ["a", "bc"]))
    assert _digest(a) != _digest(b)


def test_the_digest_takes_a_lone_surrogate():
    # json.dumps writes the escape "\ud800", which strict UTF-8 cannot encode
    a, b = ({"space": {"points": [name]}} for name in ("\ud800", "\ud801"))
    assert _digest(a) != _digest(b)


def _deep(section, bad):
    """A mutation that puts ``bad`` at record 4999 of 5000, after copies of
    the section's first record."""
    return lambda d: d.update({section: [d[section][0]] * 4999 + [bad]})


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["edges"].append({"u": "a", "v": "z"}), "edge 2: unknown point 'z'"),
        (lambda d: d["edges"].append({"u": "a", "v": "b", "exponent": 1.0}),
         "edge 2: exponent must exceed 1"),
        (lambda d: d["edges"].append({"u": "a", "v": "a"}),
         "edge 2: self-loops are not allowed"),
        (lambda d: d["kill"].append({"point": "a", "kappa": -1.0}),
         "kill 1: kappa must be >= 0"),
        (lambda d: d["space"]["mu"].update(a=0.0), "space.mu['a']"),
        (lambda d: d["boundary"].append("nope"), "boundary names unknown point"),
        # a JSON boolean is not a number; the ids keep the rows above unique
        pytest.param(lambda d: d["space"]["mu"].update(a=True), "space.mu['a']", id="mu-true"),
        pytest.param(lambda d: d["edges"].append({"u": "a", "v": "b", "weight": True}),
                     "edge 2: weight must be > 0", id="weight-true"),
        pytest.param(lambda d: d["edges"].append({"u": "a", "v": "b", "exponent": True}),
                     "edge 2: exponent must exceed 1", id="edge-exponent-true"),
        pytest.param(lambda d: d["kill"].append({"point": "a", "kappa": True}),
                     "kill 1: kappa must be >= 0", id="kappa-true"),
        pytest.param(lambda d: d["kill"].append({"point": "a", "exponent": True}),
                     "kill 1: exponent must exceed 1", id="kill-exponent-true"),
        pytest.param(lambda d: d["defaults"].update(tol="abc"),
                     "defaults.tol must be a number", id="tol-string"),
        pytest.param(lambda d: d["defaults"].update(tol=False),
                     "defaults.tol must be a number", id="tol-false"),
        pytest.param(lambda d: d["defaults"].update(max_iterations=2.7),
                     "defaults.max_iterations must be an integer", id="max-iterations-float"),
        pytest.param(lambda d: d["defaults"].update(max_iterations=True),
                     "defaults.max_iterations must be an integer", id="max-iterations-true"),
        # a key the parser does not read is an error, not silently ignored
        pytest.param(lambda d: d.update(edge=d.pop("edges")),
                     "problem file: unknown key 'edge'", id="key-edge"),
        pytest.param(lambda d: d.update(boundry=d.pop("boundary")),
                     "problem file: unknown key 'boundry'", id="key-boundry"),
        pytest.param(lambda d: d["space"].update(measure=d["space"].pop("mu")),
                     "space: unknown key 'measure'", id="key-measure"),
        pytest.param(lambda d: d["edges"][0].update(wieght=5),
                     "edge 0: unknown key 'wieght'", id="key-wieght"),
        pytest.param(lambda d: d["edges"][1].update(exponant=3),
                     "edge 1: unknown key 'exponant'", id="key-exponant"),
        pytest.param(lambda d: d["kill"][0].update(kapa=1.0),
                     "kill 0: unknown key 'kapa'", id="key-kapa"),
        pytest.param(lambda d: d["defaults"].update(max_iter=0),
                     "defaults: unknown key 'max_iter'", id="key-max-iter"),
        # Python's parser reads Infinity and NaN, which are not JSON numbers
        pytest.param(lambda d: d["edges"].append({"u": "a", "v": "b", "weight": math.inf}),
                     "edge 2: weight must be > 0", id="weight-inf"),
        pytest.param(lambda d: d["kill"].append({"point": "a", "kappa": math.inf}),
                     "kill 1: kappa must be >= 0", id="kappa-inf"),
        pytest.param(lambda d: d["kill"].append({"point": "a", "kappa": math.nan}),
                     "kill 1: kappa must be >= 0", id="kappa-nan"),
        pytest.param(lambda d: d["edges"].append({"u": "a", "v": "b", "weight": 10**400}),
                     "edge 2: weight must be > 0", id="weight-past-float-range"),
        # a section or a point name of the wrong JSON type
        pytest.param(lambda d: d.update(edges=None), "edges must be a list", id="edges-null"),
        pytest.param(lambda d: d.update(edges={"u": "a"}), "edges must be a list",
                     id="edges-object"),
        pytest.param(lambda d: d.update(kill=3), "kill must be a list", id="kill-number"),
        pytest.param(lambda d: d["edges"].append({"u": ["a"], "v": "b"}),
                     "edge 2: u must name a point", id="u-list"),
        pytest.param(lambda d: d["kill"].append({"point": {}}),
                     "kill 1: point must name a point", id="point-object"),
        pytest.param(lambda d: d.update(boundary=[["c"]]),
                     "boundary must be a list of point names", id="boundary-nested"),
        pytest.param(lambda d: d.update(version={"a": 1}), "version must be a string",
                     id="version-object"),
        # the bad record deep in a long section, where only its column fails
        pytest.param(_deep("edges", {"u": "a", "v": "b", "weight": True}),
                     "edge 4999: weight must be > 0", id="deep-weight-true"),
        pytest.param(_deep("edges", ["a", "b"]), "edge 4999: must be an object",
                     id="deep-non-object"),
        pytest.param(_deep("kill", {"point": "a", "kapa": 1.0}),
                     "kill 4999: unknown key 'kapa'", id="deep-key-kapa"),
        pytest.param(_deep("edges", {"u": "a", "v": "b", "weight": 10**400}),
                     "edge 4999: weight must be > 0", id="deep-weight-past-float-range"),
        pytest.param(_deep("edges", {"u": ["a"], "v": "b"}),
                     "edge 4999: u must name a point", id="deep-u-list"),
    ],
)
def test_parse_errors_name_the_record(mutate, fragment):
    doc = json.loads(json.dumps(PROBLEM))
    mutate(doc)
    with pytest.raises(StructuralError, match=None) as exc:
        parse_problem(json.dumps(doc))
    assert fragment in str(exc.value)


def test_syntax_error_reports_position():
    with pytest.raises(StructuralError) as exc:
        parse_problem("{\n  broken\n}")
    assert "line 2" in str(exc.value)


def test_stdout_deterministic_across_runs(problem_path, capsys):
    assert main(["classify", problem_path]) == 0
    first = capsys.readouterr().out
    assert main(["classify", problem_path]) == 0
    second = capsys.readouterr().out
    assert first == second
    envelope = json.loads(first)
    assert envelope["command"] == "classify"
    assert envelope["result"]["verdict"] == "Subcritical"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],
        ["capacity", "--set", "a"],
        ["hardy-weight", "--terms", "3"],
        ["resolvent", "--field", "1"],
        ["green", "--field", "1"],
        ["luxemburg", "--field", "1"],
        ["profile", "--budget", "4"],
        ["verify"],
    ],
)
def test_each_command_builds_the_spec_once(argv, problem_path, monkeypatch, capsys):
    calls = []
    build = ProblemFile.to_energy_spec

    def counting(self):
        calls.append(1)
        return build(self)

    monkeypatch.setattr(ProblemFile, "to_energy_spec", counting)
    assert main([argv[0], problem_path, *argv[1:]]) in (0, 1)  # verify may fail
    capsys.readouterr()
    assert len(calls) == 1


def test_resolvent_delegates_to_library(problem_path, capsys):
    assert main(["resolvent", problem_path, "--field", "1", "--alpha0", "2.0"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    with open(problem_path) as fh:
        spec = parse_problem(fh.read()).to_energy_spec()
    g, _ = prox(spec, 2.0, np.ones(3))
    table = envelope["result"]["resolvent"]
    for p, value in zip(spec.space.points, g):
        assert table[p] == value  # bit-for-bit delegation


def test_csv_witness_table(problem_path, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    assert main(["capacity", problem_path, "--set", "a", "--csv", str(csv_path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "table,point,value"
    assert len(rows) == 4  # one equilibrium row per point
    assert result["lower_bound"] <= result["capacity"]
    assert "alternative_value" not in result


@pytest.mark.parametrize(
    "argv, tables",
    [
        (["classify"], ["hardy_weight"]),
        (["capacity", "--set", "a"], ["equilibrium"]),
        (["hardy-weight"], ["hardy_weight"]),
        (["resolvent", "--field", "1"], ["resolvent"]),
        (["green", "--field", "1"], ["green"]),
    ],
)
def test_csv_rows_equal_the_envelope_tables(argv, tables, problem_path, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    assert main([argv[0], problem_path, *argv[1:], "--csv", str(csv_path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    with open(csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["table", "point", "value"]
    got: dict[str, dict[str, float]] = {}
    for table, point, value in rows:
        got.setdefault(table, {})[point] = float(value)
    assert got == {t: result[t] for t in tables}
    assert len(rows) == sum(len(result[t]) for t in tables)


@pytest.mark.parametrize(
    "argv",
    [
        ["luxemburg", "--field", "1", "--csv", "out.csv"],
        ["verify", "--alpha0", "2.0"],
        ["capacity", "--set", "a", "--terms", "3"],
        ["green", "--field", "1", "--divergence-threshold", "1e8"],
        ["classify", "--terms", "3"],
    ],
)
def test_a_command_rejects_a_flag_it_does_not_read(argv, problem_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], problem_path, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_flag_is_read_by_some_command():
    read = {flag for command in COMMANDS.values() for flag in command.flags}
    assert set(FLAGS) <= read, set(FLAGS) - read


def test_readme_flag_table_matches_the_command_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Subcommand | Flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        name, flags = re.fullmatch(r"\| `([a-z-]+)` \| (.*) \|", line).groups()
        rows[name] = re.findall(r"`([^`]+)`", flags)
    assert rows == {
        name: list(command.flags) + (["--csv PATH"] if command.tables else [])
        for name, command in COMMANDS.items()
    }


def test_readme_exit_codes_match_the_exit_table():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    for _, code, prefix in EXIT_CODES:
        if code >= 3:
            assert f"`{code}` {prefix}" in readme, (code, prefix)


def test_exit_usage_on_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["resolvent", "--field", "abc"], "--field"),
        (["resolvent", "--field", "[1,2,3]"], "--field"),
        (["resolvent", "--field", "true"], "--field"),
        (["luxemburg", "--field", '{"a": [1]}'], "--field"),
        (["green", "--field", '{"z": 1}'], "--field"),
        (["capacity", "--set", "a", "--h", "nope"], "--h"),
        (["profile", "--r-grid", "a,b"], "--r-grid"),
        (["profile", "--weight", "{"], "--weight"),
    ],
)
def test_a_malformed_flag_value_is_a_usage_error(argv, flag, problem_path, capsys):
    assert main([argv[0], problem_path, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("record", ["edges", "kill"])
@pytest.mark.parametrize(
    "argv", [["resolvent", "--field", "1"], ["luxemburg", "--field", "1"]], ids=["resolvent", "luxemburg"]
)
def test_a_non_finite_weight_or_kappa_is_a_usage_error(record, argv, tmp_path, capsys):
    doc = json.loads(json.dumps(PROBLEM))
    doc[record][0]["weight" if record == "edges" else "kappa"] = math.inf
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))  # written as Infinity
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr().out == ""


def test_exit_infeasible(problem_path, capsys):
    # capacity target on the Dirichlet boundary with h = 1 is infeasible
    assert main(["capacity", problem_path, "--set", "c"]) == 3
    capsys.readouterr()


def test_exit_nonconvergence(problem_path, capsys):
    code = main(
        ["resolvent", problem_path, "--field", "1", "--max-iter", "0", "--tol", "1e-12"]
    )
    assert code == 4
    capsys.readouterr()


def test_exit_inconclusive(problem_path, capsys):
    code = main(["green", problem_path, "--field", "1", "--schedule-depth", "0"])
    assert code == 5
    capsys.readouterr()


def test_exit_internal_check(problem_path, capsys, monkeypatch):
    # an ascent direction at the equilibrium potential is a solver defect
    monkeypatch.setattr(
        "dirichletforms.potential.energy_gradient", lambda spec, f: -np.ones(spec.space.n)
    )
    assert main(["capacity", problem_path, "--set", "a"]) == 6
    assert "internal check failed" in capsys.readouterr().err


def test_defaults_from_problem_file(tmp_path, capsys):
    doc = json.loads(json.dumps(PROBLEM))
    doc["defaults"] = {"tol": 1e-12, "max_iterations": 0}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    # defaults force non-convergence; an explicit flag overrides them
    assert main(["resolvent", str(path), "--field", "1"]) == 4
    assert main(["resolvent", str(path), "--field", "1", "--max-iter", "20000"]) == 0
    capsys.readouterr()


def test_verify_passes_on_sound_problem(problem_path, capsys):
    assert main(["verify", problem_path]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["result"]["pass"] is True
    assert all(envelope["result"]["checks"].values())


def test_green_and_luxemburg_commands(problem_path, capsys):
    assert main(["green", problem_path, "--field", "1"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["result"]["finite"] is True
    assert main(["luxemburg", problem_path, "--field", "1"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["result"]["norm"] > 0


def test_profile_command(problem_path, capsys):
    assert main(["profile", problem_path, "--kind", "hardy", "--r-grid", "0.1,0.5"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    alphas = envelope["result"]["alpha_of_r"]
    assert len(alphas) == 2 and alphas[1] <= alphas[0] + 1e-12


def test_every_command_rejects_a_nonpositive_tolerance(problem_path, tmp_path, capsys):
    # profile and luxemburg do not solve, but they validate the solver settings too
    assert main(["profile", problem_path, "--tol", "0"]) == 2
    assert main(["luxemburg", problem_path, "--tol", "0"]) == 2
    assert main(["classify", problem_path, "--tol", "0"]) == 2
    # an infinite tolerance would stop every solver at its first iterate
    for argv in (["profile"], ["classify"], ["resolvent", "--field", "1"], ["green", "--field", "1"]):
        assert main([argv[0], problem_path, *argv[1:], "--tol", "inf"]) == 2
    doc = json.loads(json.dumps(PROBLEM))
    doc["defaults"] = {"tol": math.inf}  # written as Infinity, which Python's parser reads
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["resolvent", str(path), "--field", "1"]) == 2
    assert "residual_tolerance must be > 0 and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["resolvent", "--field", "1", "--alpha0", "inf"],
        ["green", "--field", "1", "--alpha0", "inf"],
        ["luxemburg", "--field", "1", "--r", "inf"],
        ["profile", "--p", "nan"],
        ["profile", "--p", "inf"],
        ["profile", "--r-grid", "nan,inf"],
        ["hardy-weight", "--terms", "0"],
        ["hardy-weight", "--terms", "-1"],
        ["green", "--field", "1", "--schedule-depth", "-1"],
    ],
)
def test_out_of_range_numeric_parameters_are_usage_errors(argv, problem_path, capsys):
    assert main([argv[0], problem_path, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_a_negative_iteration_budget_is_a_usage_error(problem_path, tmp_path, capsys):
    assert main(["resolvent", problem_path, "--field", "1", "--max-iter", "-1"]) == 2
    doc = json.loads(json.dumps(PROBLEM))
    doc["defaults"] = {"max_iterations": -1}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["resolvent", str(path), "--field", "1"]) == 2
    assert "max_iterations" in capsys.readouterr().err


def test_hardy_weight_command(problem_path, capsys):
    assert main(["hardy-weight", problem_path]) == 0
    envelope = json.loads(capsys.readouterr().out)
    weights = envelope["result"]["hardy_weight"]
    assert all(v > 0 for v in weights.values())
    assert envelope["result"]["K"] < float("inf")


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # scipy.optimize takes about 0.2 s to import, and only the mixed-exponent
    # root of ``modular._scale_root`` needs it
    import dirichletforms

    src = str(Path(dirichletforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, dirichletforms.cli; print('scipy.optimize' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
