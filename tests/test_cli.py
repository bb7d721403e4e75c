import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dirichletforms import StructuralError, prox
from dirichletforms.cli import COMMANDS, main
from dirichletforms.problemio import (
    ProblemFile,
    input_digest,
    parse_problem,
    serialize_problem,
)

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


def test_roundtrip_is_normal_form(problem_path):
    with open(problem_path) as fh:
        problem = parse_problem(fh.read())
    text = serialize_problem(problem)
    again = parse_problem(text)
    assert serialize_problem(again) == text
    assert input_digest(again) == input_digest(problem)


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
    capsys.readouterr()
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "table,point,value"
    assert len(rows) == 4  # one equilibrium row per point


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
    ],
)
def test_a_command_rejects_a_flag_it_does_not_read(argv, problem_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], problem_path, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_exit_usage_on_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


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


def test_every_command_rejects_a_nonpositive_tolerance(problem_path):
    # profile and luxemburg do not solve, but they validate the solver settings too
    assert main(["profile", problem_path, "--tol", "0"]) == 2
    assert main(["luxemburg", problem_path, "--tol", "0"]) == 2
    assert main(["classify", problem_path, "--tol", "0"]) == 2


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
