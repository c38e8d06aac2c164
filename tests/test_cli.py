import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from monodromy_lab import ComputationError, PrecisionError
from monodromy_lab.cli import main
from monodromy_lab.reports import Report, emit_error_report, emit_report
from monodromy_lab.scenarios import run_scenario

DATA = resources.files("monodromy_lab") / "data"
SCENARIOS = DATA / "scenarios"
GOLDEN = DATA / "golden"


def scenario_names():
    return sorted(p.name[: -len(".json")] for p in SCENARIOS.iterdir())


@pytest.mark.parametrize("name", scenario_names())
def test_every_shipped_scenario_matches_its_golden(name):
    doc = json.loads((SCENARIOS / (name + ".json")).read_text())
    report = run_scenario(doc)
    assert report.ok
    data = emit_report(report, "json")
    assert data == (GOLDEN / (name + ".golden.json")).read_bytes()


def test_galois_generator_list_needs_no_enumeration_of_w():
    # |W| = 3^16 is over the enumeration bound; <generator> has order 2
    w = [[1, 0, 0, 0]] + [[0] * 4] * 3
    doc = {"kind": "galois", "p": 3, "n": 1, "d": 8,
           "generators": [{"diag": [2, 1, 1, 1], "w": w}]}
    report = run_scenario(doc)
    assert report.ok
    assert report.result["group_order"] == 2
    assert report.result["unipotent_order"] == 3 ** 16


def test_galois_full_group_over_the_bound_is_reported():
    # |G| = 172186884 is over the enumeration bound, but its diagonal image
    # (18^2 cosets) is not, so module arithmetic reports it
    doc = {"kind": "galois", "p": 3, "n": 3, "d": 4, "generators": "full"}
    report = run_scenario(doc)
    assert report.ok
    assert report.result["group_order"] == 172186884


@pytest.mark.parametrize(
    "pnd, message",
    [
        # phi(11^3)^3 = 1210^3 diagonal choices
        ((11, 3, 6), "order 1771561000 exceeds bound"),
        # diagonal images under the bound, but h(phi - 1) + h^2 generators
        # would make the search too long
        ((7, 2, 6), "needs work 176346720 "),
        ((11, 3, 2), "needs work 29282000 "),
        ((5, 3, 4), "needs work 26790452 "),
    ],
)
def test_galois_full_over_the_bound_is_refused_in_closed_form(monkeypatch, pnd, message):
    def no_generators(*_args):
        raise AssertionError("generators built before the closed-form refusal")

    monkeypatch.setattr("monodromy_lab.scenarios.elementary_generators", no_generators)
    p, n, d = pnd
    doc = {"kind": "galois", "p": p, "n": n, "d": d, "generators": "full"}
    with pytest.raises(ComputationError, match=message):
        run_scenario(doc)


def test_json_reports_are_byte_deterministic():
    doc = json.loads((SCENARIOS / "ladder_p2_m1.json").read_text())
    first = emit_report(run_scenario(doc), "json")
    second = emit_report(run_scenario(doc), "json")
    assert first == second


def test_rationals_serialise_as_num_den_strings():
    doc = json.loads((SCENARIOS / "ladder_p2_m1.json").read_text())
    payload = json.loads(emit_report(run_scenario(doc), "json"))
    values = [lv["valuation"] for lv in payload["result"]["levels"]]
    assert values == ["1", "1/2", "1/4", "1/8"]


def _copy_scenario(name, directory):
    target = Path(directory) / (name + ".json")
    target.write_text((SCENARIOS / (name + ".json")).read_text())
    return target


def test_cli_run_to_stdout(tmp_path, capsys):
    path = _copy_scenario("polygon_two_term", tmp_path)
    code = main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["root_valuations"] == [["1/2", 2]]


def test_cli_run_to_file(tmp_path):
    path = _copy_scenario("ladder_p2_m1", tmp_path)
    out = tmp_path / "report.json"
    code = main(["run", str(path), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "ladder_p2_m1.golden.json").read_bytes()


def test_cli_text_mode(tmp_path, capsys):
    path = _copy_scenario("ladder_p2_m1", tmp_path)
    code = main(["run", str(path), "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n0 = 1" in out
    assert "1/8" in out
    assert "pass" in out


def test_exit_code_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "no-such-kind"}))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{broken")
    assert main(["run", str(notjson)]) == 2


def test_exit_code_computation_error(tmp_path, capsys):
    # good ordinary reduction: the height-2 decomposition must refuse
    doc = {
        "kind": "formal-group",
        "field": {"p": 2},
        "model": {"a1": {"0": 1}, "a6": {"1": 1}},
        "n_max": 2,
    }
    path = tmp_path / "ordinary.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == 3
    payload = json.loads(out)
    assert payload["error"]["type"] == "NotHeightTwoError"


def test_exit_code_precision_error(tmp_path, capsys):
    doc = {
        "kind": "polygon",
        "points": [[0, 1], [2, 0]],
        "unknown_bounds": [[1, "1/4"]],
    }
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == 4
    payload = json.loads(out)
    assert payload["error"]["type"] == "PrecisionError"
    assert payload["error"]["needed"] == "1/2"  # the hull height at index 1


def test_error_report_carries_needed_precision():
    doc = {"kind": "polygon"}
    with_needed = json.loads(
        emit_error_report(doc, PrecisionError("too shallow", needed=Fraction(3)))
    )
    assert with_needed["error"] == {
        "type": "PrecisionError",
        "message": "too shallow",
        "needed": "3",
    }
    without = json.loads(emit_error_report(doc, PrecisionError("too shallow")))
    assert without["error"] == {"type": "PrecisionError", "message": "too shallow"}


def _failing_report(doc):
    """A report that ran but whose one built-in assertion is false."""
    return Report(
        scenario=doc,
        result={"value": 1},
        assertions={"holds": False},
        provenance={},
    )


def test_exit_code_assertion_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("monodromy_lab.cli.run_scenario", _failing_report)
    path = _copy_scenario("ladder_p2_m1", tmp_path)
    code = main(["run", str(path)])
    out = capsys.readouterr().out.encode()
    assert code == 5
    # the report itself is written exactly as for a passing run
    doc = json.loads(path.read_text())
    assert out == emit_report(_failing_report(doc), "json")
    assert json.loads(out)["assertions"] == {"holds": False}


def test_batch_reports_assertion_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("monodromy_lab.cli.run_scenario", _failing_report)
    _copy_scenario("ladder_p2_m1", tmp_path)
    code = main(["batch", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 5
    assert "error(5) ladder_p2_m1.json" in out
    assert (tmp_path / "ladder_p2_m1.report.json").exists()


def test_batch_runs_directory(tmp_path, capsys):
    _copy_scenario("ladder_p2_m1", tmp_path)
    _copy_scenario("classify_surface_total", tmp_path)
    code = main(["batch", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("ok ") == 2
    report = tmp_path / "ladder_p2_m1.report.json"
    assert report.read_bytes() == (GOLDEN / "ladder_p2_m1.golden.json").read_bytes()


def test_batch_propagates_failures(tmp_path, capsys):
    _copy_scenario("ladder_p2_m1", tmp_path)
    bad = tmp_path / "zz_bad.json"
    bad.write_text(json.dumps({"kind": "nope"}))
    code = main(["batch", str(tmp_path)])
    capsys.readouterr()
    assert code == 2


def test_batch_rejects_missing_directory(capsys):
    assert main(["batch", "/no/such/dir"]) == 2
    capsys.readouterr()


def test_unknown_scenario_keys_rejected(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"kind": "ladder", "p": 2, "interior": {"1": 1}, "n_max": 2, "bogus": 1}))
    assert main(["run", str(path)]) == 2
    capsys.readouterr()


def test_clifford_scenario_with_explicit_gram_and_vectors(tmp_path, capsys):
    doc = {
        "kind": "clifford",
        "n": 2,
        "filtration": "II",
        "lattice": [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
        "vectors": {
            "e1": [1, 0, 0, 0],
            "e2": [0, 1, 0, 0],
            "e3": [0, 0, 1, 0],
            "e4": [0, 0, 0, 1],
        },
        "with_splitting": True,
    }
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["dims"] == [4, 12, 16]
    assert payload["result"]["splitting_dims"] == [4, 8, 4]


def test_scenario_level_format_field(tmp_path, capsys):
    doc = {"kind": "ladder", "p": 2, "interior": {"1": 1}, "n_max": 2, "format": "text"}
    path = tmp_path / "fmt.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "n0 = 1" in out  # text mode came from the scenario itself
    # the CLI flag still overrides
    assert main(["run", str(path), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)


def test_selftest_passes_every_shipped_golden(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = scenario_names()
    assert len(names) == 15
    assert [line.split()[:2] for line in lines[:-1]] == [["[PASS]", n] for n in names]
    assert lines[-1] == "15/15 scenarios match their goldens"


def test_selftest_fails_only_the_corrupted_scenario(capsys, monkeypatch):
    def corrupt_polygon(report, fmt):
        data = emit_report(report, fmt)
        return data + b" " if report.scenario["kind"] == "polygon" else data

    monkeypatch.setattr("monodromy_lab.cli.emit_report", corrupt_polygon)
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("[FAIL]")]
    assert failed == ["polygon_two_term"]
    assert sum(line.startswith("[PASS]") for line in lines) == 14
    assert lines[-1] == "14/15 scenarios match their goldens"


def test_selftest_output_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "monodromy_lab.cli", "selftest"],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(re.sub(r"\s+\d+\.\d+s$", "", proc.stdout, flags=re.M))
    assert outputs[0] == outputs[1]
    assert outputs[0].count("[PASS]") == 15
