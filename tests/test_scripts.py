"""The experiment scripts run end to end on small inputs."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_worked_examples_table(tmp_path):
    proc = run_script("worked_examples_table.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["state", "I", "chi"]
    assert set(lines[1]) == {"-"}
    assert len(lines) == 9
    assert lines[2].startswith("reduced GHZ (N=3)")
    assert lines[2].split()[-3:] == ["True", "True", "True"]
    assert "-0.0000" not in proc.stdout


def test_fragment_scan_comparison(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_script("fragment_scan_comparison.py", "--subenvs", "4", "--seeds", "2",
                      "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "family,fraction,mean_chi_bits,mean_discord_bits,mean_I_bits"
    assert [l.split(",")[0] for l in lines[1:]] == ["plateau"] * 4 + ["haar"] * 4
    assert lines[1] == "plateau,0.25,1.0,0.0,1.0"


def load_compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_sorts_each_difference_into_its_class():
    co = load_compare_outputs()
    ensemble = {"holds": True, "category": "pass", "borderline_reasons": ["gap 1e-9"],
                "chi_bits": 1.0, "curve": [{"mean_chi_bits": 0.5}, {"mean_chi_bits": 0.75}],
                "accessible_information": {"lower_bits": 0.5, "iterations": 10, "capped": 0},
                "r_delta": 3, "witness_fragments": [["E1"], ["E2", "E3"]]}
    old = {"same": {"exit": 0, "output": copy.deepcopy(ensemble)},
           "moved": {"exit": 0, "output": copy.deepcopy(ensemble)},
           "flipped": {"exit": 0, "output": copy.deepcopy(ensemble)},
           "gone": {"exit": 3, "output": "optimizer restarts disagree"}}
    new = copy.deepcopy(old)
    assert not co.differs(co.diff(old, old))
    moved = new["moved"]["output"]
    moved["chi_bits"] += 3e-16
    moved["curve"][1]["mean_chi_bits"] -= 1e-15
    moved["accessible_information"].update(lower_bits=0.5 + 2e-10, iterations=12)
    report = co.diff(old, new)
    assert not co.differs(report)
    assert report["floats"]["chi_bits"]["moved"] == 1
    assert report["floats"]["mean_chi_bits"]["max"] == pytest.approx(1e-15, rel=1e-3)
    assert set(report["floats"]) == {"chi_bits", "mean_chi_bits"}
    assert set(report["boundary"]) == {"lower_bits", "iterations"}
    assert report["boundary"]["iterations"]["max"] == 2

    flipped = new["flipped"]["output"]
    flipped.update(holds=False, category="borderline", borderline_reasons=[], r_delta=2,
                   witness_fragments=[["E1"]], extra=1)
    new["moved"]["exit"] = 3
    del new["gone"]
    new["added"] = {"exit": 0, "output": {}}
    report = co.diff(old, new)
    assert co.differs(report)
    assert report["exit"] == [("moved", 0, 3)]
    assert [w for w, *_ in report["verdicts"]] == ["flipped: holds"]
    assert report["categories"] == [("flipped: category", "pass", "borderline")]
    assert report["reasons"] == [("flipped: borderline_reasons", ["gap 1e-9"], [])]
    assert report["exact"] == [("flipped: r_delta", 3, 2)]
    assert set(report["structure"]) == {("flipped", "witness_fragments/[1]"), ("flipped", "extra")}
    assert (report["only_old"], report["only_new"]) == (["gone"], ["added"])
    assert report["exit_counts"] == [{0: 3, 3: 1}, {0: 3, 3: 1}]
    text = co.summary(report)
    assert "exit codes: 1 changed" in text and text.endswith("outputs differ beyond floats")


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself(tmp_path):
    proc = run_script("compare_outputs.py", str(ROOT), str(ROOT / "src"), "--quick",
                      "--json", str(tmp_path / "report.json"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "verdict: same exit codes, verdicts and exact values"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["outputs"] > 50 and report["float_values"] > 1000
    assert not report["floats"] and not report["boundary"]
