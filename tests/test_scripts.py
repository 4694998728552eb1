"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

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
