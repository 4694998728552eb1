"""The package runs on numpy alone: importing it and running ``analyze``
load no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NO_SCIPY = ("loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded")


def run_python(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy(tmp_path):
    proc = run_python("import sys, qdarwin; " + NO_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_analyze_loads_no_scipy(tmp_path):
    # a 2x[3] random state, so the basis optimizer runs
    code = ("import sys, qdarwin as qd; from qdarwin.cli import main; "
            "qd.save_state(qd.make_random_density(1, qd.std_layout(2, [3])), 'st.json'); "
            "assert main(['analyze', 'st.json', '-o', 'rep.json']) == 0; "
            "import json; assert json.load(open('rep.json'))"
            "['accessible_information']['lower_optimized']; " + NO_SCIPY)
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
