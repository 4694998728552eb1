import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdarwin as qd
from qdarwin import errors
from qdarwin.cli import main

from conftest import matrix_payload


def run(args):
    return main(args)


def assert_one_error_line(err):
    """A usage error is one ``error: `` line on stderr, with no traceback."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err, err


def _set(payload, path, value):
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


# state-file payloads that are valid JSON but not the state format
MALFORMED = {
    "empty-layout": lambda p: _set(p, ["layout"], []),
    "string-entry": lambda p: _set(p, ["matrix", 0, 0], "ab"),
    "numeric-string-entry": lambda p: _set(p, ["matrix", 0, 0], "12"),
    "null-entry": lambda p: _set(p, ["matrix", 0, 0], None),
    "string-layout": lambda p: _set(p, ["layout"], "x"),
    "number-layout-entries": lambda p: _set(p, ["layout"], [1, 2]),
    "number-matrix": lambda p: _set(p, ["matrix"], 5),
    "top-level-list": lambda p: [p],
    "fractional-dim": lambda p: _set(p, ["layout", 0, "dim"], 2.9),
    "string-dim": lambda p: _set(p, ["layout", 0, "dim"], "2"),
    # numpy reads true next to a float as 1.0: both would load as |00><00|
    "bool-matrix-entry": lambda p: _set(p, ["matrix"], [
        [[True, 0.0] if i == j == 0 else [0.0, 0.0] for j in range(4)] for i in range(4)]),
    "bool-factor-entry": lambda p: {"layout": p["layout"],
                                    "factor": [[[True, 0.0]]] + [[[0.0, 0.0]]] * 3},
}

# edits of a rank-deficient state's payload, which holds its "factor"
MALFORMED_FACTOR = {
    "string-entry": lambda p: _set(p, ["factor", 0, 0], "ab"),
    "null-entry": lambda p: _set(p, ["factor", 0, 0], None),
    "ragged-rows": lambda p: _set(p, ["factor", 0], p["factor"][0][:-1]),
    "wrong-row-count": lambda p: _set(p, ["factor"], p["factor"][:-1]),
    "nan-entry": lambda p: _set(p, ["factor", 0, 0], [float("nan"), 0.0]),
    "trace-not-one": lambda p: _set(p, ["factor", 0, 0], [5.0, 0.0]),
    "both-keys": lambda p: {**p, **matrix_payload(qd.make_horodecki(0.3))},
    "neither-key": lambda p: {"layout": p["layout"]},
}


def _assert_rejected(payload, path):
    path.write_text(json.dumps(payload))
    with pytest.raises(errors.QDarwinError):
        qd.load_state(str(path))
    for command in (["analyze", str(path)],
                    ["scan", str(path), "--delta", "0.1", "--seed", "1"]):
        assert run(command) == 2


def _assert_close(a, b, path=""):
    """Equal JSON values, floats within 1e-10."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _assert_close(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert b == pytest.approx(a, abs=1e-10), path
    else:
        assert a == b, path


# the key sets of an analyze report and of one verify-theorem case
SQD_KEYS = {"holds", "mutual_information_bits", "holevo_bits", "system_entropy_bits",
            "discord_bits", "per_subfragment", "tolerance_bits", "trivial_zero_entropy",
            "accessible_information"}
SUBFRAGMENT_KEYS = {"labels", "holds", "mutual_information_bits", "holevo_bits"}
SBS_KEYS = {"holds", "bipartite_holds", "bipartite_only", "pointer_basis",
            "pointer_degenerate", "branch_probabilities", "max_offdiagonal_block_norm",
            "max_pairwise_overlap", "max_whole_fragment_overlap", "max_conditional_cmi_bits",
            "cq_form_ok", "distinguishable_per_subenv", "product_ok"}
SI_KEYS = {"holds", "worst_pair", "worst_cmi_bits", "tolerance_bits"}
ANALYZE_KEYS = {"system", "fragment", "strong_darwinism", "broadcast_structure",
                "strong_independence", "m_sqd", "m_sqd_undefined_reason", "eta",
                "accessible_information", "tolerances", "optimizer", "seed"}
TOLERANCE_KEYS = {"offdiag", "overlap", "cmi_bits", "equality_bits", "borderline_factor"}
THEOREM_CASE_KEYS = {"index", "family", "dims", "category", "consistent", "borderline",
                     "borderline_reasons", "strong_darwinism", "broadcast_structure",
                     "strong_independence"}


def _assert_verdict_keys(payload):
    assert set(payload["strong_darwinism"]) == SQD_KEYS
    assert payload["strong_darwinism"]["per_subfragment"]
    for entry in payload["strong_darwinism"]["per_subfragment"]:
        assert set(entry) == SUBFRAGMENT_KEYS
    assert set(payload["broadcast_structure"]) == SBS_KEYS
    assert set(payload["strong_independence"]) == SI_KEYS


# each command names a flag its subcommand does not take
UNTAKEN_FLAGS = {
    "make-tol-opt": ["make", "ghz", "--n", "2", "--tol-opt", "1e-6"],
    "make-restarts": ["make", "ghz", "--n", "2", "--restarts", "3"],
    "make-format": ["make", "ghz", "--n", "2", "--format", "json"],
    "scan-grid": ["scan", "x.json", "--delta", "0.1", "--grid", "8x8"],
    "scan-restarts": ["scan", "x.json", "--delta", "0.1", "--restarts", "3"],
    "verify-theorem-max-refine-iter": ["verify-theorem", "--max-refine-iter", "5"],
    "verify-theorem-format": ["verify-theorem", "--format", "csv"],
    "appendix-c-seed": ["appendix-c", "--seed", "1"],
    "appendix-c-grid": ["appendix-c", "--grid", "8x8"],
}


@pytest.mark.parametrize("command", list(UNTAKEN_FLAGS.values()), ids=list(UNTAKEN_FLAGS))
def test_untaken_flag_exits_2(command):
    with pytest.raises(SystemExit) as exc:
        run(command)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["analyze", "scan", "verify-theorem"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    """numpy's generators refuse a negative seed; the CLI names the flag instead of
    dying with a traceback (exit 1)."""
    st = tmp_path / "st.json"
    qd.save_state(qd.make_random_density(0, qd.std_layout(2, [3])), str(st))
    args = {"analyze": ["analyze", str(st), "-o", str(tmp_path / "rep.json")],
            "scan": ["scan", str(st), "--delta", "0.1", "--report", str(tmp_path / "r.json")],
            "verify-theorem": ["verify-theorem", "--cases", "2", "-o", str(tmp_path / "t.json")],
            }[command]
    assert run([*args, "--seed", "-1"]) == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not any(tmp_path.glob("[rt]*.json"))


class TestMake:
    def test_horodecki_file(self, tmp_path):
        out = tmp_path / "st.json"
        assert run(["make", "horodecki", "--p", "0.25", "-o", str(out)]) == 0
        rho = qd.load_state(str(out))
        assert rho.dim == 4
        assert rho.layout.labels == ("S", "E1")
        assert np.allclose(rho.matrix, qd.make_horodecki(0.25).matrix)

    def test_ghz_five(self, tmp_path):
        out = tmp_path / "ghz.json"
        assert run(["make", "ghz", "--n", "5", "-o", str(out)]) == 0
        rho = qd.load_state(str(out))
        assert rho.dim == 64
        evals = np.linalg.eigvalsh(rho.matrix)
        assert (evals > 1e-12).sum() == 2

    def test_haar_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["make", "haar", "--dims", "2,2,2", "--seed", "7", "-o", str(a)]) == 0
        assert run(["make", "haar", "--dims", "2,2,2", "--seed", "7", "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()
        rho = qd.load_state(str(a))
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_cq_and_random_sbs(self, tmp_path):
        out = tmp_path / "cq.json"
        assert run(["make", "cq", "--probs", "0.3,0.7", "--overlap", "0.2",
                    "--seed", "3", "-o", str(out)]) == 0
        out2 = tmp_path / "rsbs.json"
        assert run(["make", "random-sbs", "--branches", "2", "--subenvs", "2",
                    "--max-dim", "3", "--seed", "5", "-o", str(out2)]) == 0
        rho = qd.load_state(str(out2))
        assert qd.detect_broadcast_structure(rho, "S").holds

    def test_appendix_b_kinds(self, tmp_path):
        for kind in ("appendix-b1", "appendix-b2"):
            out = tmp_path / f"{kind}.json"
            assert run(["make", kind, "--n", "2", "--p1", "0.3", "-o", str(out)]) == 0
            assert qd.load_state(str(out)).dim == 32

    def test_sbs_from_spec_file(self, tmp_path):
        spec = {
            "probabilities": [0.5, 0.5],
            "subenv_dims": [2, 2],
            "supports": [[[0], [0]], [[1], [1]]],
            "spectra": [[[1.0], [1.0]], [[1.0], [1.0]]],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sbs.json"
        assert run(["make", "sbs", "--spec", str(spec_path), "-o", str(out)]) == 0
        assert np.allclose(qd.load_state(str(out)).matrix,
                           qd.make_ghz_reduced(2).matrix)

    def test_invalid_parameter_exits_2(self, tmp_path):
        assert run(["make", "horodecki", "--p", "1.5",
                    "-o", str(tmp_path / "x.json")]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        assert run(["make", "haar", "--dims", "2,2",
                    "-o", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("args", [
        ["haar", "--dims", "2,x", "--seed", "1"],
        ["cq", "--probs", "0.3,abc", "--overlap", "0.2", "--seed", "1"],
        ["sbs", "--spec", "absent.json"],
        ["sbs", "--spec", "no-spectra.json"],
        ["sbs", "--spec", "fractional-dim.json"],
        ["sbs", "--spec", "fractional-index.json"],
        ["sbs", "--spec", "string-dim.json"],
        ["sbs", "--spec", "bool-index.json"],
        # 2^64 wraps to 0 in a fixed-width product
        ["haar", "--dims", ",".join(["2"] * 64), "--seed", "1"],
        ["cq", "--overlap", "0.5", "--subenvs", "0", "--seed", "1"],
        # dimension 2^71, above zoo.MAX_STATE_DIM
        ["ghz", "--n", "70"],
        # range checks the constructors own
        ["horodecki", "--p", "2"],
        ["appendix-b1", "--n", "1"],
        ["appendix-b2", "--n", "2", "--p1", "1.0"],
        ["cq", "--overlap", "1.5", "--seed", "1"],
        ["random-sbs", "--branches", "0", "--seed", "1"],
        ["random-sbs", "--branches", "1", "--seed", "1"],
        ["random-sbs", "--subenvs", "0", "--seed", "1"],
        ["random-sbs", "--max-dim", "1", "--seed", "1"],
        ["ghz", "--n", "0"],
    ], ids=["dims", "probs", "missing-spec", "spec-without-spectra", "spec-fractional-dim",
            "spec-fractional-index", "spec-string-dim", "spec-bool-index", "dims-overflow",
            "cq-no-subenvironments", "ghz-too-large", "horodecki-p-above-1",
            "appendix-b1-one-subenvironment", "appendix-b2-p1-at-1", "cq-overlap-above-1",
            "random-sbs-no-branch", "random-sbs-one-branch", "random-sbs-no-subenvironment",
            "random-sbs-max-dim-below-branches", "ghz-no-subenvironment"])
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "no-spectra.json").write_text(json.dumps(
            {"probabilities": [0.5, 0.5], "subenv_dims": [2],
             "supports": [[[0]], [[1]]]}))
        # a valid spec apart from one entry; int() would truncate 2.9 and 1.7
        for name, dims, index in [("fractional-dim", 2.9, 1), ("fractional-index", 2, 1.7),
                                  ("string-dim", "2", 1), ("bool-index", 2, True)]:
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"probabilities": [0.5, 0.5], "subenv_dims": [dims],
                 "supports": [[[0]], [[index]]], "spectra": [[[1.0]], [[1.0]]]}))
        assert run(["make", *args, "-o", str(tmp_path / "x.json")]) == 2
        assert not (tmp_path / "x.json").exists()
        assert_one_error_line(capsys.readouterr().err)


class TestAnalyze:
    def test_horodecki_report(self, tmp_path):
        st = tmp_path / "st.json"
        run(["make", "horodecki", "--p", "0.25", "-o", str(st)])
        rep = tmp_path / "rep.json"
        assert run(["analyze", str(st), "--fragment", "E1", "-o", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        sd = payload["strong_darwinism"]
        assert not sd["holds"]
        assert sd["mutual_information_bits"] == pytest.approx(0.95443, abs=5e-6)
        assert sd["holevo_bits"] == pytest.approx(0.14316, abs=5e-6)
        assert payload["broadcast_structure"]["holds"] is False

    def test_ghz_report_holds(self, tmp_path):
        st = tmp_path / "ghz.json"
        run(["make", "ghz", "--n", "3", "-o", str(st)])
        rep = tmp_path / "rep.json"
        assert run(["analyze", str(st), "--fragment", "E1", "-o", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["strong_darwinism"]["holds"] is True
        assert payload["m_sqd"] == pytest.approx(0.0, abs=1e-6)

    def test_bell_report(self, tmp_path):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = qd.validate_density_matrix(np.outer(psi, psi.conj()),
                                         qd.std_layout(2, [2]))
        st = tmp_path / "bell.json"
        qd.save_state(rho, str(st))
        rep = tmp_path / "rep.json"
        assert run(["analyze", str(st), "-o", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["broadcast_structure"]["holds"] is False
        assert payload["m_sqd"] == pytest.approx(0.5, abs=1e-6)

    def test_capped_restarts_in_both_accessible_information_blocks(self, tmp_path):
        st = tmp_path / "st.json"
        qd.save_state(qd.make_random_density(3000, qd.std_layout(2, [4]), rank=2), str(st))
        rep = tmp_path / "rep.json"
        assert run(["analyze", str(st), "-o", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["accessible_information"]["capped"] > 0
        assert payload["strong_darwinism"]["accessible_information"] \
            == payload["accessible_information"]

    def test_report_keys(self, tmp_path):
        st = tmp_path / "ghz.json"
        run(["make", "ghz", "--n", "3", "-o", str(st)])
        rep = tmp_path / "rep.json"
        assert run(["analyze", str(st), "--subfragment", "E1", "--subfragment", "E2",
                    "-o", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert set(payload) == ANALYZE_KEYS
        assert set(payload["tolerances"]) == TOLERANCE_KEYS
        _assert_verdict_keys(payload)

    def test_unknown_label_message_is_unquoted(self, tmp_path, capsys):
        st = tmp_path / "ghz3.json"
        run(["make", "ghz", "--n", "3", "-o", str(st)])
        capsys.readouterr()
        assert run(["analyze", str(st), "--system", "E9"]) == 2
        assert capsys.readouterr().err.startswith("error: label 'E9'")
        alone = tmp_path / "system-only.json"
        qd.save_state(qd.validate_density_matrix(np.eye(2) / 2, qd.std_layout(2, [])),
                      str(alone))
        assert run(["analyze", str(alone)]) == 2
        assert capsys.readouterr().err == "error: empty label set\n"

    def test_reports_reproducible(self, tmp_path):
        st = tmp_path / "st.json"
        run(["make", "horodecki", "--p", "0.4", "-o", str(st)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["analyze", str(st), "-o", str(a)])
        run(["analyze", str(st), "-o", str(b)])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("edit", list(MALFORMED), ids=list(MALFORMED))
    def test_malformed_file_exits_2(self, tmp_path, edit):
        _assert_rejected(MALFORMED[edit](matrix_payload(qd.make_horodecki(0.3))),
                         tmp_path / "bad.json")

    @pytest.mark.parametrize("edit", list(MALFORMED_FACTOR), ids=list(MALFORMED_FACTOR))
    def test_malformed_factor_file_exits_2(self, tmp_path, edit):
        payload = qd.make_horodecki(0.3).to_dict()
        assert "factor" in payload
        _assert_rejected(MALFORMED_FACTOR[edit](payload), tmp_path / "bad.json")

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["analyze", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("args", [
        ["--max-refine-iter", "-1"],
        ["--restarts", "0"],
        ["--tol-opt", "inf"],
        ["--tol-opt", "-1"],
        ["--tol-opt", "nan"],
        ["--tol-opt", "0"],
        ["--grid", "1x8"],
    ], ids=["negative-max-refine-iter", "zero-restarts", "infinite-tol-opt",
            "negative-tol-opt", "nan-tol-opt", "zero-tol-opt", "grid-1x8"])
    def test_bad_input_exits_2(self, tmp_path, capsys, args):
        st = tmp_path / "st.json"
        qd.save_state(qd.make_random_density(1, qd.std_layout(2, [3])), str(st))
        out = tmp_path / "rep.json"
        assert run(["analyze", str(st), *args, "-o", str(out)]) == 2
        assert not out.exists()
        assert_one_error_line(capsys.readouterr().err)

    def test_system_flag_picks_the_default_fragment(self, tmp_path):
        st = tmp_path / "ghz3.json"
        run(["make", "ghz", "--n", "3", "-o", str(st)])
        rep = tmp_path / "rep.json"
        assert run(["analyze", str(st), "--system", "E1", "-o", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["fragment"] == ["S", "E2", "E3"]
        assert payload["strong_darwinism"]["holds"] is True
        # a file without a system role: --system names it, the rest is the fragment
        no_role = json.loads(st.read_text())
        for entry in no_role["layout"]:
            entry.pop("role")
        st.write_text(json.dumps(no_role))
        assert run(["analyze", str(st), "--system", "S", "-o", str(rep)]) == 0
        assert json.loads(rep.read_text())["fragment"] == ["E1", "E2", "E3"]

    def test_tol_num_is_appendix_c_only(self, tmp_path):
        st = tmp_path / "st.json"
        qd.save_state(qd.make_horodecki(0.3), str(st))
        with pytest.raises(SystemExit) as exc:
            run(["analyze", str(st), "--tol-num", "1e-9"])
        assert exc.value.code == 2

    def test_invalid_state_exits_2(self, tmp_path):
        payload = matrix_payload(qd.make_horodecki(0.3))
        payload["matrix"][0][0] = [0.8, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["analyze", str(bad)]) == 2


class TestOneParserPerProcess:
    """``main`` parses every call with one parser per process: no option of one call
    reaches the next, whose report equals the one a fresh process writes."""

    @pytest.mark.parametrize("first,second", [
        (["--subfragment", "E1"], []),
        (["--grid", "8x4"], []),
        (["--format", "csv"], ["--format", "json"]),
    ], ids=["subfragment", "grid", "format"])
    def test_options_do_not_leak_between_calls(self, tmp_path, first, second):
        st = tmp_path / "st.json"
        qd.save_state(qd.make_random_density(7, qd.std_layout(2, [2])), str(st))
        after, alone = tmp_path / "after.txt", tmp_path / "alone.txt"
        assert run(["analyze", str(st), *first, "-o", str(tmp_path / "first.txt")]) == 0
        assert run(["analyze", str(st), *second, "-o", str(after)]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(qd.__file__).parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-m", "qdarwin.cli", "analyze", str(st),
                               *second, "-o", str(alone)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert after.read_text() == alone.read_text()
        assert (tmp_path / "first.txt").read_text() != after.read_text()


class TestFileForms:
    """A state read from its factor file and from its matrix file."""

    @staticmethod
    def _both_files(tmp_path, make_args):
        factor, matrix = tmp_path / "factor.json", tmp_path / "matrix.json"
        assert run(["make", *make_args, "-o", str(factor)]) == 0
        assert "factor" in json.loads(factor.read_text())
        matrix.write_text(json.dumps(matrix_payload(qd.load_state(str(factor)))))
        return factor, matrix

    @pytest.mark.parametrize("make_args", [
        ["ghz", "--n", "4"],
        ["appendix-b1", "--n", "2", "--p1", "0.3"],
        ["cq", "--overlap", "0.5", "--seed", "3", "--subenvs", "2"],
        ["random-sbs", "--seed", "2", "--subenvs", "3"],
    ], ids=["ghz", "appendix-b1", "cq", "random-sbs"])
    def test_analyze_and_scan_agree(self, tmp_path, make_args):
        outputs = []
        for state in self._both_files(tmp_path, make_args):
            rep, curve, red = (tmp_path / f"{state.stem}.{ext}"
                               for ext in ("rep.json", "csv", "red.json"))
            assert run(["analyze", str(state), "-o", str(rep)]) == 0
            assert run(["scan", str(state), "--delta", "0.1", "--seed", "1",
                        "--out-csv", str(curve), "--report", str(red)]) == 0
            rows = [[float(x) for x in row]
                    for row in csv.reader(curve.read_text().splitlines()[1:])]
            outputs.append([json.loads(rep.read_text()), rows, json.loads(red.read_text())])
        _assert_close(*outputs)

    def test_tied_pairs_report_the_first_worst_pair(self, tmp_path):
        # all three pairs carry 1 bit; rounding orders them differently per file
        for state in self._both_files(tmp_path, ["appendix-b2", "--n", "3", "--p1", "0.4"]):
            rep = tmp_path / "rep.json"
            assert run(["analyze", str(state), "-o", str(rep)]) == 0
            verdict = json.loads(rep.read_text())["strong_independence"]
            assert verdict["worst_pair"] == ["E1", "E2"]
            assert verdict["worst_cmi_bits"] == pytest.approx(1.0, abs=1e-12)


class TestScan:
    def test_ghz_plateau_and_redundancy(self, tmp_path):
        st = tmp_path / "ghz.json"
        run(["make", "ghz", "--n", "5", "-o", str(st)])
        curve = tmp_path / "scan.csv"
        rep = tmp_path / "red.json"
        assert run(["scan", str(st), "--delta", "0.01", "--seed", "1",
                    "--out-csv", str(curve), "--report", str(rep)]) == 0
        rows = list(csv.DictReader(curve.read_text().splitlines()))
        assert len(rows) == 5
        for row in rows:
            assert float(row["mean_chi_bits"]) == pytest.approx(1.0, abs=1e-9)
            assert float(row["mean_discord_bits"]) == pytest.approx(0.0, abs=1e-9)
        payload = json.loads(rep.read_text())
        assert payload["r_delta"] == 5
        assert payload["f_delta_min"] == pytest.approx(0.2)

    def test_product_state_zero_curve(self, tmp_path):
        parts = [qd.make_random_density(1, qd.SubsystemLayout.of(("S", 2), system="S"))]
        for k in range(2):
            parts.append(qd.make_random_density(
                k + 2, qd.SubsystemLayout.of((f"E{k+1}", 2), system=None)))
        st = tmp_path / "prod.json"
        qd.save_state(qd.tensor(parts), str(st))
        curve = tmp_path / "scan.csv"
        assert run(["scan", str(st), "--delta", "0.1", "--seed", "1",
                    "--out-csv", str(curve), "--report", str(tmp_path / "r.json")]) == 0
        for row in csv.DictReader(curve.read_text().splitlines()):
            assert abs(float(row["mean_chi_bits"])) <= 1e-9
        assert json.loads((tmp_path / "r.json").read_text())["r_delta"] == 0

    def test_bad_delta_exits_2(self, tmp_path):
        st = tmp_path / "ghz.json"
        run(["make", "ghz", "--n", "2", "-o", str(st)])
        assert run(["scan", str(st), "--delta", "1.5", "--seed", "1",
                    "--out-csv", str(tmp_path / "x.csv")]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        st = tmp_path / "ghz.json"
        run(["make", "ghz", "--n", "2", "-o", str(st)])
        assert run(["scan", str(st), "--delta", "0.1",
                    "--out-csv", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_bad_tol_opt_exits_2(self, tmp_path, tol):
        st = tmp_path / "ghz.json"
        run(["make", "ghz", "--n", "2", "-o", str(st)])
        assert run(["scan", str(st), "--delta", "0.1", "--seed", "1",
                    "--tol-opt", tol]) == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_samples_exits_2(self, tmp_path, samples):
        st = tmp_path / "ghz.json"
        run(["make", "ghz", "--n", "2", "-o", str(st)])
        out = tmp_path / "x.csv"
        assert run(["scan", str(st), "--delta", "0.1", "--seed", "1",
                    "--samples", samples, "--out-csv", str(out)]) == 2
        assert not out.exists()

    def test_seeded_scan_is_bit_reproducible(self, tmp_path):
        st = tmp_path / "haar.json"
        run(["make", "haar", "--dims", "2,2,2,2", "--seed", "11", "-o", str(st)])
        outs = []
        for name in ("a", "b"):
            csv_path = tmp_path / f"{name}.csv"
            rep_path = tmp_path / f"{name}.json"
            assert run(["scan", str(st), "--delta", "0.2", "--seed", "4",
                        "--samples", "2", "--out-csv", str(csv_path),
                        "--report", str(rep_path)]) == 0
            outs.append((csv_path.read_text(), rep_path.read_text()))
        assert outs[0] == outs[1]


class TestVerifyTheorem:
    def test_small_batch_passes(self, tmp_path):
        rep = tmp_path / "thm.json"
        assert run(["verify-theorem", "--cases", "16", "--seed", "9",
                    "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["cases"] == 16
        assert len(payload["cases"]) == 16

    def test_case_keys(self, tmp_path):
        rep = tmp_path / "thm.json"
        assert run(["verify-theorem", "--cases", "1", "--seed", "9",
                    "--report", str(rep)]) == 0
        (case,) = json.loads(rep.read_text())["cases"]
        assert set(case) == THEOREM_CASE_KEYS
        _assert_verdict_keys(case)

    def test_zero_cases_exits_2(self, tmp_path):
        assert run(["verify-theorem", "--cases", "0",
                    "--report", str(tmp_path / "x.json")]) == 2

    def test_tiny_perturbation_borderline(self, tmp_path):
        rep = tmp_path / "thm.json"
        assert run(["verify-theorem", "--cases", "8", "--seed", "3",
                    "--perturbation", "1e-9", "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["summary"]["borderline"] > 0
        assert payload["summary"]["fail"] == 0

    def test_tol_opt_sets_strong_darwinism_tolerance(self, tmp_path):
        rep = tmp_path / "thm.json"
        run(["verify-theorem", "--cases", "8", "--seed", "3", "--perturbation", "1e-3",
             "--tol-opt", "0.5", "--report", str(rep)])
        cases = json.loads(rep.read_text())["cases"]
        assert [c["strong_darwinism"]["tolerance_bits"] for c in cases] == [0.5] * 8

    @pytest.mark.parametrize("args", [
        ["--perturbation", "nan"],
        ["--perturbation", "inf"],
        ["--perturbation=-1e-3"],
        ["--tol-opt", "nan"],
        ["--tol-opt", "-1"],
    ], ids=["nan-perturbation", "infinite-perturbation", "negative-perturbation",
            "nan-tol-opt", "negative-tol-opt"])
    def test_bad_input_exits_2(self, tmp_path, args):
        rep = tmp_path / "thm.json"
        assert run(["verify-theorem", "--cases", "4", "--seed", "3", *args,
                    "--report", str(rep)]) == 2
        assert not rep.exists()

    @pytest.mark.parametrize("cap", ["1", "8"])
    def test_dims_cap_below_nine_exits_2(self, tmp_path, cap):
        rep = tmp_path / "thm.json"
        assert run(["verify-theorem", "--cases", "40", "--seed", "3",
                    "--dims-cap", cap, "--report", str(rep)]) == 2
        assert not rep.exists()


class TestAppendixC:
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["appendix-c", "--grid-points", "11", "--out-csv", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 11
        assert set(rows[0]) == {"p", "H_S", "I", "chi_bits",
                                "chi_closed_form", "discord", "m_sqd"}
        mid = rows[5]
        assert float(mid["p"]) == pytest.approx(0.5)
        assert float(mid["H_S"]) == pytest.approx(1.0, abs=1e-9)
        assert float(mid["I"]) == pytest.approx(1.0, abs=1e-9)
        assert float(mid["chi_bits"]) == pytest.approx(0.0, abs=1e-9)

    def test_canonical_basis_at_the_degenerate_point(self, tmp_path):
        # rho_S = I/2 at p = 0.5: the closed form is chi at the sigma_z basis, 0,
        # not the 1 bit of the probe-refined pointer basis
        out = tmp_path / "c.csv"
        assert run(["appendix-c", "--grid-points", "3", "--out-csv", str(out)]) == 0
        mid = list(csv.DictReader(out.read_text().splitlines()))[1]
        assert float(mid["p"]) == pytest.approx(0.5)
        assert float(mid["chi_bits"]) == pytest.approx(0.0, abs=1e-9)
        assert float(mid["discord"]) == pytest.approx(1.0, abs=1e-9)
        assert float(mid["m_sqd"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flag", ["--tol-num", "--tol-opt"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_tolerance_exits_2(self, tmp_path, flag, value):
        out = tmp_path / "c.csv"
        assert run(["appendix-c", "--grid-points", "3", flag, value,
                    "--out-csv", str(out)]) == 2
        assert not out.exists()

    def test_grid_too_small_exits_2(self, tmp_path):
        assert run(["appendix-c", "--grid-points", "2",
                    "--out-csv", str(tmp_path / "x.csv")]) == 2

    def test_full_precision_round_trip(self, tmp_path):
        out = tmp_path / "c.csv"
        run(["appendix-c", "--grid-points", "5", "--out-csv", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for row in rows:
            p = float(row["p"])
            expected = qd.zoo.horodecki_holevo_closed_form(p)
            assert float(row["chi_closed_form"]) == expected


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2 ** 70) | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


def _paths(node, path=()):
    """Every path into a JSON value, the root's () first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@given(data=st.data(), form=st.sampled_from(["factor", "matrix"]))
@settings(max_examples=150, deadline=None)
def test_mutated_state_files_exit_0_or_2(data, form):
    """Up to three replacements, deletions or insertions anywhere in a valid
    state file never make ``analyze`` raise."""
    rho = qd.make_horodecki(0.3)
    payload = rho.to_dict() if form == "factor" else matrix_payload(rho)
    assert form in payload
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(payload))))
        value = data.draw(JSON_VALUES)
        if not path:
            payload = value
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "insert" and isinstance(parent, list):
            parent.insert(path[-1], value)
        else:
            parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        state = os.path.join(tmp, "state.json")
        with open(state, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert run(["analyze", state]) in (0, 2)
