import csv
import json

import numpy as np
import pytest

import qdarwin as qd
from qdarwin import errors
from qdarwin.cli import main


def run(args):
    return main(args)


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
}

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
    ], ids=["dims", "probs", "missing-spec", "spec-without-spectra", "spec-fractional-dim",
            "spec-fractional-index", "spec-string-dim", "spec-bool-index"])
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, args):
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

    def test_capped_restarts_only_in_the_top_level_block(self, tmp_path):
        st = tmp_path / "st.json"
        qd.save_state(qd.make_random_density(3000, qd.std_layout(2, [4]), rank=2), str(st))
        rep = tmp_path / "rep.json"
        assert run(["analyze", str(st), "-o", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["accessible_information"]["capped"] > 0
        assert "capped" not in payload["strong_darwinism"]["accessible_information"]

    def test_reports_reproducible(self, tmp_path):
        st = tmp_path / "st.json"
        run(["make", "horodecki", "--p", "0.4", "-o", str(st)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["analyze", str(st), "-o", str(a)])
        run(["analyze", str(st), "-o", str(b)])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("edit", list(MALFORMED), ids=list(MALFORMED))
    def test_malformed_file_exits_2(self, tmp_path, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED[edit](qd.make_horodecki(0.3).to_dict())))
        with pytest.raises(errors.QDarwinError):
            qd.load_state(str(bad))
        for command in (["analyze", str(bad)],
                        ["scan", str(bad), "--delta", "0.1", "--seed", "1"]):
            assert run(command) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["analyze", str(tmp_path / "absent.json")]) == 2

    def test_tol_num_is_appendix_c_only(self, tmp_path):
        st = tmp_path / "st.json"
        qd.save_state(qd.make_horodecki(0.3), str(st))
        with pytest.raises(SystemExit) as exc:
            run(["analyze", str(st), "--tol-num", "1e-9"])
        assert exc.value.code == 2

    def test_invalid_state_exits_2(self, tmp_path):
        rho = qd.make_horodecki(0.3)
        payload = rho.to_dict()
        payload["matrix"][0][0] = [0.8, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["analyze", str(bad)]) == 2


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
