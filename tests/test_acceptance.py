"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

One documented deviation: the entangled-branch family at N=2 has worst
conditional mutual information exactly 2.0 bits by direct entropy
computation, not the printed 1.0 (each branch is a maximally entangled pure
pair with nothing traced out; see the decisions ledger).
"""

import csv
import json
import math
import time

import numpy as np

import qdarwin as qd
from qdarwin.cli import main as cli_main


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


class TestAcceptance:
    def test_01_closed_form_regression(self, tmp_path):
        t0 = time.perf_counter()
        out = tmp_path / "appendix_c.csv"
        code = cli_main(["appendix-c", "--grid-points", "99", "--out-csv", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        worst_chi = max(abs(float(r["chi_bits"]) - float(r["chi_closed_form"]))
                        for r in rows)
        worst_mi = max(abs(float(r["I"]) - float(r["H_S"])) for r in rows)
        margin = min(float(r["H_S"]) - float(r["chi_bits"]) for r in rows)
        elapsed = time.perf_counter() - t0
        ok = (code == 0 and len(rows) == 99 and worst_chi <= 1e-6
              and worst_mi <= 1e-9 and margin > 1e-3 and elapsed < 10.0)
        assert report(1, ok,
                      f"99-point closed-form regression: max|chi-closed|={worst_chi:.2e}, "
                      f"max|I-H_S|={worst_mi:.2e}, min margin={margin:.3e}, "
                      f"{elapsed:.1f}s")

    def test_02_equivalence_batch(self, tmp_path):
        t0 = time.perf_counter()
        rep = tmp_path / "theorem.json"
        code = cli_main(["verify-theorem", "--cases", "500", "--seed", "42",
                         "--dims-cap", "32", "--report", str(rep)])
        payload = json.loads(rep.read_text())
        elapsed = time.perf_counter() - t0
        summary = payload["summary"]
        dims_ok = all(int(np.prod(c["dims"])) <= 32 for c in payload["cases"])
        ok = (code == 0 and summary["fail"] == 0 and summary["cases"] == 500
              and dims_ok and elapsed < 300.0)
        assert report(2, ok,
                      f"500 seeded cases: {summary['pass']} pass, "
                      f"{summary['borderline']} borderline, {summary['fail']} fail, "
                      f"{elapsed:.1f}s")

    def test_03_bipartite_broadcast_iff_strong_darwinism(self):
        overlaps = [round(0.1 * k, 1) for k in range(10)]
        rng = np.random.default_rng(20250810)
        mismatches = 0
        wrong_direction = 0
        for case in range(200):
            overlap = overlaps[case % 10]
            p1 = float(rng.uniform(0.2, 0.45))
            rho = qd.make_cq_state(case, [p1, 1.0 - p1], overlap)
            sbs = qd.detect_broadcast_structure(rho, "S")
            sqd = qd.check_strong_darwinism(rho, "S", optimize_acc_lower=False)
            if sbs.bipartite_holds != sqd.holds:
                mismatches += 1
            if (overlap == 0.0) != sbs.bipartite_holds:
                wrong_direction += 1
        ok = mismatches == 0 and wrong_direction == 0
        assert report(3, ok,
                      f"200 classical-quantum states: {mismatches} verdict mismatches, "
                      f"{wrong_direction} wrong overlap-0 directions")

    def test_04_correlated_environment_families(self):
        failures = []
        notes = []
        for maker, name in ((qd.make_correlated_branches, "correlated"),
                            (qd.make_entangled_branches, "entangled")):
            for n in (2, 3):
                for p1 in (0.3, 0.5):
                    rho = maker(n, p1)
                    full = qd.detect_broadcast_structure(rho, "S")
                    si = qd.check_strong_independence(rho, "S")
                    pair_ok = all(
                        qd.detect_broadcast_structure(
                            qd.partial_trace(rho, ["S", f"E{k+1}"]), "S").holds
                        for k in range(n))
                    # direct entropy computation: one classically correlated
                    # bit per branch, doubled when an entangled pure pair
                    # survives untraced (entangled family at N=2)
                    expected_cmi = 2.0 if (name == "entangled" and n == 2) else 1.0
                    case_ok = (pair_ok and not full.holds and full.bipartite_only
                               and not si.holds
                               and abs(si.worst_cmi - expected_cmi) <= 1e-8)
                    if expected_cmi != 1.0:
                        notes.append(
                            f"{name} N={n}: worst CMI {si.worst_cmi:.9f} "
                            f"(printed criterion value 1.0 is not attainable; "
                            f"see decisions ledger)")
                    if not case_ok:
                        failures.append((name, n, p1, si.worst_cmi))
        detail = f"8 family cases, failures: {failures}"
        if notes:
            detail += " | " + "; ".join(notes)
        assert report(4, not failures, detail)

    def test_05_fragment_fraction_phenomenology(self):
        # plateau family
        ghz = qd.make_ghz_reduced(5)
        rep = qd.redundancy(ghz, "S", 0.01, seed=1)
        plateau_ok = all(abs(pt.mean_holevo - 1.0) <= 1e-6 for pt in rep.scan_curve)
        # typical Haar states: one system qubit, six environment qubits
        layout = qd.std_layout(2, [2] * 6)
        below = 0
        for seed in range(20):
            rho = qd.make_haar_pure(seed, layout).to_density()
            h_s = qd.von_neumann_entropy(qd.partial_trace(rho, ["S"]))
            chis = [qd.holevo_quantity(rho, "S", [f"E{k+1}"]).value for k in range(6)]
            if np.mean(chis) < 0.9 * h_s:
                below += 1
        haar_ok = below >= 18
        ok = plateau_ok and haar_ok
        assert report(5, ok,
                      f"plateau at 1.0 across fractions: {plateau_ok}; Haar mean chi at "
                      f"fraction 1/6 below 0.9 H(S) in {below}/20 seeds")

    def test_06_two_qubit_distance_inequality(self):
        violations = 0
        worst = 0.0
        tested = 0
        layout = qd.std_layout(2, [2])
        for seed in range(1000):
            rho = qd.make_random_density(seed, layout, rank=(seed % 4) + 1)
            h_s = qd.von_neumann_entropy(qd.partial_trace(rho, ["S"]))
            if h_s <= 1e-6:
                continue
            tested += 1
            eta = qd.broadcast_distance_bound(rho, "S", ["E1"])
            m = qd.objectivity_deficit(rho, "S", ["E1"])
            gap = eta - 2.0 * h_s * m
            if gap < -1e-6:
                violations += 1
                worst = min(worst, gap)
        ok = violations == 0
        assert report(6, ok,
                      f"{tested} two-qubit states: {violations} violations of "
                      f"eta >= 2 H(S) M (worst slack {worst:.3e})")

    def test_07_measure_identities(self):
        layouts = [qd.std_layout(2, [2]), qd.std_layout(2, [3]),
                   qd.std_layout(3, [2]), qd.std_layout(2, [2])]
        # non-strict: a stalled refinement underestimates the lower bound,
        # which cannot break the ordering being asserted here
        light = qd.OptimizerConfig(restarts=6, refine_starts=3, max_refine_iter=100,
                                   strict_convergence=False)
        comp_bad = acc_bad = add_bad = pt_bad = cmi_bad = 0
        for seed in range(200):
            layout = qd.std_layout(2, [2, 2]) if seed % 25 == 0 \
                else layouts[seed % len(layouts)]
            rho = qd.make_random_density(seed, layout)
            frag = list(rho.layout.environment_labels)
            mi = qd.mutual_information(rho, ["S"], frag)
            chi = qd.holevo_quantity(rho, "S", frag).value
            d = qd.discord(rho, "S", frag).value
            if abs(mi - (chi + d)) > 1e-6:
                comp_bad += 1
            acc = qd.accessible_information_bounds(rho, "S", frag, opt=light)
            if acc.lower > chi + 1e-6:
                acc_bad += 1
        for seed in range(200):
            a = qd.make_random_density(seed, qd.SubsystemLayout.of(("A", 3), system="A"))
            b = qd.make_random_density(seed + 1000,
                                       qd.SubsystemLayout.of(("B", 2), system=None))
            joint = qd.tensor([a, b])
            if abs(qd.von_neumann_entropy(joint)
                   - qd.von_neumann_entropy(a) - qd.von_neumann_entropy(b)) > 1e-9:
                add_bad += 1
            if np.max(np.abs(qd.partial_trace(joint, ["A"]).matrix - a.matrix)) > 1e-9:
                pt_bad += 1
        for seed in range(200):
            rho = qd.make_random_density(seed, qd.std_layout(2, [2, 2]))
            if qd.conditional_mutual_information(rho, ["E1"], ["E2"], ["S"]) < -1e-9:
                cmi_bad += 1
        ok = comp_bad == acc_bad == add_bad == pt_bad == cmi_bad == 0
        assert report(7, ok,
                      f"identity suite on 200-state batches: complementarity {comp_bad}, "
                      f"accessible-info ordering {acc_bad}, additivity {add_bad}, "
                      f"partial-trace {pt_bad}, CMI nonnegativity {cmi_bad} failures")

    def test_08_redundancy_oracle_equivalence(self):
        failures = []
        # broadcast-family states: greedy must equal exhaustive
        for seed in range(6):
            rho = qd.make_random_broadcast_state(seed, 2, 2 + seed % 3, 3)
            exh = qd.redundancy(rho, "S", 0.05, strategy="exhaustive")
            gre = qd.redundancy(rho, "S", 0.05, strategy="greedy")
            if exh.r_delta != gre.r_delta:
                failures.append(("greedy-vs-exhaustive", seed))
        # universal packing bound across mixed families
        suite = [qd.make_ghz_reduced(5),
                 qd.make_correlated_branches(3, 0.4),
                 qd.make_haar_pure(3, qd.std_layout(2, [2] * 4)).to_density(),
                 qd.make_cq_state(1, [0.3, 0.7], 0.2, n_subenvs=2)]
        suite += [qd.make_random_broadcast_state(s, 2, 3, 3) for s in range(4)]
        for i, rho in enumerate(suite):
            for strategy in ("exhaustive", "greedy"):
                rep = qd.redundancy(rho, "S", 0.1, strategy=strategy)
                if rep.f_delta_min > 0 and \
                        rep.r_delta > math.floor(1.0 / rep.f_delta_min):
                    failures.append(("packing-bound", i, strategy))
        ghz = qd.redundancy(qd.make_ghz_reduced(5), "S", 0.01)
        if ghz.r_delta != 5:
            failures.append(("ghz-r5", ghz.r_delta))
        assert report(8, not failures,
                      f"greedy==exhaustive on broadcast family, packing bound "
                      f"universal, GHZ N=5 gives R=5; failures: {failures}")
