#!/usr/bin/env python3
"""Print the objectivity diagnostics of the worked-example states as a table.

    python scripts/worked_examples_table.py
"""

import sys

import numpy as np

import qdarwin as qd
from qdarwin.errors import DegenerateSystemEntropy


def bell():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return qd.validate_density_matrix(np.outer(psi, psi.conj()), qd.std_layout(2, [2]))


STATES = [
    ("reduced GHZ (N=3)", lambda: qd.make_ghz_reduced(3)),
    ("Bell pair", bell),
    ("counterexample p=0.25", lambda: qd.make_horodecki(0.25)),
    ("correlated branches (N=2)", lambda: qd.make_correlated_branches(2, 0.5)),
    ("entangled branches (N=2)", lambda: qd.make_entangled_branches(2, 0.5)),
    ("random broadcast (seed 1)", lambda: qd.make_random_broadcast_state(1, 2, 2, 4)),
    ("classical-quantum, overlap 0.5", lambda: qd.make_cq_state(7, [0.4, 0.6], 0.5)),
]


def main():
    header = (f"{'state':<32} {'I':>8} {'chi':>8} {'D':>8} {'H(S)':>8} "
              f"{'M':>8} {'eta':>8}  SQD   SBS   SI")
    print(header)
    print("-" * len(header))
    for name, maker in STATES:
        rho = maker()
        frag = list(rho.layout.environment_labels)
        rep = qd.analyze(rho, "S", frag)
        sqd = rep.sqd
        m = f"{rep.m_sqd:8.4f}" if rep.m_sqd is not None else "   undef"
        si = "-" if rep.independence is None else str(rep.independence.holds)
        discord = qd.discord(rho, "S", frag).value  # rounding negatives clamped
        print(f"{name:<32} {sqd.mutual_info:8.4f} {sqd.holevo:8.4f} "
              f"{discord:8.4f} {sqd.system_entropy:8.4f} {m} {rep.eta:8.4f}  "
              f"{str(sqd.holds):<5} {str(rep.sbs.holds):<5} {si}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
