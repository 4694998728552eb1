#!/usr/bin/env python3
"""Information-vs-fragment-fraction comparison data.

Scans the classical (Holevo) information, discord, and mutual information
carried by environment fragments of growing size, for two contrasting
families: the broadcast-plateau state (reduced GHZ) and an ensemble of
Haar-random pure states.  Writes one tidy CSV suitable for plotting.

    python scripts/fragment_scan_comparison.py --subenvs 6 --seeds 20 \
        --out fragment_scan.csv
"""

import argparse
import math
import sys

import numpy as np

import qdarwin as qd


def scan_state(rho, system="S"):
    """Mean chi, discord, and mutual information per fragment fraction: the
    curve of a redundancy scan, every fragment read at one pointer basis."""
    n = len(rho.layout.labels) - 1
    curve = qd.redundancy(rho, system, 0.5, scan_samples=math.comb(n, n // 2)).scan_curve
    return [(pt.fraction, pt.mean_holevo, pt.mean_discord, pt.mean_mutual_info)
            for pt in curve]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subenvs", type=int, default=6,
                        help="number of qubit subenvironments")
    parser.add_argument("--seeds", type=int, default=20,
                        help="Haar ensemble size")
    parser.add_argument("--out", default="fragment_scan.csv")
    args = parser.parse_args(argv)

    lines = ["family,fraction,mean_chi_bits,mean_discord_bits,mean_I_bits"]

    def emit(family, rows):
        for frac, chi, disc, mi in rows:
            lines.append(",".join([family] + [repr(float(x))
                                              for x in (frac, chi, disc, mi)]))

    emit("plateau", scan_state(qd.make_ghz_reduced(args.subenvs)))

    layout = qd.std_layout(2, [2] * args.subenvs)
    acc = None
    for seed in range(args.seeds):
        rho = qd.make_haar_pure(seed, layout).to_density()
        rows = np.array(scan_state(rho))
        acc = rows if acc is None else acc + rows
    emit("haar", acc / args.seeds)

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}: plateau vs {args.seeds}-seed Haar ensemble, "
          f"{args.subenvs} subenvironments", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
