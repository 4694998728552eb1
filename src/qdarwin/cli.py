"""Command-line front end: state construction, objectivity analysis, fragment
scans, randomized equivalence batches, and the closed-form regression sweep.

Exit codes: 0 success, 1 assertion/regression failure, 2 usage or validation
error, 3 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

import numpy as np

from . import zoo
from .core import EPS_NUM, EPS_OPT, DensityMatrix, ProjectiveMeasurement, load_state, save_state
from .errors import OptimizerDidNotConverge, QDarwinError
from .measures import pointer_ensemble
from .objectivity import analyze, redundancy, verify_equivalence
from .optimize import DEFAULT_OPT, OptimizerConfig

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


class UsageError(Exception):
    """Maps to exit code 2 with a message naming the violated precondition."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _common_flags(parser: argparse.ArgumentParser, seed: bool = True,
                  tol_opt: bool = True, out: bool = True) -> None:
    """Add the flags several subcommands share; each subcommand takes only
    those it reads."""
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    if tol_opt:
        parser.add_argument("--tol-opt", type=float, default=EPS_OPT,
                            help="tolerance for optimized quantities and the "
                                 "strong-Darwinism equality, bits")
    if out:
        parser.add_argument("--out", "-o", default=None,
                            help="output path (default stdout)")


def _optimizer_config(args) -> OptimizerConfig:
    theta, phi = DEFAULT_OPT.theta_points, DEFAULT_OPT.phi_points
    if args.grid:
        try:
            theta, phi = (int(x) for x in args.grid.lower().split("x"))
        except ValueError:
            raise UsageError(f"--grid must look like 64x32, got {args.grid!r}")
    return OptimizerConfig(theta, phi, restarts=args.restarts, seed=args.seed or 0,
                           max_refine_iter=args.max_refine_iter, eps_opt=args.tol_opt)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_labels(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    labels = [x.strip() for x in raw.split(",") if x.strip()]
    if not labels:
        raise UsageError(f"empty label list {raw!r}")
    return labels


def _numbers(raw: str, cast, flag: str) -> list:
    try:
        return [cast(x) for x in raw.split(",")]
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated numbers, got {raw!r}") from None


def _check_bounds(args) -> None:
    """Tolerances must be finite and positive, a perturbation finite and >= 0, a seed >= 0."""
    for flag, positive in (("tol_opt", True), ("tol_num", True), ("perturbation", False)):
        value = getattr(args, flag, 1.0)
        if not (0.0 < value < math.inf if positive else 0.0 <= value < math.inf):
            raise UsageError(f"--{flag.replace('_', '-')} must be finite and "
                             f"{'positive' if positive else 'non-negative'}, got {value}")
    if (getattr(args, "seed", None) or 0) < 0:  # numpy seeds are non-negative integers
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")


def _require_seed(args) -> int:
    if args.seed is None:
        raise UsageError("--seed is required for randomized subcommands")
    return args.seed


def cmd_make(args) -> int:
    kind = args.kind
    if kind in ("ghz", "appendix-b1", "appendix-b2") and args.n is None:
        raise UsageError("--n (number of subenvironments) is required")
    if kind == "ghz":
        rho = zoo.make_ghz_reduced(args.n)
    elif kind == "horodecki":
        if args.p is None:
            raise UsageError("--p is required")
        rho = zoo.make_horodecki(args.p)
    elif kind in ("appendix-b1", "appendix-b2"):
        maker = (zoo.make_correlated_branches if kind == "appendix-b1"
                 else zoo.make_entangled_branches)
        rho = maker(args.n, args.p1)
    elif kind == "haar":
        seed = _require_seed(args)
        if not args.dims:
            raise UsageError("--dims is required, e.g. --dims 2,2,2 (system first)")
        dims = _numbers(args.dims, int, "--dims")
        rho = zoo.make_haar_pure(seed, zoo.std_layout(dims[0], dims[1:])).to_density()
    elif kind == "cq":
        seed = _require_seed(args)
        probs = _numbers(args.probs, float, "--probs")
        if args.overlap is None:
            raise UsageError("--overlap is required")
        rho = zoo.make_cq_state(seed, probs, args.overlap, args.subenvs)
    elif kind == "random-sbs":
        rho = zoo.make_random_broadcast_state(_require_seed(args), args.branches,
                                              args.subenvs, args.max_dim)
    elif kind == "sbs":
        if not args.spec:
            raise UsageError("--spec SPEC_JSON is required for kind 'sbs'")
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                spec = zoo.SbsSpec.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"invalid spec file: {exc}") from None
        rho = zoo.make_broadcast_state(spec)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown kind {kind!r}")

    if args.out is None:
        save_state(rho, sys.stdout)
        sys.stdout.write("\n")
    else:
        save_state(rho, args.out)
    summary = ", ".join(f"{l}:{d}" for l, d in zip(rho.layout.labels, rho.layout.dims))
    print(f"state {kind}: dim {rho.dim}, layout [{summary}], "
          f"system {rho.layout.system}", file=sys.stderr)
    return EXIT_OK


def _load(args) -> tuple[DensityMatrix, str]:
    """The state file a subcommand reads and its system label."""
    try:
        rho = load_state(args.state)
    except (OSError, QDarwinError, ValueError) as exc:
        raise UsageError(f"invalid state file: {exc}") from None
    system = args.system or rho.layout.system
    if system is None:
        raise UsageError("state has no system factor; pass --system")
    return rho, system


def cmd_analyze(args) -> int:
    rho, system = _load(args)
    fragment = _parse_labels(args.fragment)
    subfragments = [_parse_labels(s) for s in (args.subfragment or [])]
    report = analyze(rho, system, fragment, subfragments or None,
                     _optimizer_config(args), seed=args.seed)
    if args.format == "csv":
        headline = {
            "system": report.system,
            "fragment": "|".join(report.fragment),
            "I_bits": _fmt(report.sqd.mutual_info),
            "chi_bits": _fmt(report.sqd.holevo),
            "discord_bits": _fmt(report.sqd.discord),
            "H_S_bits": _fmt(report.sqd.system_entropy),
            "m_sqd": "" if report.m_sqd is None else _fmt(report.m_sqd),
            "eta": _fmt(report.eta),
            "sqd_holds": report.sqd.holds,
            "sbs_holds": report.sbs.holds,
            "strong_independence_holds":
                "" if report.independence is None else report.independence.holds,
        }
        text = (",".join(headline) + "\n"
                + ",".join(str(v) for v in headline.values()) + "\n")
        _write_text(args.out, text)
    else:
        _write_text(args.out, json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def cmd_scan(args) -> int:
    rho, system = _load(args)
    seed = _require_seed(args)
    report = redundancy(rho, system, args.delta, OptimizerConfig(eps_opt=args.tol_opt),
                        args.strategy, scan_samples=args.samples, seed=seed)
    lines = ["fraction,mean_chi_bits,mean_discord_bits,mean_I_bits,n_samples"]
    for pt in report.scan_curve:
        lines.append(",".join([_fmt(pt.fraction), _fmt(pt.mean_holevo),
                               _fmt(pt.mean_discord), _fmt(pt.mean_mutual_info),
                               str(pt.n_samples)]))
    _write_text(args.out_csv, "\n".join(lines) + "\n")
    _write_text(args.report, json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    if args.cases < 1:
        raise UsageError(f"--cases must be >= 1, got {args.cases}")
    seed = _require_seed(args)
    opt = OptimizerConfig(eps_opt=args.tol_opt)
    counts = {"pass": 0, "borderline": 0, "fail": 0}
    rows = []
    for index, family, rho in zoo.theorem_suite(seed, args.cases, args.dims_cap,
                                                args.perturbation):
        witness = verify_equivalence(rho, "S", opt=opt)
        category = ("borderline" if witness.borderline
                    else "pass" if witness.consistent else "fail")
        counts[category] += 1
        rows.append({
            "index": index,
            "family": family,
            "dims": list(rho.layout.dims),
            "category": category,
            **witness.to_dict(),
        })
    payload = {
        "summary": {"cases": args.cases, "seed": seed,
                    "dims_cap": args.dims_cap,
                    "perturbation": args.perturbation, **counts},
        "cases": rows,
    }
    _write_text(args.report or args.out, json.dumps(payload, indent=2))
    print(f"theorem batch: {counts['pass']} pass, {counts['borderline']} borderline, "
          f"{counts['fail']} fail", file=sys.stderr)
    return EXIT_OK if counts["fail"] == 0 else EXIT_FAILURE


def cmd_appendix_c(args) -> int:
    if args.grid_points < 3:
        raise UsageError(f"--grid-points must be >= 3, got {args.grid_points}")
    ps = np.linspace(0.01, 0.99, args.grid_points)
    lines = ["p,H_S,I,chi_bits,chi_closed_form,discord,m_sqd"]
    worst_chi = (0.0, None)
    worst_mi = (0.0, None)
    # the closed form is chi at sigma_z, rho_S's eigenbasis, also at the degenerate p = 0.5
    sigma_z = ProjectiveMeasurement.computational("S", 2)
    for p in ps:
        rho = zoo.make_horodecki(float(p))
        ens = pointer_ensemble(rho, "S", ["E1"], sigma_z)
        h_s, mi, chi = ens.h_s, ens.mutual_information, ens.holevo
        closed = zoo.horodecki_holevo_closed_form(float(p))
        lines.append(",".join(_fmt(x) for x in (p, h_s, mi, chi, closed, ens.discord,
                                                 ens.deficit)))
        if abs(chi - closed) > worst_chi[0]:
            worst_chi = (abs(chi - closed), float(p))
        if abs(mi - h_s) > worst_mi[0]:
            worst_mi = (abs(mi - h_s), float(p))
    _write_text(args.out_csv or args.out, "\n".join(lines) + "\n")
    ok = worst_chi[0] <= args.tol_opt and worst_mi[0] <= args.tol_num
    print(f"max |chi_bits - chi_closed_form| = {worst_chi[0]:.3e} at p={worst_chi[1]}; "
          f"max |I - H_S| = {worst_mi[0]:.3e} at p={worst_mi[1]}", file=sys.stderr)
    if not ok:
        print("regression failed", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


@cache  # one parser per process; each call of main parses into a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdarwin",
        description="Objectivity diagnostics for system-environment states")
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make", help="construct a state and write the JSON format")
    p_make.add_argument("kind", choices=("sbs", "ghz", "horodecki", "appendix-b1",
                                         "appendix-b2", "haar", "cq", "random-sbs"))
    p_make.add_argument("--p", type=float, default=None, help="mixing parameter")
    p_make.add_argument("--p1", type=float, default=0.5, help="first branch probability")
    p_make.add_argument("--n", type=int, default=None, help="number of subenvironments")
    p_make.add_argument("--dims", default=None, help="factor dims, system first")
    p_make.add_argument("--probs", default="0.5,0.5", help="branch probabilities")
    p_make.add_argument("--overlap", type=float, default=None,
                        help="conditional overlap knob in [0, 1]")
    p_make.add_argument("--subenvs", type=int, default=1, help="subenvironment count")
    p_make.add_argument("--branches", type=int, default=2, help="branch count")
    p_make.add_argument("--max-dim", type=int, default=4,
                        help="subenvironment dimension cap")
    p_make.add_argument("--spec", default=None, help="broadcast spec JSON path")
    _common_flags(p_make, tol_opt=False)

    p_an = sub.add_parser("analyze", help="full objectivity report for one state")
    p_an.add_argument("state", help="state JSON path")
    p_an.add_argument("--system", default=None, help="system label")
    p_an.add_argument("--fragment", default=None,
                      help="comma-separated subenvironment labels")
    p_an.add_argument("--subfragment", action="append", default=None,
                      help="disjoint subfragment (repeatable), comma-separated labels")
    p_an.add_argument("--restarts", type=int, default=DEFAULT_OPT.restarts,
                      help="optimizer restarts for non-qubit subsystems")
    p_an.add_argument("--grid", default=None, metavar="TxP",
                      help="Bloch grid densities, e.g. 64x32")
    p_an.add_argument("--max-refine-iter", type=int, default=DEFAULT_OPT.max_refine_iter,
                      help="iteration cap for the gradient ascent of every restart")
    p_an.add_argument("--format", choices=("json", "csv"), default="json",
                      help="output format")
    _common_flags(p_an)

    p_scan = sub.add_parser("scan", help="fragment-fraction scan and redundancy count")
    p_scan.add_argument("state", help="state JSON path")
    p_scan.add_argument("--system", default=None, help="system label")
    p_scan.add_argument("--delta", type=float, required=True,
                        help="information deficit in (0, 1)")
    p_scan.add_argument("--samples", type=int, default=50,
                        help="fragments sampled per fraction")
    p_scan.add_argument("--strategy", choices=("exhaustive", "greedy"), default=None)
    p_scan.add_argument("--out-csv", default=None, help="scan curve CSV path")
    p_scan.add_argument("--report", default=None, help="redundancy report JSON path")
    _common_flags(p_scan, out=False)

    p_thm = sub.add_parser("verify-theorem",
                           help="randomized check of the equivalence "
                                "broadcast structure == strong Darwinism + independence")
    p_thm.add_argument("--cases", type=int, default=500)
    p_thm.add_argument("--dims-cap", type=int, default=32)
    p_thm.add_argument("--perturbation", type=float, default=1e-2)
    p_thm.add_argument("--report", default=None, help="report JSON path")
    _common_flags(p_thm)

    p_app = sub.add_parser("appendix-c",
                           help="closed-form regression sweep over the two-qubit "
                                "counterexample family")
    p_app.add_argument("--grid-points", type=int, default=99)
    p_app.add_argument("--out-csv", default=None, help="CSV output path")
    p_app.add_argument("--tol-num", type=float, default=EPS_NUM,
                       help="tolerance for closed-form quantities, bits")
    _common_flags(p_app, seed=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code; in-process calls share one parser."""
    args = build_parser().parse_args(argv)
    try:
        _check_bounds(args)
        # the handler is looked up by name at each call; the shared parser binds none
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OptimizerDidNotConverge as exc:
        print(f"optimizer did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except QDarwinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
