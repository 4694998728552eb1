"""Result sets of many benchmark runs, parent/change pairs, and their comparison.

    python3 perfbench/suite.py run --out results.json [--seeds 1,2] [--workloads W,..] [--trace]
    python3 perfbench/suite.py pair --parent DIR --change DIR --out-parent A.json --out-change B.json
    python3 perfbench/suite.py compare A.json B.json
    python3 perfbench/suite.py reference

``run`` runs ``perfbench/run.py`` once per workload and seed in a checkout
(``--checkout``, default this one) and saves every record, with the
environment, to one result set.  ``pair`` does the same for two checkouts
with this directory's benchmark code, alternating which side runs first.
``compare`` prints, for each workload and metric, each side's median and
quartiles, the change, the benchmark's bound, how many seed pairs the change
won, and a verdict: ``regression`` when the change's median is worse than the
parent's by more than the bound, ``unresolved`` when either side's spread
(quartile distance over median) is wider than the bound and the change does
not beat the parent on every run.  It refuses result sets whose runs differ
in length.  ``run``, ``pair`` and ``compare`` also check that traced runs of
the same workload and seed have identical per-layer counts, and fail when
they do not.  Every run lasts ``run_seconds`` of ``BENCHMARK.json``.
``reference`` re-records, from this checkout's program, the outputs the
checks compare against.

``BASELINE_SEEDS`` are the seeds for development runs.  ``HELD_OUT_SEEDS``
are kept out of them: a claimed gain is confirmed on them after the change is
written (``--held-out``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from run import HERE, ROUND_S, child_env

BASELINE_SEEDS = tuple(range(1, 11))
HELD_OUT_SEEDS = (1001, 1002, 1003, 1004, 1005)
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
REPO = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_one(checkout: str, workload: str, seed: int, trace: bool) -> dict:
    seconds = load_spec()["run_seconds"]
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        record_path = tmp.name
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(int(trace)), "--record", record_path],
                       cwd=checkout, check=True, timeout=900)
        with open(record_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(record_path)


def save(path: str, runs: list[dict]) -> None:
    spec = load_spec()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"run_seconds": spec["run_seconds"], "end_to_end": spec["end_to_end"],
                   "runs": runs}, fh, indent=1)
        fh.write("\n")


def _seeds(args) -> list[int]:
    if args.held_out:
        return list(HELD_OUT_SEEDS)
    if args.seeds:
        return [int(s) for s in args.seeds.split(",")]
    return list(BASELINE_SEEDS)


def _workloads(args) -> list[str]:
    return args.workloads.split(",") if args.workloads else [w["name"] for w in load_spec()["workloads"]]


def count_mismatches(runs: list[dict]) -> list[str]:
    """Per-layer counts that differ between traced runs of one workload and seed."""
    first: dict[tuple[str, int], dict] = {}
    problems = []
    for r in runs:
        if not r["trace"]:
            continue
        counts = {k: v for k, v in r["extras"]["per_layer_all"].items()
                  if not k.endswith("_s") and k != "trace.overhead_frac"}
        seen = first.setdefault((r["workload"], r["seed"]), counts)
        problems += [f"{r['workload']} seed {r['seed']}: {k} is {counts.get(k)}, "
                     f"was {seen.get(k)}" for k in sorted(set(seen) | set(counts))
                     if seen.get(k) != counts.get(k)]
    return problems


def _report_counts(runs: list[dict], label: str) -> bool:
    problems = count_mismatches(runs)
    for problem in problems:
        print(f"{label}: traced counts differ: {problem}", file=sys.stderr)
    return not problems


def cmd_run(args) -> int:
    runs = [run_one(os.path.abspath(args.checkout), w, s, args.trace)
            for s in _seeds(args) for w in _workloads(args)]
    save(args.out, runs)
    return 0 if _report_counts(runs, args.out) else 1


def cmd_pair(args) -> int:
    sides = {"parent": [], "change": []}
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    k = 0
    for seed in _seeds(args):
        for workload in _workloads(args):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side].append(run_one(checkouts[side], workload, seed, args.trace))
            k += 1
    save(args.out_parent, sides["parent"])
    save(args.out_change, sides["change"])
    ok = [_report_counts(sides[side], side) for side in sides]
    return 0 if all(ok) else 1


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_rows(a: dict, b: dict) -> list[dict]:
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    rows = []
    workloads = sorted({r["workload"] for r in a["runs"] + b["runs"]})
    for workload in workloads:
        ra = {r["seed"]: r for r in a["runs"] if r["workload"] == workload and not r["trace"]}
        rb = {r["seed"]: r for r in b["runs"] if r["workload"] == workload and not r["trace"]}
        if not ra or not rb:
            continue
        for name, m in spec.items():
            va = [r["metrics"][name] for r in ra.values()]
            vb = [r["metrics"][name] for r in rb.values()]
            qa, qb = _quartiles(va), _quartiles(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            paired = sorted(set(ra) & set(rb))
            wins = sum(sign * (rb[s]["metrics"][name] - ra[s]["metrics"][name]) < 0
                       for s in paired)
            always_better = max(sign * v for v in vb) < min(sign * v for v in va)
            if spread > m["bound"] and not always_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                         "a": qa, "b": qb, "worse": worse, "bound": m["bound"],
                         "spread": spread, "wins": wins, "pairs": len(paired),
                         "verdict": verdict})
    return rows


def cmd_compare(args) -> int:
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    lengths = {r["seconds"] for r in a["runs"] + b["runs"]}
    if len(lengths) != 1:
        print(f"error: runs of different lengths ({sorted(lengths)} s) cannot be compared",
              file=sys.stderr)
        return 2
    counts_ok = _report_counts(a["runs"], args.a) & _report_counts(b["runs"], args.b)
    rows = compare_rows(a, b)
    print(f"{'workload':<14} {'metric':<13} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'worse':>7} {'bound':>6} {'spread':>7} "
          f"{'wins':>6}  verdict")
    for r in rows:
        fa = f"{r['a'][1]:.4g} [{r['a'][0]:.4g}, {r['a'][2]:.4g}]"
        fb = f"{r['b'][1]:.4g} [{r['b'][0]:.4g}, {r['b'][2]:.4g}]"
        print(f"{r['workload']:<14} {r['metric']:<13} {fa:<32} {fb:<32} "
              f"{r['worse']:>+7.1%} {r['bound']:>6.0%} {r['spread']:>7.1%} "
              f"{r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")
    return 1 if not counts_ok or any(r["verdict"] == "regression" for r in rows) else 0


def cmd_reference(args) -> int:
    """Record this checkout's outputs for every distinct input of the recorded seeds."""
    spec = load_spec()
    env = child_env(REPO)
    for workload in _workloads(args):
        rounds = max(1, int(spec["run_seconds"] // ROUND_S[workload]))
        merged: dict = {}
        for seed in [*BASELINE_SEEDS, *HELD_OUT_SEEDS]:
            workdir = os.path.join(REPO, ".bench_work", f"reference-{workload}-{seed}")
            out = os.path.join(workdir, "reference.json")
            common = ["--workload", workload, "--seed", str(seed), "--dir", workdir,
                      "--rounds", str(rounds)]
            try:
                for mode in ("setup", "reference"):
                    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), mode,
                                    *common, *(["--out", out] if mode == "reference" else [])],
                                   cwd=REPO, env=env, check=True, timeout=1800)
                with open(out, encoding="utf-8") as fh:
                    merged.update(json.load(fh))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        with open(os.path.join(HERE, "reference", f"{workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(merged)} recorded outputs")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qdarwin benchmark result sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def runs_flags(p):
        p.add_argument("--seeds", default=None, help="comma-separated seeds")
        p.add_argument("--held-out", action="store_true", help="use the held-out seeds")
        p.add_argument("--workloads", default=None, help="comma-separated workloads")
        p.add_argument("--trace", action="store_true", help="traced runs (per-layer)")

    p_run = sub.add_parser("run", help="run every workload and seed, save a result set")
    runs_flags(p_run)
    p_run.add_argument("--checkout", default=REPO, help="checkout whose program is measured")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_pair = sub.add_parser("pair", help="alternate runs of two checkouts")
    runs_flags(p_pair)
    p_pair.add_argument("--parent", required=True)
    p_pair.add_argument("--change", required=True)
    p_pair.add_argument("--out-parent", required=True)
    p_pair.add_argument("--out-change", required=True)
    p_pair.set_defaults(func=cmd_pair)

    p_cmp = sub.add_parser("compare", help="compare two result sets")
    p_cmp.add_argument("a", help="parent result set")
    p_cmp.add_argument("b", help="change result set")
    p_cmp.set_defaults(func=cmd_compare)

    p_ref = sub.add_parser("reference", help="re-record the outputs the checks compare to")
    p_ref.add_argument("--workloads", default=None)
    p_ref.set_defaults(func=cmd_reference)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
