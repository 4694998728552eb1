#!/usr/bin/env python3
"""Compare what two qdarwin source trees output on one fixed set of inputs.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC [--quick] [--json PATH]

OLD_SRC and NEW_SRC each name a directory that holds the ``qdarwin`` package, or a
checkout whose ``src`` holds it.  Each tree runs in its own Python subprocess (both at
once), with one BLAS thread, over the same inputs:

* ``verify-theorem --cases 500`` at seed 42, perturbation 1e-2, and at seed 0, 1e-9;
* ``appendix-c --grid-points 99``;
* ``scan`` with both strategies, at delta 0.01 and 0.5, of GHZ N = 5 and 8, of two Haar
  2 x [2]^6 states, and of a rank-2 2 x [2]^6 state with the system in the middle;
* library ``analyze`` on ``make_random_density(s, std_layout(2, dims), rank)``, s < 40,
  for 2 x [2, 3, 2] at rank 3, [4], [2, 2] and [3] at rank 2, and [2] at rank 1;
* library ``analyze`` and ``verify_equivalence`` on 88 states: full-rank
  ``make_random_density`` on 2 x [2], [3], [2, 2] and [2, 2, 2] (s < 20), GHZ 4,
  Horodecki 0.3 and 0.5, cq states, both Appendix-B families and a perturbed broadcast
  state;
* ``analyze``, ``verify_equivalence`` and ``redundancy`` on zoo states with the system
  factor moved to the middle and to the end of the layout.

``--quick`` keeps a small slice of each group.  An output's exit code is 0, or the one
the CLI gives its exception: 3 for ``OptimizerDidNotConverge``, 2 for another
``QDarwinError``, 1 for anything else.  Per output the report compares the exit code,
every boolean (the verdict flags), every ``category``, every ``borderline_reasons`` list,
every other non-float value exactly, and every float as |new - old|, summed up per JSON
key as the largest change and the number of values that moved.  ``lower_bits``,
``gap_bits``, ``iterations`` and ``capped`` move with the rounding of boundary optima of
the basis search, so they are a class of their own.  The exit status is 0 when nothing
but floats moved, else 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict

BOUNDARY_KEYS = ("lower_bits", "gap_bits", "iterations", "capped")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ----------------------------------------------------------------- one tree's outputs

def dump(quick: bool, workdir: str) -> dict:
    """Every output of the input set, by name: {"exit": code, "output": JSON value}."""
    import numpy as np

    import qdarwin as qd
    from qdarwin import cli, zoo
    from qdarwin.errors import OptimizerDidNotConverge, QDarwinError

    out: dict[str, dict] = {}

    def record(name, fn):
        try:
            value, code = fn(), 0
        except OptimizerDidNotConverge as exc:
            value, code = str(exc), 3
        except QDarwinError as exc:
            value, code = str(exc), 2
        except Exception as exc:  # an API the tree lacks, or a bug: the CLI would exit 1
            value, code = f"{type(exc).__name__}: {exc}", 1
        out[name] = {"exit": code, "output": json.loads(json.dumps(value))}

    def run_cli(name, args, report=None, table=None):
        for path in (report, table):
            if path and os.path.exists(path):
                os.remove(path)
        code = cli.main(args)
        value = {}
        if report and os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                value["report"] = json.load(fh)
        if table and os.path.exists(table):
            with open(table, encoding="utf-8") as fh:
                value["csv"] = [{k: _number(v) for k, v in row.items()}
                                for row in csv.DictReader(fh)]
        out[name] = {"exit": code, "output": value}

    def path(name):
        return os.path.join(workdir, name)

    cases = 40 if quick else 500
    for seed, eps in ((42, "1e-2"), (0, "1e-9")):
        run_cli(f"verify-theorem seed {seed} perturbation {eps}",
                ["verify-theorem", "--cases", str(cases), "--seed", str(seed),
                 "--perturbation", eps, "--report", path("thm.json")], report=path("thm.json"))
    run_cli("appendix-c", ["appendix-c", "--grid-points", "11" if quick else "99",
                           "--out-csv", path("appc.csv")], table=path("appc.csv"))

    middle = qd.SubsystemLayout.of(*[(f"E{k}", 2) for k in (1, 2, 3)], ("S", 2),
                                   *[(f"E{k}", 2) for k in (4, 5, 6)], system="S")
    scan_states = {"ghz5": lambda: zoo.make_ghz_reduced(5),
                   "ghz8": lambda: zoo.make_ghz_reduced(8),
                   "haar 2x[2]^6 seed 1": lambda: zoo.make_haar_pure(
                       1, zoo.std_layout(2, [2] * 6)).to_density(),
                   "haar 2x[2]^6 seed 2": lambda: zoo.make_haar_pure(
                       2, zoo.std_layout(2, [2] * 6)).to_density(),
                   "rank-2 [2]^3 x 2 x [2]^3": lambda: zoo.make_random_density(5, middle, 2)}
    for label, make in list(scan_states.items())[:2 if quick else None]:
        qd.save_state(make(), path("state.json"))
        for strategy in ("exhaustive", "greedy"):
            for delta in ("0.01", "0.5"):
                run_cli(f"scan {label} {strategy} delta {delta}",
                        ["scan", path("state.json"), "--strategy", strategy, "--delta", delta,
                         "--seed", "1", "--report", path("red.json"),
                         "--out-csv", path("red.csv")],
                        report=path("red.json"), table=path("red.csv"))

    seeds = range(3 if quick else 40)
    for dims, rank in (([2, 3, 2], 3), ([4], 2), ([2, 2], 2), ([3], 2), ([2], 1)):
        for s in seeds:
            record(f"analyze rank-deficient 2x{dims} rank {rank} seed {s}",
                   lambda: qd.analyze(qd.make_random_density(
                       s, qd.std_layout(2, dims), rank), "S").to_dict())

    states = {f"random 2x{env} seed {s}": (lambda env=env, s=s: qd.make_random_density(
                  s, qd.std_layout(2, env)))
              for env in ([2], [3], [2, 2], [2, 2, 2]) for s in range(2 if quick else 20)}
    states.update({
        "ghz4": lambda: zoo.make_ghz_reduced(4),
        "horodecki 0.3": lambda: zoo.make_horodecki(0.3),
        "horodecki 0.5": lambda: zoo.make_horodecki(0.5),
        "cq halves": lambda: zoo.make_cq_state(0, [0.5, 0.5], 0.0, 2),
        "cq thirds": lambda: zoo.make_cq_state(0, [1 / 3] * 3, 0.0, 2),
        "appendix-b1": lambda: zoo.make_correlated_branches(2, 0.4),
        "appendix-b2": lambda: zoo.make_entangled_branches(2, 0.4),
        "perturbed broadcast": lambda: zoo.perturb_state(
            zoo.make_random_broadcast_state(0, 2, 2, 3), 1e-9, 0)})
    for label, make in states.items():
        record(f"analyze {label}", lambda: qd.analyze(make(), "S").to_dict())
        record(f"verify {label}", lambda: qd.verify_equivalence(make(), "S").to_dict())

    zoo_states = {"ghz4": lambda: zoo.make_ghz_reduced(4),
                  "horodecki 0.3": lambda: zoo.make_horodecki(0.3),
                  "cq thirds 0.1": lambda: zoo.make_cq_state(0, [1 / 3] * 3, 0.1, 2),
                  "random broadcast": lambda: zoo.make_random_broadcast_state(1, 2, 3, 3),
                  "appendix-b1 n=3": lambda: zoo.make_correlated_branches(3, 0.4),
                  "rank-2 2x[2,3]": lambda: qd.make_random_density(3, qd.std_layout(2, [2, 3]), 2)}
    for label, make in list(zoo_states.items())[:2 if quick else None]:
        rho = make()
        env = [l for l in rho.layout.labels if l != "S"]
        for where, order in (("middle", [*env[:len(env) // 2], "S", *env[len(env) // 2:]]),
                             ("last", [*env, "S"])):
            moved = _reordered(qd, np, rho, order)
            name = f"{label} system {where}"
            record(f"analyze {name}", lambda: qd.analyze(moved, "S").to_dict())
            record(f"verify {name}", lambda: qd.verify_equivalence(moved, "S").to_dict())
            record(f"redundancy {name}",
                   lambda: qd.redundancy(moved, "S", 0.1, seed=1).to_dict())
    return out


def _reordered(qd, np, rho, order):
    """``rho`` with its tensor factors in ``order``: the factor's row indices permuted."""
    axes = [rho.layout.labels.index(l) for l in order]
    dims = [rho.layout.dims[i] for i in axes]
    v = rho.factor.reshape(*rho.layout.dims, -1).transpose(*axes, len(axes))
    layout = qd.SubsystemLayout(tuple(order), tuple(dims), "S")
    return qd.validate_factor(v.reshape(rho.factor.shape), layout)


def _number(text: str):
    """A CSV cell as the number it spells, else as itself."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


# ----------------------------------------------------------------- the comparison

def _leaves(value, path=()):
    """(path, leaf) pairs of a JSON value; a list of strings is one leaf."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, (*path, str(k)))
    elif isinstance(value, list) and not all(isinstance(v, str) for v in value):
        for i, v in enumerate(value):
            yield from _leaves(v, (*path, f"[{i}]"))
    else:
        yield path, value


def _key(path) -> str:
    """The JSON key a leaf sits under: its last path part that is not a list index."""
    return next((p for p in reversed(path) if not p.startswith("[")), "")


def diff(old: dict, new: dict) -> dict:
    """Every difference between two dumps, sorted into the report's classes."""
    report = {"outputs": len(old.keys() | new.keys()), "only_old": sorted(old.keys() - new.keys()),
              "only_new": sorted(new.keys() - old.keys()), "exit": [], "verdicts": [],
              "categories": [], "reasons": [], "exact": [], "structure": [],
              "floats": {}, "boundary": {}, "float_values": 0,
              "exit_counts": [dict(Counter(d[k]["exit"] for k in d)) for d in (old, new)]}
    moved: dict[str, dict] = defaultdict(lambda: {"max": 0.0, "moved": 0, "where": ""})
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name], new[name]
        if a["exit"] != b["exit"]:  # one side holds an error message, not an output
            report["exit"].append((name, a["exit"], b["exit"]))
            continue
        la, lb = dict(_leaves(a["output"])), dict(_leaves(b["output"]))
        for path in sorted(la.keys() ^ lb.keys()):
            report["structure"].append((name, "/".join(path)))
        for path in la.keys() & lb.keys():
            x, y, where = la[path], lb[path], f"{name}: {'/'.join(path)}"
            key, numbers = _key(path), all(isinstance(v, (int, float)) for v in (x, y))
            if isinstance(x, bool) or isinstance(y, bool):
                if x != y:
                    report["verdicts"].append((where, x, y))
            elif numbers and key in BOUNDARY_KEYS:
                _moved(moved[f"boundary:{key}"], x, y, where)
            elif numbers and (isinstance(x, float) or isinstance(y, float)):
                report["float_values"] += 1
                _moved(moved[f"floats:{key}"], x, y, where)
            elif x != y:
                cls = ("categories" if key == "category"
                       else "reasons" if key == "borderline_reasons" else "exact")
                report[cls].append((where, x, y))
    for tag, stats in moved.items():
        cls, key = tag.split(":", 1)
        if stats["moved"]:
            report[cls][key] = stats
    return report


def _moved(stats: dict, x: float, y: float, where: str) -> None:
    if x == y or (x != x and y != y):  # equal, or both NaN
        return
    change = abs(y - x) if math.isfinite(x) and math.isfinite(y) else math.inf
    stats["moved"] += 1
    if change >= stats["max"]:
        stats["max"], stats["where"] = change, where


def differs(report: dict) -> bool:
    """True when anything but a float moved."""
    return any(report[k] for k in ("only_old", "only_new", "exit", "verdicts", "categories",
                                   "reasons", "exact", "structure"))


def summary(report: dict) -> str:
    old, new = report["exit_counts"]
    lines = [f"outputs: {report['outputs']}, only in OLD {len(report['only_old'])}, "
             f"only in NEW {len(report['only_new'])}",
             "outputs per exit code (OLD / NEW): " + ", ".join(
                 f"{code}: {old.get(code, 0)} / {new.get(code, 0)}"
                 for code in sorted({*old, *new}, key=int))]
    for cls, title in (("exit", "exit codes"), ("verdicts", "verdict flags"),
                       ("categories", "categories"), ("reasons", "borderline reasons"),
                       ("exact", "other exact values"), ("structure", "keys present on one side"),
                       ("only_old", "outputs only in OLD"), ("only_new", "outputs only in NEW")):
        if cls in ("only_old", "only_new") and not report[cls]:
            continue
        lines.append(f"{title}: {len(report[cls])} changed")
        for item in report[cls][:20]:
            lines.append("  " + (item if isinstance(item, str) else
                                 f"{item[0]}: {' -> '.join(map(repr, item[1:]))}"))
        if len(report[cls]) > 20:
            lines.append(f"  ... {len(report[cls]) - 20} more")
    for cls, title in (("floats", f"floats ({report['float_values']} compared)"),
                       ("boundary", "boundary-optimum keys (" + ", ".join(BOUNDARY_KEYS) + ")")):
        moved = report[cls]
        lines.append(f"{title}: {sum(s['moved'] for s in moved.values())} moved"
                     + (", largest |delta| per key:" if moved else ""))
        for key, s in sorted(moved.items(), key=lambda kv: -kv[1]["max"]):
            lines.append(f"  {key:<28} {s['max']:.3e}  moved {s['moved']:>5}  at {s['where']}")
    lines.append("verdict: " + ("outputs differ beyond floats" if differs(report)
                                else "same exit codes, verdicts and exact values"))
    return "\n".join(lines)


# ----------------------------------------------------------------- driver

def _source(path: str) -> str:
    path = os.path.abspath(path)
    for cand in (path, os.path.join(path, "src")):
        if os.path.isfile(os.path.join(cand, "qdarwin", "__init__.py")):
            return cand
    raise SystemExit(f"no qdarwin package in {path} or {path}/src")


def _start(src: str, quick: bool, workdir: str) -> tuple[subprocess.Popen, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({v: "1" for v in THREAD_VARS}, PYTHONPATH=src)
    target = os.path.join(workdir, "dump.json")
    args = [sys.executable, os.path.abspath(__file__), "--dump", target, *(["--quick"] * quick)]
    return subprocess.Popen(args, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True), target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", help="source tree of the parent")
    parser.add_argument("new", nargs="?", help="source tree of the change")
    parser.add_argument("--quick", action="store_true", help="a small slice of each group")
    parser.add_argument("--json", default=None, help="also write the full report here")
    parser.add_argument("--dump", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:  # inside one tree's subprocess
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(dump(args.quick, os.path.dirname(args.dump)), fh)
        return 0
    if not (args.old and args.new):
        parser.error("need OLD_SRC and NEW_SRC")
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for side, src in (("old", _source(args.old)), ("new", _source(args.new))):
            os.mkdir(os.path.join(tmp, side))
            runs.append((src, *_start(src, args.quick, os.path.join(tmp, side))))
        dumps = []
        for src, proc, target in runs:
            _, err = proc.communicate()
            if proc.returncode != 0:
                raise SystemExit(f"the run of {src} failed:\n{err}")
            with open(target, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
    report = diff(*dumps)
    print(f"OLD {runs[0][0]}\nNEW {runs[1][0]}\n{summary(report)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 1 if differs(report) else 0


if __name__ == "__main__":
    sys.exit(main())
