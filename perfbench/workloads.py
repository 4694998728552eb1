"""Inputs, measuring loops and output checks of the three workloads.

Runs as a child process of ``run.py``, with ``src`` on ``PYTHONPATH`` and the
BLAS thread count already fixed in the environment::

    python3 perfbench/workloads.py setup     --workload W --seed S --dir D --rounds R [--trace]
    python3 perfbench/workloads.py measure   --workload W --seed S --dir D --rounds R
                                             [--first-round F] [--trace] [--out PATH]
    python3 perfbench/workloads.py reference --workload W --seed S --dir D --rounds R

``setup`` generates the seed's states and writes them as state files plus a
``manifest.json``; the program only ever sees those files (or, for
``theorem_batch``, the states loaded back from them).  ``measure`` runs
``R`` rounds from round ``F`` on (or, with ``--trace``, ``R`` pairs of one
untraced and one traced pass over round 0) and writes ``PATH`` (by default
``measure.json`` in ``D``).  Every round of a workload runs the same inputs
(``analyze_mix`` adds its d = 4 fragment to round 0 only), so every input is
measured many times over the whole run, but never as the same objects:
``theorem_batch`` hands every call a fresh deep copy of its loaded state
(made just before the call, outside the timer), and ``analyze``/``scan`` read their state file on
every call.  A cache kept on a state object therefore
cannot carry over from one round to the next.  ``reference`` runs every
distinct input once and writes what the checks compare against.

Why these workloads:

* ``theorem_batch`` -- ``verify_equivalence`` on the 500-case
  ``zoo.theorem_suite`` mix, as ``verify-theorem`` does.  Thousands of small
  dense reductions: per-call overhead in ``core`` and ``measures``; the
  optimizer never runs.
* ``analyze_mix`` -- in-process ``qdarwin analyze`` on random states.  Mostly
  qubit fragments (Bloch grid plus Nelder-Mead; sixteen states, twice per
  round), which set the median, plus one d = 3 (2x[3]) fragment per round and
  one d = 4 (2x[2,2]) fragment per run, which set throughput and the tail.
  The measurement-basis optimizer is nearly all of the time.
* ``fragment_scan`` -- in-process ``qdarwin scan`` with exhaustive
  redundancy on a GHZ N = 8 file (dim 512, 3 MB of JSON), once per round,
  and eight Haar pure N = 6 files (dim 128), twice per round.  The same
  ``core``/``measures`` functions as ``theorem_batch`` on a few large
  matrices; the GHZ inputs set the tail,
  memory and ``load_state`` cost, the Haar inputs the median.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import qdarwin
from qdarwin import cli, objectivity, zoo

import oracle
from tracer import Tracer, aggregate

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

THEOREM_CASES = 500
ANALYZE_QUBITS = 8           # per qubit layout
# The optimizer's cost on a random d = 4 fragment varies 2x from state to
# state (3.6 to 7.8 s on the states tried), and the d >= 3 fragments are most
# of a round's time, so throughput would follow the seed more than any bound
# allows.  The d >= 3 fragments are therefore the same states for every seed;
# only the qubit fragments follow the seed.
QUDIT_SEED = 0
GHZ_N = 8
HAAR_N = 6
# Eight Haar files, drawn as two sets of four (the keys the recorded outputs
# use), all scanned before and again after the GHZ file in every round, so
# that each input's best time is taken over 22 calls in a run.
HAAR_SETS = 2
HAAR_PER_SET = 4
SCAN_DELTA = "0.01"
EPS_OPT = 1e-6               # the CLI's default --tol-opt
VALUE_TOL = 1e-9
GHZ_TOL = 1e-6


def _state_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _dims_key(dims) -> str:
    return "x".join(str(d) for d in dims)


# ---------------------------------------------------------------- setup

def setup_theorem(seed: int, rounds: int, workdir: str) -> dict:
    cases = []
    for index, family, rho in zoo.theorem_suite(seed, THEOREM_CASES):
        path = os.path.join(workdir, f"case{index:04d}.json")
        qdarwin.save_state(rho, path)
        cases.append({"file": path, "key": str(index), "kind": family})
    return {"rounds": [cases]}


def setup_analyze(seed: int, rounds: int, workdir: str) -> dict:
    shapes = [(2, 2, 2)] + [(2, 2)] * ANALYZE_QUBITS + [(3, 2)] * ANALYZE_QUBITS + [(2, 3)]
    entries = []
    for i, dims in enumerate(shapes):
        qudit = math.prod(dims[1:]) > 2
        state_seed = _state_seed(QUDIT_SEED if qudit else seed, 0, i)
        rho = zoo.make_random_density(state_seed, zoo.std_layout(dims[0], dims[1:]))
        path = os.path.join(workdir, f"a{i:02d}.json")
        qdarwin.save_state(rho, path)
        entries.append({"file": path, "key": f"{_dims_key(dims)}:{state_seed}",
                        "kind": _dims_key(dims)})
    # Every round runs each qubit fragment twice with the d = 3 fragment
    # between; round 0 also runs the d = 4 fragment first.  A run of R rounds
    # so has R + 1 samples above the qubit ones, and at 10 rounds the tail
    # (the sample ranked eleventh from the top of the run's latencies) is the
    # d = 3 fragment's best call of ten spread over the run, as the median is
    # set by the qubit fragments' best times over twenty calls.  A d = 3 call
    # lasts over a second, too long to dodge the host's slow spells, so any
    # higher rank among its calls would follow them.
    d4, qubits, qutrit = entries[0], entries[1:-1], entries[-1]
    return {"rounds": [[*([d4] if r == 0 else []), *qubits, qutrit, *qubits]
                       for r in range(rounds)]}


def setup_scan(seed: int, rounds: int, workdir: str) -> dict:
    ghz = os.path.join(workdir, "ghz.json")
    qdarwin.save_state(zoo.make_ghz_reduced(GHZ_N), ghz)
    layout = zoo.std_layout(2, [2] * HAAR_N)
    haar = []
    for r in range(HAAR_SETS):
        for i in range(HAAR_PER_SET):
            state_seed = _state_seed(seed, r, i)
            path = os.path.join(workdir, f"haar{r:02d}_{i}.json")
            qdarwin.save_state(zoo.make_haar_pure(state_seed, layout).to_density(), path)
            haar.append({"file": path, "key": f"haar{HAAR_N}:{state_seed}", "kind": "haar"})
    return {"rounds": [[*haar, {"file": ghz, "key": f"ghz{GHZ_N}", "kind": "ghz"}, *haar]]}


# ---------------------------------------------------------------- one input

class TheoremRunner:
    def __init__(self, manifest: dict):
        self.loaded = {e["key"]: qdarwin.load_state(e["file"])
                       for e in manifest["rounds"][0]}
        self.state = None

    def prepare(self, entry: dict) -> None:
        """A fresh copy of the entry's state, never handed to the program before.

        Copied just before the call, as a caller holds a state it has just
        built or loaded; copying the whole suite at once would instead evict
        every state from the caches before its call."""
        self.state = copy.deepcopy(self.loaded[entry["key"]])

    def __call__(self, entry: dict, workdir: str) -> dict:
        witness = objectivity.verify_equivalence(self.state, "S")
        if not witness.consistent and not witness.borderline:
            return {"category": "fail"}
        return {"category": "borderline" if witness.borderline else "pass"}


def run_analyze(entry: dict, workdir: str) -> dict:
    out = os.path.join(workdir, "report.json")
    rc = cli.main(["analyze", entry["file"], "-o", out])
    if rc != 0:
        return {"rc": rc}
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    sqd, sbs = report["strong_darwinism"], report["broadcast_structure"]
    acc, ind = report["accessible_information"], report["strong_independence"]
    return {
        "rc": rc,
        "H_S": sqd["system_entropy_bits"], "I": sqd["mutual_information_bits"],
        "chi": sqd["holevo_bits"], "discord": sqd["discord_bits"],
        "m_sqd": report["m_sqd"], "eta": report["eta"],
        "sqd_holds": sqd["holds"], "sbs_holds": sbs["holds"],
        "sbs_bipartite_holds": sbs["bipartite_holds"],
        "independence_holds": None if ind is None else ind["holds"],
        "acc_lower": acc["lower_bits"], "acc_upper": acc["upper_bits"],
        "acc_exact": acc["exact"], "acc_lower_optimized": acc["lower_optimized"],
    }


def run_scan(entry: dict, workdir: str) -> dict:
    report_path = os.path.join(workdir, "scan.json")
    rc = cli.main(["scan", entry["file"], "--delta", SCAN_DELTA, "--seed", "1",
                   "--strategy", "exhaustive",
                   "--out-csv", os.path.join(workdir, "scan.csv"),
                   "--report", report_path])
    if rc != 0:
        return {"rc": rc}
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    return {"rc": rc, "r_delta": report["r_delta"],
            "f_delta_min": report["f_delta_min"], "scan_curve": report["scan_curve"]}


# ---------------------------------------------------------------- checks

def _close(name: str, got, want, tol: float) -> list[str]:
    if got is None or want is None or abs(got - want) > tol:
        return [f"{name} {got!r} differs from {want!r} by more than {tol:g}"]
    return []


class Checker:
    """Output checks; each returns the list of problems found for one output."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = {}
        path = os.path.join(REFERENCE_DIR, f"{workload}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.reference = json.load(fh)
        self._oracle: dict[str, object] = {}
        self.categories: dict[str, str] = {}

    def _oracle_for(self, entry: dict, compute):
        if entry["key"] not in self._oracle:
            rho = qdarwin.load_state(entry["file"])
            self._oracle[entry["key"]] = compute(rho.matrix, tuple(rho.layout.dims))
        return self._oracle[entry["key"]]

    def theorem_batch(self, entry: dict, out: dict) -> list[str]:
        problems = []
        if out["category"] == "fail":
            problems.append(f"case {entry['key']} ({entry['kind']}) is inconsistent")
        first = self.categories.setdefault(entry["key"], out["category"])
        if first != out["category"]:
            problems.append(f"case {entry['key']} changed category between rounds")
        return problems

    def analyze_mix(self, entry: dict, out: dict) -> list[str]:
        if out["rc"] != 0:
            return [f"analyze exited {out['rc']}"]
        want = self._oracle_for(entry, oracle.analyze_values)
        problems = []
        if want["pointer_gap"] > 1e-6:
            for f in ("H_S", "I", "chi", "discord", "m_sqd", "eta"):
                problems += _close(f, out[f], want[f], VALUE_TOL)
            for f in ("sqd_holds", "sbs_holds", "sbs_bipartite_holds",
                      "independence_holds"):
                if want[f] is not None and out[f] != want[f]:
                    problems.append(f"{f} is {out[f]}, expected {want[f]}")
            problems += _close("acc_upper", out["acc_upper"], want["chi"], VALUE_TOL)
        if not -1e-12 <= out["acc_lower"] <= out["acc_upper"] + EPS_OPT:
            problems.append(f"accessible-information bracket {out['acc_lower']!r} "
                            f"> {out['acc_upper']!r}")
        ref = self.reference.get(entry["key"])
        if ref is not None:
            for f in ("H_S", "I", "chi", "discord", "m_sqd", "eta", "acc_upper"):
                problems += _close(f"{f} (recorded)", out[f], ref[f], VALUE_TOL)
            problems += _close("acc_lower (recorded)", out["acc_lower"],
                               ref["acc_lower"], EPS_OPT)
            for f in ("sqd_holds", "sbs_holds", "sbs_bipartite_holds",
                      "independence_holds", "acc_exact", "acc_lower_optimized"):
                if out[f] != ref[f]:
                    problems.append(f"{f} is {out[f]}, recorded {ref[f]}")
        return [f"{entry['key']}: {p}" for p in problems]

    def fragment_scan(self, entry: dict, out: dict) -> list[str]:
        if out["rc"] != 0:
            return [f"scan exited {out['rc']}"]
        problems = []
        if entry["kind"] == "ghz":
            if out["r_delta"] != GHZ_N:
                problems.append(f"GHZ R_delta {out['r_delta']} != {GHZ_N}")
            for pt in out["scan_curve"]:
                problems += _close(f"GHZ chi at fraction {pt['fraction']:.3f}",
                                   pt["mean_chi_bits"], 1.0, GHZ_TOL)
            if len(out["scan_curve"]) != GHZ_N:
                problems.append(f"GHZ scan has {len(out['scan_curve'])} points")
        else:
            want = self._oracle_for(entry, oracle.scan_curve)
            problems += self._compare_curve(out["scan_curve"], want, "oracle")
            ref = self.reference.get(entry["key"])
            if ref is not None:
                problems += self._compare_curve(out["scan_curve"], ref["scan_curve"],
                                                "recorded")
                if out["r_delta"] != ref["r_delta"]:
                    problems.append(f"R_delta {out['r_delta']} != recorded {ref['r_delta']}")
        return [f"{entry['key']}: {p}" for p in problems]

    @staticmethod
    def _compare_curve(got: list[dict], want: list[dict], source: str) -> list[str]:
        if len(got) != len(want):
            return [f"scan curve has {len(got)} points, {source} {len(want)}"]
        problems = []
        for g, w in zip(got, want):
            if g["n_samples"] != w["n_samples"]:
                problems.append(f"n_samples {g['n_samples']} != {source} {w['n_samples']}")
            for f in ("fraction", "mean_chi_bits", "mean_discord_bits", "mean_I_bits"):
                problems += _close(f"{f} at {w['fraction']:.3f} ({source})",
                                   g[f], w[f], VALUE_TOL)
        return problems

    def summary(self) -> tuple[dict, list[str]]:
        """Per-run extras, and problems that belong to the run rather than one input."""
        if self.workload != "theorem_batch":
            return {}, []
        counts = {"pass": 0, "borderline": 0, "fail": 0}
        for category in self.categories.values():
            counts[category] += 1
        problems = []
        ref = self.reference.get(str(self.seed))
        if ref is not None and ref != counts:
            problems.append(f"theorem counts {counts} differ from recorded {ref}")
        return {"theorem_counts": counts}, problems


# ---------------------------------------------------------------- measuring

SETUP = {"theorem_batch": setup_theorem, "analyze_mix": setup_analyze,
         "fragment_scan": setup_scan}


def _runner(workload: str, manifest: dict):
    if workload == "theorem_batch":
        return TheoremRunner(manifest)
    return run_analyze if workload == "analyze_mix" else run_scan


def _call(runner, entry: dict, workdir: str) -> dict:
    """One untimed call, its input prepared first."""
    if hasattr(runner, "prepare"):
        runner.prepare(entry)
    return runner(entry, workdir)


def _run_pass(entries, runner, workdir, tracer, first_id, outputs, latencies):
    """Wall time of one pass over ``entries``, less the time spent preparing inputs."""
    prepare = getattr(runner, "prepare", None)
    clock = time.perf_counter
    start = clock()
    preparing = 0.0
    for offset, entry in enumerate(entries):
        if tracer is not None:
            tracer.input_id = first_id + offset
        if prepare is not None:
            p0 = clock()
            prepare(entry)
            preparing += clock() - p0
        t0 = clock()
        try:
            out = runner(entry, workdir)
        except Exception as exc:  # any raise is a failed input, and the run goes on
            out = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - t0)
        outputs.append((entry, out))
    return clock() - start - preparing


def _warm_up(workload, entries, runner, workdir):
    """Run the first inputs once so lazy imports and first-call set-up are done."""
    warm = entries[:8] if workload == "theorem_batch" else \
        [next(e for e in entries if e["kind"] in ("2x2", "haar"))]
    for entry in warm:
        _call(runner, entry, workdir)


def measure(workload: str, seed: int, workdir: str, rounds: int, trace: bool,
            first_round: int = 0) -> dict:
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    runner = _runner(workload, manifest)
    distinct = manifest["rounds"]
    _warm_up(workload, distinct[0], runner, workdir)
    outputs: list[tuple[dict, dict]] = []
    latencies: list[float] = []
    result: dict = {}
    run_problems = []
    if not trace:
        result["rounds"] = []
        for r in range(first_round, first_round + rounds):
            entries = distinct[r % len(distinct)]
            first = len(latencies)
            wall = _run_pass(entries, runner, workdir, None, 0, outputs, latencies)
            result["rounds"].append({"wall_s": wall, "latencies": latencies[first:],
                                     "keys": [entry["key"] for entry in entries],
                                     "kinds": [entry["kind"] for entry in entries]})
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        tracer = Tracer()
        entries = distinct[0]
        plain, traced, layers = [], [], []
        for p in range(rounds):
            plain.append(_run_pass(entries, runner, workdir, None, 0, outputs, latencies))
            tracer.install()
            since = tracer.mark()
            try:
                traced.append(_run_pass(entries, runner, workdir, tracer,
                                        p * len(entries), outputs, latencies))
            finally:
                tracer.uninstall()
            layers.append(aggregate(tracer, since))
        tracer.write(os.path.join(workdir, "spans.npz"))
        per_layer = {}
        for name in layers[0]:
            values = [layer.get(name, 0) for layer in layers]
            per_layer[name] = values[0] if name.endswith(".calls") or \
                not name.endswith("_s") else statistics.median(values)
        per_layer["core.partial_trace.calls_per_input"] = \
            per_layer.get("core.partial_trace.calls", 0) / len(entries)
        per_layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        per_layer["trace.inputs_per_pass"] = len(entries)
        result["per_layer"] = per_layer
        counts = [{k: v for k, v in layer.items() if not k.endswith("_s")} for layer in layers]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        if not result["counts_repeat"]:
            run_problems.append("per-layer counts differ between traced passes")

    result["env"] = environment()
    result["traced_functions"] = Tracer.traceable()
    checker = Checker(workload, seed)
    check = getattr(checker, workload)
    failures = []
    failed = 0
    for entry, out in outputs:
        problems = [out["error"]] if "error" in out else check(entry, out)
        if problems:
            failed += 1
            failures.extend(problems)
    extras, summary_problems = checker.summary()
    run_problems += summary_problems
    result.update(extras)
    result["attempted"] = len(outputs)
    result["failed"] = failed
    result["failures"] = (failures + run_problems)[:50]
    result["correct"] = failed == 0 and not run_problems
    return result


def environment() -> dict:
    """Library versions and the BLAS thread count actually in effect."""
    import ctypes
    import glob
    import platform

    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        cdll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(cdll, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def reference(workload: str, seed: int, workdir: str) -> dict:
    """Outputs of every distinct input, keyed as the checks look them up."""
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    runner = _runner(workload, manifest)
    out = {}
    for entries in manifest["rounds"]:
        for entry in entries:
            if entry.get("kind") == "ghz" or entry["key"] in out:
                continue
            out[entry["key"]] = _call(runner, entry, workdir)
    if workload == "theorem_batch":
        counts = {"pass": 0, "borderline": 0, "fail": 0}
        for value in out.values():
            counts[value["category"]] += 1
        return {str(seed): counts}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "reference"))
    parser.add_argument("--workload", required=True, choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--first-round", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
            since = tracer.mark()
        os.makedirs(args.dir, exist_ok=True)
        manifest = SETUP[args.workload](args.seed, args.rounds, args.dir)
        with open(os.path.join(args.dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        if tracer is not None:
            tracer.uninstall()
            with open(os.path.join(args.dir, "setup_trace.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(aggregate(tracer, since), fh)
        return 0
    if args.mode == "measure":
        result = measure(args.workload, args.seed, args.dir, args.rounds, args.trace,
                         args.first_round)
        path = args.out or os.path.join(args.dir, "measure.json")
    else:
        result = reference(args.workload, args.seed, args.dir)
        path = args.out
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
