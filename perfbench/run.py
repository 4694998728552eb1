"""qdarwin benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload theorem_batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program measured is the one under
``src/qdarwin`` there.  The workloads and why each exists are described in
``perfbench/workloads.py``; the metrics and their bounds are in the
``BENCHMARK.json`` next to this directory.

One run:

1. sets up three times, each in a fresh child process (import, state
   generation, writing the state files), and reports the median wall time as
   ``setup_s``;
2. measures a fixed number of rounds of the workload's inputs --
   ``--seconds`` over the workload's ``ROUND_S`` -- so the work per seed does
   not depend on machine speed, split over ``MEASURE_PROCESSES`` child
   processes run one after the other, each with one BLAS thread;
3. checks every output and prints each metric by name with its unit, then as
   its last line ``{"correct", "attempted", "failed", "metrics"}``.

Every round repeats the same inputs, as fresh objects (see
``workloads.py``).  On a shared virtual machine (the baseline comes from a
2-core one) other tenants slow calls down by up to 1.6x, in spells of a few
seconds, and never speed them up; and now and then a whole process runs 20
to 35% slower than the next one started with the same inputs.  So the
timings keep the fastest measurements of a run, as ``timeit`` takes the best
of its repeats; every input but the d = 4 fragment of ``analyze_mix`` runs at
least ten times, spread over the run; and the rounds are split over several
processes, as ``pyperf`` spawns several workers:

* ``inputs_per_s`` is the fastest round's inputs over its wall time;
* ``input_s_p50`` is the median, over the run's distinct inputs, of each
  input's best time;
* ``input_s_tail`` is the sample ranked eleventh from the top (its
  percentile and sample count are printed with it).  On ``theorem_batch``
  the samples are the 500 distinct cases' best times.  The slow inputs of
  ``analyze_mix`` and ``fragment_scan`` are one state each, run once per
  round (the d = 3 fragment, the GHZ file), so there the samples are every
  latency the run measured; at 30 s a run has exactly ten samples above the
  slow input's best call (its other calls, and on ``analyze_mix`` the d = 4
  fragment in place of one of them), so the tail is that best call.

Because no round hands the program an object an earlier round used, a cache
kept on a state object cannot make later rounds cheaper than the first; only
a cache keyed on a state's contents across calls could, and the record keeps
every round's wall time (``round_walls_s``) to show it.  ``peak_rss_mb`` is
the largest peak resident set of the measuring processes.  ``failed_frac``
(printed, and the ``failed``/``attempted`` fields) counts inputs that raised,
exited nonzero or failed the output check.

With ``--trace 1`` the child instead alternates untraced and traced passes
over round 0 (at least two of each) and reports the per-layer metrics of
``BENCHMARK.json``, with ``trace.overhead_frac`` the traced pass's wall time
over the untraced one, minus one.  Counts that differ between the traced
passes make the run incorrect.  Spans are saved to
``.bench_out/<workload>-<seed>-spans.npz``.

``--record PATH`` also writes the full record (environment, tail percentile,
sample counts, check results) that ``perfbench/suite.py`` collects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Seconds of --seconds given to one round; a run does ``seconds // ROUND_S``
# rounds, so the work per seed does not depend on machine speed.  With one
# BLAS thread on a 2-core x86-64 box (OpenBLAS 0.3.31, numpy 2.4, scipy 1.17)
# a round takes 1.0 to 1.5 s on theorem_batch, 2.4 to 4.7 s on analyze_mix
# (round 0, with the d = 4 fragment, 6 to 10 s) and 1.7 to 2.6 s on
# fragment_scan, depending on the box's fast and slow spells.  At 30 s a run
# does 14, 10 and 11 rounds: eleven calls of the slow input on analyze_mix and
# fragment_scan (see ``TAIL_BEYOND``), and a run with its set-ups lasts about
# 25, 40 and 30 s, so that the 70 runs of a benchmark check fit its hour.
# Never reported.
ROUND_S = {"theorem_batch": 2.1, "analyze_mix": 3.0, "fragment_scan": 2.7}
# Seconds of --seconds given to one untraced plus one traced pass over round 0
# in a traced run; at least two pairs run.
TRACE_PAIR_S = {"theorem_batch": 3.7, "analyze_mix": 15.0, "fragment_scan": 5.5}
SETUP_REPEATS = 3
MEASURE_PROCESSES = 3
BLAS_THREADS = "1"
TAIL_BEYOND = 10
# Whether the tail is taken over the distinct inputs' best times (else over
# every latency measured).
TAIL_OVER_DISTINCT = {"theorem_batch": True, "analyze_mix": False, "fragment_scan": False}
DEADLINE_S = 170             # a run must end within 180 s


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args: list[str], root: str, deadline: float) -> float:
    """Run ``workloads.py`` with ``args``; returns its wall time, raises on failure
    or when it is still running at ``deadline`` (a ``perf_counter`` time)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), *args],
                   cwd=root, env=child_env(root), check=True,
                   timeout=max(1.0, deadline - start), stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def split_rounds(rounds: int, parts: int) -> list[tuple[int, int]]:
    """``(first round, round count)`` of each measuring process, in order."""
    parts = min(parts, rounds)
    base, extra = divmod(rounds, parts)
    out, first = [], 0
    for i in range(parts):
        count = base + (i < extra)
        out.append((first, count))
        first += count
    return out


def merge_measures(parts: list[dict]) -> dict:
    """One result from the measuring processes of a run, in their order."""
    merged = dict(parts[0])
    merged["rounds"] = [r for part in parts for r in part["rounds"]]
    merged["rss_kb"] = max(part["rss_kb"] for part in parts)
    merged["attempted"] = sum(part["attempted"] for part in parts)
    merged["failed"] = sum(part["failed"] for part in parts)
    failures = [f for part in parts for f in part["failures"]]
    counts_agree = all(part.get("theorem_counts") == merged.get("theorem_counts")
                       for part in parts)
    if not counts_agree:
        failures.append("theorem counts differ between measuring processes")
    merged["failures"] = failures[:50]
    merged["correct"] = counts_agree and all(part["correct"] for part in parts)
    return merged


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency ranked ``TAIL_BEYOND + 1`` from the top, its percentile, n."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def git_sha(root: str) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def per_layer_value(name: str, layers: dict, traced: set[str]) -> float:
    """A declared per-layer metric; counts of functions never called are 0."""
    if name in layers:
        return layers[name]
    if name.endswith(".calls") and name[:-len(".calls")] in traced \
            or name.startswith(("optimize.evals.", "optimize.batch_rows.")):
        return 0
    raise KeyError(f"per-layer metric {name!r} was not measured")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qdarwin benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="write the full record here")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qdarwin", "__init__.py")):
        print(f"error: {root} holds no src/qdarwin; run from the root of a qdarwin "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    deadline = time.perf_counter() + DEADLINE_S
    if args.trace:
        rounds = max(2, int(args.seconds // TRACE_PAIR_S[args.workload]))
    else:
        rounds = max(1, int(args.seconds // ROUND_S[args.workload]))
    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", workdir]
    try:
        if args.trace:
            run_child(["setup", *common, "--rounds", "1", "--trace"], root, deadline)
            setups = []
        else:
            setups = [run_child(["setup", *common, "--rounds", str(rounds)], root, deadline)
                      for _ in range(SETUP_REPEATS)]
        parts = []
        for first, count in ([(0, rounds)] if args.trace
                             else split_rounds(rounds, MEASURE_PROCESSES)):
            out = os.path.join(workdir, f"measure-{first}.json")
            run_child(["measure", *common, "--rounds", str(count), "--first-round", str(first),
                       "--out", out, *(["--trace"] if args.trace else [])], root, deadline)
            with open(out, encoding="utf-8") as fh:
                parts.append(json.load(fh))
        result = parts[0] if args.trace else merge_measures(parts)
        if args.trace:
            with open(os.path.join(workdir, "setup_trace.json"), encoding="utf-8") as fh:
                setup_layers = json.load(fh)
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            shutil.move(os.path.join(workdir, "spans.npz"),
                        os.path.join(out_dir, f"{args.workload}-{args.seed}-spans.npz"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    extras = {"rounds": rounds, "failed_frac": failed / attempted}
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"inputs {attempted}  blas threads {result['env']['blas_threads']}")
    if not args.trace:
        done = result["rounds"]
        best: dict[str, float] = {}
        kinds: dict[str, str] = {}
        for r in done:
            for key, kind, latency in zip(r["keys"], r["kinds"], r["latencies"]):
                best[key] = min(latency, best.get(key, latency))
                kinds[key] = kind
        measured = [latency for r in done for latency in r["latencies"]]
        tail_s, tail_pct, n = tail(list(best.values()) if TAIL_OVER_DISTINCT[args.workload]
                                   else measured)
        values = {
            "setup_s": statistics.median(setups),
            "inputs_per_s": max(len(r["latencies"]) / r["wall_s"] for r in done),
            "input_s_p50": statistics.median(best.values()),
            "input_s_tail": tail_s,
            "peak_rss_mb": result["rss_kb"] / 1024.0,
        }
        by_kind: dict[str, list[float]] = {}
        for key, latency in best.items():
            by_kind.setdefault(kinds[key], []).append(latency)
        extras.update(tail_percentile=tail_pct, samples=n, distinct_inputs=len(best),
                      setup_runs_s=setups, round_walls_s=[r["wall_s"] for r in done],
                      latency_by_kind={k: {"n": len(v), "median_s": statistics.median(v)}
                                       for k, v in sorted(by_kind.items())})
        declared = spec["end_to_end"]
    else:
        layers = dict(result["per_layer"])
        for name, value in setup_layers.items():
            if name.startswith(("zoo.", "core.save_state.")):
                layers[name] = value
        traced = set(result["traced_functions"])
        values = {m["name"]: per_layer_value(m["name"], layers, traced)
                  for m in spec["per_layer"]}
        extras.update(counts_repeat=result["counts_repeat"],
                      inputs_per_pass=layers["trace.inputs_per_pass"], per_layer_all=layers)
        declared = spec["per_layer"]
    if "theorem_counts" in result:
        extras["theorem_counts"] = result["theorem_counts"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'(input_s_tail percentile, samples)':<52} "
              f"{extras['tail_percentile']:>16.2f} of {extras['samples']}")
    print(f"  {'failed_frac':<52} {extras['failed_frac']:>16.6g} ({failed} of {attempted})")
    for kind, stats in extras.get("latency_by_kind", {}).items():
        print(f"  {'(median s of ' + kind + ')':<52} {stats['median_s']:>16.6g} of {stats['n']}")
    if "theorem_counts" in extras:
        print(f"  theorem cases per round: {extras['theorem_counts']}")
    for problem in result["failures"]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.record:
        env = dict(result["env"], nproc=len(os.sched_getaffinity(0)), git_sha=git_sha(root),
                   platform=platform.platform(), blas_threads_requested=int(BLAS_THREADS))
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "correct": result["correct"],
                  "attempted": attempted, "failed": failed,
                  "metrics": {k: v["value"] for k, v in metrics.items()},
                  "extras": extras, "failures": result["failures"], "env": env}
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
