#!/usr/bin/env python3
"""The performance benchmark runner.

    python benchmarks/perf/run.py run [--workload NAME] [--seed N ...]
                                      [--trace] [--quick] [--out FILE]
    python benchmarks/perf/run.py compare BASE.json CHANGE.json [...]
    python benchmarks/perf/run.py repeat [--seed N]

``run`` prints every end-to-end metric by name and unit with its
quartiles and sample counts, verifies the program's outputs, and exits
1 on any verification mismatch; ``--trace`` adds the per-layer table
and writes the span file.  With ``--workload`` the last line of
standard output is the one-object JSON summary ``BENCHMARK.json``'s
driver reads.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sqlite3
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")

#: Rounds a ``--seconds`` budget may not cut below.
MIN_ROUNDS = 4
#: Suites per side of ``repeat``, the two sides alternating.
REPEAT_PAIRS = 3
#: The pass whose layer metrics the driver's line carries: the only one
#: every workload runs.
DRIVER_PASS = "dewey"
#: ``compare`` calls nothing below this share "better" (metrics without
#: quartiles, such as ``peak_rss_mb``, would otherwise win on a page).
MIN_GAIN = 0.01
#: Environment switches the stores must not inherit: they run the
#: shipped defaults (caches on, index mode ``auto``).
SCRUBBED = ("REPRO_CACHE", "REPRO_INDEX", "REPRO_INDEX_INCR")


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- one workload, in this process -------------------------------------------


def execute(name: str, seed: int, quick: bool, trace: bool,
            seconds: float | None) -> dict:
    """Set up, run the rounds, verify; returns the full result."""
    import workloads
    from repro.obs import METRICS
    from stats import P99_MIN_SAMPLES, percentile, summarize

    os.makedirs(workloads.WORK, exist_ok=True)
    workload = workloads.make(name, seed, quick)
    slots = workload.slots(trace)
    speed = workload.speed
    rounds: list = []
    layers = None
    try:
        start = speed.sample()
        workload.setup(slots)
        setup_s = perf_counter() - start
        setup_host = speed.factor(start, speed.sample())
        gc.collect()
        gc.disable()
        began = perf_counter()
        floor = min(slots, MIN_ROUNDS)
        for slot in range(slots):
            whole_pairs = not trace or slot % 2 == 0
            if (seconds is not None and slot >= floor and whole_pairs
                    and perf_counter() - began >= seconds):
                break
            traced = trace and slot % 2 == 1
            if workload.toggles_counters:
                METRICS.enabled = traced
            rounds.append(workload.run_round(slot, traced))
            gc.collect()
        gc.enable()
        host_speed = speed.factor(began, speed.sample())
        if trace:
            METRICS.enabled = True
            layers = workload.layers(rounds)
        if workload.toggles_counters:
            METRICS.enabled = False
        workload.verify(len(rounds))
    finally:
        gc.enable()
        workload.teardown()

    # Every time below is recorded raw and divided here, once, by the
    # host-speed factor of the pass (set-up: of the set-up) it is from.
    plain = [r for r in rounds if not r.traced]
    metrics = {
        "setup_s": {"value": setup_s / setup_host, "raw": setup_s,
                    "unit": "s"},
        "ops_s": summarize(
            [r.ops_s() for r in plain], [r.ops_s(raw=True) for r in plain],
            "ops/s", min(r.completed() for r in plain),
        ),
    }
    for enc in plain[0].passes:
        passes = [r.passes[enc] for r in plain]
        for cls in ("read", "write"):
            samples = min(len(getattr(p, cls + "s")) for p in passes)
            for tag, q, needed in (("p50", 0.50, 1),
                                   ("p99", 0.99, P99_MIN_SAMPLES)):
                if samples < needed:
                    continue
                raw = [
                    percentile(getattr(p, cls + "s"), q) * 1000.0
                    for p in passes
                ]
                metrics[f"{cls}_{tag}_ms.{enc}"] = summarize(
                    [ms / p.host for ms, p in zip(raw, passes)], raw,
                    "ms", samples,
                )
    failed = sum(r.failed() for r in rounds)
    attempted = failed + sum(r.completed() for r in rounds)
    rss = workload.peak_rss_mb()
    metrics["fail_share"] = {"value": failed / attempted, "unit": "ratio"}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}

    span_file = None
    if trace:
        traced_ops_s = median(r.ops_s() for r in rounds if r.traced)
        layers["all"] = {
            "obs.trace_overhead_share":
                1.0 - traced_ops_s / metrics["ops_s"]["value"],
        }
        span_file = os.path.join(
            workloads.WORK, f"spans-{name}-{seed}.json"
        )
        workload.recorder.write(
            span_file, {"workload": name, "seed": seed}
        )
    return {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "traced": trace,
        "schedule_hash": workload.schedule_hash,
        "host_speed": host_speed,
        "rounds": len(plain),
        "attempted": attempted,
        "failed": failed,
        "correct": not workload.problems,
        "problems": workload.problems,
        "failures": workload.failures,
        "metrics": metrics,
        "layers": layers,
        "span_file": span_file,
    }


def print_result(result: dict) -> None:
    kind = "traced" if result["traced"] else "untraced"
    print(
        f"== {result['workload']} seed {result['seed']} ({kind}, "
        f"{result['rounds']} rounds, schedule "
        f"{result['schedule_hash'][:12]}) =="
    )
    print(f"   times are at reference speed, raw beside them; host "
          f"speed factor of the run {result['host_speed']:.3f}")
    if result["traced"]:
        print("   end-to-end values below come from this traced run's "
              "untraced rounds; quote the untraced run's.")
    for name, m in result["metrics"].items():
        line = f"  {name:<24} {m['value']:>12.4f} {m['unit']:<6}"
        if "raw" in m:
            line += f" raw {m['raw']:.4f}"
        if "q1" in m:
            line += (f" q1 {m['q1']:.4f} q3 {m['q3']:.4f}  "
                     f"rounds {m['rounds']} samples/round {m['samples']}")
        print(line)
    print(f"  attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    for line in result["failures"] + result["problems"]:
        print(f"  ! {line}")
    if result["layers"]:
        passes = [p for p in result["layers"] if p != "all"]
        names = sorted({n for p in passes for n in result["layers"][p]})
        print(f"  {'layer metric':<40}" + "".join(f"{p:>14}" for p in passes))
        for name in names:
            cells = "".join(
                f"{result['layers'][p].get(name, float('nan')):>14.4f}"
                for p in passes
            )
            print(f"  {name:<40}{cells}")
        for name, value in result["layers"]["all"].items():
            print(f"  {name:<40}{value:>14.4f}")
        print(f"  spans: {result['span_file']}")


def driver_line(result: dict) -> str:
    """The one-object summary ``BENCHMARK.json``'s contract asks for."""
    manifest = load_manifest()
    if result["traced"]:
        found = {**result["layers"][DRIVER_PASS], **result["layers"]["all"]}
        metrics = {
            entry["name"]: {
                "value": found[entry["name"]], "unit": entry["unit"],
            }
            for entry in manifest["per_layer"]
        }
    else:
        metrics = {
            entry["name"]: {
                "value": result["metrics"][entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in manifest["end_to_end"]
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# -- the suite: one fresh subprocess per workload -----------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_suite(names: list[str], seeds: list[int], quick: bool,
              trace: bool) -> list[dict]:
    """Each workload in a fresh subprocess, so peak RSS is its own."""
    import workloads

    os.makedirs(workloads.WORK, exist_ok=True)
    results = []
    for seed in seeds:
        for name in names:
            for traced in (False, True) if trace else (False,):
                out = os.path.join(
                    workloads.WORK, f"result-{os.getpid()}.json"
                )
                argv = [
                    sys.executable, os.path.abspath(__file__), "run",
                    "--workload", name, "--seed", str(seed),
                    "--trace", str(int(traced)), "--out", out,
                ] + (["--quick"] if quick else [])
                done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
                # The child's table, without its driver line.
                print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
                if done.returncode not in (0, 1) or not os.path.exists(out):
                    raise SystemExit(
                        f"{name} seed {seed} exited {done.returncode} "
                        "without a result"
                    )
                with open(out, encoding="utf-8") as handle:
                    results.extend(json.load(handle)["runs"])
                os.remove(out)
    return results


def write_results(path: str, results: list[dict], env: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "runs": results}, handle, indent=1)
        handle.write("\n")


def command_run(args) -> int:
    from catalog import WORKLOADS

    env = environment()
    if args.workload is not None and len(args.seed) == 1:
        trace = bool(args.trace)
        result = execute(
            args.workload, args.seed[0], args.quick, trace, args.seconds
        )
        print_result(result)
        if args.out:
            write_results(args.out, [result], env)
        print(driver_line(result))
        return 0 if result["correct"] else 1
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = run_suite(names, args.seed, args.quick, bool(args.trace))
    if args.out:
        write_results(args.out, results, env)
    return 0 if all(r["correct"] for r in results) else 1


# -- compare ------------------------------------------------------------------


def pooled(runs: list[dict]) -> dict:
    """``{(workload, metric): (q1, median, q3)}`` over the untraced runs.

    One run: its own median and quartiles across rounds.  Several
    runs: the median and quartiles of the runs' medians.
    """
    from stats import quartiles

    grouped: dict = {}
    for run in runs:
        if run["traced"]:
            continue
        for name, metric in run["metrics"].items():
            grouped.setdefault((run["workload"], name), []).append(metric)
    out = {}
    for key, found in grouped.items():
        if len(found) == 1:
            m = found[0]
            out[key] = (m.get("q1", m["value"]), m["value"],
                        m.get("q3", m["value"]))
        else:
            out[key] = quartiles([m["value"] for m in found])
    return out


def compare(base_runs: list[dict], change_runs: list[dict],
            same_code: bool = False) -> int:
    """Print one row per (workload, metric); returns the exit code.

    Two sets of runs of the *same code* agree on a pair when their
    medians are within its bound of each other: there a ``better``
    (called only beyond the bound) is as much a disagreement as a
    ``worse``, and an ``unresolved`` pair has not been shown to agree,
    so all three fail.
    """
    from catalog import E2E_BY_NAME, bound_for

    base, change = pooled(base_runs), pooled(change_runs)
    verdicts: dict[str, list[str]] = {}
    print(f"{'workload':<13}{'metric':<22}{'base':>11}{'[q1..q3]':>22}"
          f"{'change':>11}{'[q1..q3]':>22}{'delta':>9}{'bound':>7}  verdict")
    for key in sorted(base):
        if key not in change:
            continue
        workload, name = key
        entry = E2E_BY_NAME[name]
        b_q1, b, b_q3 = base[key]
        c_q1, c, c_q3 = change[key]
        bound = bound_for(name, workload)
        if name == "fail_share":
            verdict = "worse" if c > b else "better" if c < b else "same"
            delta = c - b
        else:
            sign = 1.0 if entry.better == "lower" else -1.0
            delta = (c - b) / b
            worse_by = sign * delta
            spread = max(b_q3 - b_q1, c_q3 - c_q1) / b
            overlap = b_q1 <= c_q3 and c_q1 <= b_q3
            if spread > bound and overlap:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif not overlap and -worse_by > max(
                spread, bound if same_code else MIN_GAIN
            ):
                verdict = "better"
            else:
                verdict = "same"
        verdicts.setdefault(verdict, []).append(f"{workload}:{name}")
        print(
            f"{workload:<13}{name:<22}{b:>11.4f}"
            f"{f'[{b_q1:.4f}..{b_q3:.4f}]':>22}{c:>11.4f}"
            f"{f'[{c_q1:.4f}..{c_q3:.4f}]':>22}{delta:>+9.1%}"
            f"{bound:>7.0%}  {verdict}"
        )
    failing = ("worse", "better", "unresolved") if same_code else ("worse",)
    for verdict in failing:
        found = verdicts.get(verdict, [])
        print(f"{len(found)} {verdict}" + (": " if found else "")
              + ", ".join(found))
    return 1 if any(verdicts.get(v) for v in failing) else 0


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def command_compare(args) -> int:
    base = load_runs(args.base)
    code = 0
    for path in args.change:
        print(f"-- {args.base} -> {path}")
        code |= compare(base, load_runs(path))
    return code


def command_repeat(args) -> int:
    """Run the suite on the same code as two alternating sets of runs
    and compare the sets."""
    from catalog import WORKLOADS

    first: list[dict] = []
    second: list[dict] = []
    for _ in range(REPEAT_PAIRS):
        first += run_suite(list(WORKLOADS), [args.seed], False, False)
        second += run_suite(list(WORKLOADS), [args.seed], False, False)
    if not all(r["correct"] for r in first + second):
        return 1
    return compare(first, second, same_code=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print metrics")
    run.add_argument("--workload", help="one workload (default: all six)")
    run.add_argument("--seed", type=int, nargs="+", default=[1],
                     help="schedule seed(s); several run the suite per seed")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     help="also (1) / only with --workload: the traced run")
    run.add_argument("--seconds", type=float,
                     help="stop starting rounds after this long "
                          f"(never below {MIN_ROUNDS} rounds)")
    run.add_argument("--quick", action="store_true",
                     help="tiny sizes, for the self-test")
    run.add_argument("--out", help="write the full results as JSON")
    run.set_defaults(handler=command_run)
    cmp_ = commands.add_parser("compare", help="judge change against base")
    cmp_.add_argument("base")
    cmp_.add_argument("change", nargs="+")
    cmp_.set_defaults(handler=command_compare)
    rep = commands.add_parser("repeat", help="run twice, compare the runs")
    rep.add_argument("--seed", type=int, default=1)
    rep.set_defaults(handler=command_repeat)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"run.py: no program source at {SOURCE}", file=sys.stderr)
        return 2
    for name in SCRUBBED:
        os.environ.pop(name, None)
    sys.path[:0] = [SOURCE, HERE]
    os.chdir(ROOT)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
