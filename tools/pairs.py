#!/usr/bin/env python3
"""Alternate the benchmark between this tree and a git revision, in pairs.

    python3 tools/pairs.py REV --runs motion-gated:1800-1809 [--runs static-gated:1810-1819]
                           [--trace 0] [--claim motion-gated:frame_p50_ms]
                           [--what TEXT] [--out BENCH_<n>.json]

Both sides run from fresh copies in a temporary directory: REV from
``git archive``, this tree from its working files (uncommitted changes
included, ``.git`` and bytecode caches left out). For each workload and each
seed in its range, ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace T`` runs once per side, with S the ``run_seconds`` of
``BENCHMARK.json``, REV first on even pair indices and this tree first on
odd ones, with ``PYTHONDONTWRITEBYTECODE=1`` and the copies' caches
removed before and after every run.

The result is the skeleton that the ``BENCH_<n>.json`` files share: per
workload the seeds, order, correctness and operation counts, and per metric
each side's runs, quartiles and median, the pairs this tree wins (ties
count for neither side), its relative worsening, the parent's quartile
spread and the verdict against the bound ``BENCHMARK.json`` gives; then the
claim verdict, if one is named, and the ``env`` line the runs print. It is
printed, or written to ``--out``; the prose beyond ``--what`` is left to
the author.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLAIM_RULE = ("on a workload whose runs were all correct and where the change failed "
              "no larger share of operations than the parent, the change wins at least "
              "9 of 10 pairs and the medians differ by more than the parent's quartile "
              "distance")
WORSENING_RULE = ("on each workload, the change fails no larger share of operations than "
                  "the parent, and every end-to-end metric is 'within bound': its change "
                  "median is no worse than the parent's by more than its BENCHMARK.json "
                  "bound ('beyond bound' otherwise), and the parent's relative quartile "
                  "spread is within that bound too, unless every change run beats every "
                  "parent run ('unresolved' otherwise); relative_worsening is "
                  "(change - parent) / parent for lower-is-better metrics and "
                  "(parent - change) / parent otherwise")


# ---------------------------------------------------------------------------
# Summarising run outputs: pure functions, so a test can feed canned output.
# ---------------------------------------------------------------------------

def parse_run(stdout: str) -> tuple[dict, dict]:
    """A run's final JSON document (its last non-empty line) and its ``env``
    line, without the per-run fields (seed and workload)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), {k: v for k, v in env.items() if k not in ("seed", "workload")}


def spread(values: list[float]) -> dict:
    """Quartiles (inclusive method, as numpy's default) and the runs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in values]}


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def bound_verdict(parent: list[float], change: list[float], worse: float, spread: float,
                  bound: float, direction: str) -> str:
    """'beyond bound' when the change's median is worse than the bound
    allows; 'unresolved' when the parent's runs spread wider than the bound
    and the change does not beat every one of them with every run;
    'within bound' otherwise."""
    if worse > bound:
        return "beyond bound"
    if spread > bound and not all(better(c, p, direction) for c in change for p in parent):
        return "unresolved"
    return "within bound"


def summarise_workload(pairs: list[dict], declared: dict) -> dict:
    """One workload's pairs, each ``{"seed", "order", "parent", "change"}``
    with the two runs' final JSON documents, against the declared metrics
    (``name -> {"better", "bound"}``, the bound None where none is fixed)."""
    side = {s: [p[s] for p in pairs] for s in ("parent", "change")}
    out = {"seeds": [p["seed"] for p in pairs], "order": [p["order"] for p in pairs],
           "all_correct": all(r["correct"] for runs in side.values() for r in runs),
           "failed_ops": {s: sum(r["failed"] for r in runs) for s, runs in side.items()},
           "attempted_ops": {s: sum(r["attempted"] for r in runs) for s, runs in side.items()},
           "metrics": {}}
    for name, spec in declared.items():
        values = {s: [r["metrics"][name]["value"] for r in runs] for s, runs in side.items()}
        if not all(values.values()):
            continue
        parent, change = spread(values["parent"]), spread(values["change"])
        p, c = parent["median"], change["median"]
        worse = (c - p) / p if spec["better"] == "lower" else (p - c) / p
        relative_spread = (parent["q3"] - parent["q1"]) / p
        entry = {"better": spec["better"], "bound": spec["bound"],
                 "parent": parent, "change": change,
                 "change_wins": sum(better(c, p, spec["better"])
                                    for p, c in zip(values["parent"], values["change"])),
                 "relative_worsening": round(worse, 4),
                 "parent_spread": round(relative_spread, 4)}
        if spec["bound"] is not None:
            entry["verdict"] = bound_verdict(values["parent"], values["change"], worse,
                                             relative_spread, spec["bound"], spec["better"])
        out["metrics"][name] = entry
    return out


def fails_no_more(workload: dict) -> bool:
    """The change failed no larger share of its operations than the parent."""
    failed, attempted = workload["failed_ops"], workload["attempted_ops"]
    return failed["change"] * attempted["parent"] <= failed["parent"] * attempted["change"]


def claim_verdict(workloads: dict, workload: str, metric: str) -> dict:
    summary = workloads[workload]
    entry = summary["metrics"][metric]
    p, c = entry["parent"]["median"], entry["change"]["median"]
    pairs = len(entry["parent"]["runs"])
    gap = p - c if entry["better"] == "lower" else c - p
    distance = entry["parent"]["q3"] - entry["parent"]["q1"]
    return {"metric": metric, "workload": workload, "rule": CLAIM_RULE,
            "parent_median": p, "change_median": c, "change_wins": entry["change_wins"],
            "pairs": pairs, "median_gap": round(gap, 6),
            "parent_quartile_distance": round(distance, 6),
            "met": (summary["all_correct"] and fails_no_more(summary)
                    and entry["change_wins"] * 10 >= 9 * pairs and gap > distance)}


def declared_metrics(benchmark: dict, trace: int) -> dict:
    """BENCHMARK.json's end-to-end metrics with their bounds, or its
    per-layer ones (no bounds) for a traced run."""
    if trace:
        return {m["name"]: {"better": m["better"], "bound": None} for m in benchmark["per_layer"]}
    return {m["name"]: {"better": m["better"], "bound": m["bound"]}
            for m in benchmark["end_to_end"]}


def summarise(runs: dict, benchmark: dict, trace: int,
              claim: tuple[str, str] | None = None, env: dict | None = None) -> dict:
    """The BENCH skeleton from ``{workload: [pair, ...]}``."""
    declared = declared_metrics(benchmark, trace)
    workloads = {w: summarise_workload(pairs, declared) for w, pairs in runs.items()}
    held = all(fails_no_more(w) and all(m.get("verdict", "within bound") == "within bound"
                                        for m in w["metrics"].values())
               for w in workloads.values())
    seeds = "; ".join(f"{w}: seeds {p[0]['seed']}-{p[-1]['seed']}" for w, p in runs.items())
    return {
        "what": "",
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {benchmark['run_seconds']} "
                   f"--trace {trace}",
        "pairing": "pairs alternate which side runs first (parent first on even pair "
                   "indices); each side runs from its own fresh copy, with "
                   "PYTHONDONTWRITEBYTECODE=1 and bytecode caches removed before and "
                   f"after every run; {seeds}",
        "env": env or {},
        "claim": None if claim is None else claim_verdict(workloads, *claim),
        "no_regression": {"rule": WORSENING_RULE, "held": held},
        "final": {"workloads": workloads},
    }


# ---------------------------------------------------------------------------
# Running the pairs.
# ---------------------------------------------------------------------------

def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def copy_trees(rev: str, work: Path) -> dict[str, Path]:
    parent, change = work / "parent", work / "change"
    parent.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
    shutil.copytree(ROOT, change, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".perfbench-work", ".perfbench-out"))
    return {"parent": parent, "change": change}


def drop_caches(tree: Path) -> None:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict]:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    drop_caches(tree)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=tree, env=env, capture_output=True, text=True)
    finally:
        drop_caches(tree)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{tree.name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to pair this tree with (the parent)")
    parser.add_argument("--runs", action="append", required=True, metavar="WORKLOAD:SEEDS",
                        help="a workload and its seed range, such as motion-gated:1800-1809")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the metric a gain is claimed for, and its workload")
    parser.add_argument("--what", default="", help="the change, in one sentence")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of printing it")
    args = parser.parse_args(argv)
    plan = [(w, seed_range(s)) for w, s in (r.split(":", 1) for r in args.runs)]
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs: dict[str, list[dict]] = {}
    env: dict = {}
    with tempfile.TemporaryDirectory(prefix="skipdet-pairs-") as tmp:
        trees = copy_trees(args.rev, Path(tmp))
        for workload, seeds in plan:
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "order": f"{order[0]} first"}
                for side in order:
                    pair[side], env = run_once(trees[side], workload, seed,
                                               benchmark["run_seconds"], args.trace)
                runs.setdefault(workload, []).append(pair)
                print(f"{workload} seed {seed}: {pair['order']}, correct "
                      f"{pair['parent']['correct']}/{pair['change']['correct']}",
                      file=sys.stderr)
    doc = summarise(runs, benchmark, args.trace, claim, env)
    doc["what"] = args.what
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
