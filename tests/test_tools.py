"""Smoke tests of the proof tools under ``tools/``."""

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_tree_against_itself():
    proc = subprocess.run([sys.executable, str(TOOLS / "identity.py"), "--quick",
                           "--tree", str(TOOLS.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = proc.stdout.splitlines()[:-1]
    assert len(verdicts) >= 15 and all(line.startswith("same ") for line in verdicts)
    assert {"detect-init-0.txt", "forward-init.txt", "gated-map-init.txt",
            "gated-noisy-map-init.txt", "gated-rotating-map-init.txt",
            "gated-slow-map-init.txt", "gated-keyed-map-init.txt",
            "gated-flicker-map-init.txt", "run-flicker-init.json",
            "run-gated-init-0.json"} <= {
        line.split()[-1] for line in verdicts}


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def report_text(doc, **settings):
    """A report's bytes as the CLI writes them, or with other ``json.dumps``
    settings."""
    return json.dumps(doc, **{"indent": 2, "sort_keys": True, **settings}) + "\n"


def test_identity_masks_timing_and_nothing_else(tmp_path):
    identity = load_tool("identity")
    here, there = tmp_path / "here", tmp_path / "there"
    report = {"frames": 3, "decisions": [1, 0, 0],
              "wall-time": {"decode": 1e-05, "gate": 0.001, "infer": 2.5},
              "frames-per-second": 100.0}
    write(here, "run.json", report_text(report))
    write(there, "run.json", report_text({**report, "wall-time": {
        "decode": 0.25, "gate": 0.5, "infer": 3}, "frames-per-second": 7.5}))
    write(here, "bad.json", report_text(report))
    write(there, "bad.json", report_text({**report, "decisions": [1, 1, 0]}))
    # JSON that parses to the same document but is not the same bytes
    write(here, "order.json", report_text(report))
    write(there, "order.json", report_text(report, sort_keys=False))
    write(here, "newline.json", report_text(report))
    write(there, "newline.json", report_text(report)[:-1])
    write(here, "stdout/run.txt", "exit 0\nrun[gated]: 3 frames, 123.4 fps -> a\n")
    write(there, "stdout/run.txt", "exit 0\nrun[gated]: 3 frames, 99.0 fps -> a\n")
    write(here, "det.txt", "1 0.5\n2 0.25\n")
    write(there, "det.txt", "1 0.5\n2 0.250001\n")
    write(here, "mine.txt", "")
    write(there, "theirs.txt", "")
    assert identity.compare(here, there) == [
        ("DIFFERS", "bad.json (first at line 4)"),  # the second decision
        ("DIFFERS", "det.txt (first at line 2)"),
        ("only here", "mine.txt"),
        ("DIFFERS", "newline.json (first at line 14)"),
        ("DIFFERS", "order.json (first at line 2)"),
        ("same", "run.json"),
        ("same", "stdout/run.txt"),
        ("only there", "theirs.txt"),
    ]


def canned_run(seed, p50, rss, correct=True):
    """A benchmark run's printed output, cut to the lines the pairing reads."""
    env = {"python": "3.11", "numpy": "2.0", "blas_threads": "1", "seed": seed,
           "workload": "motion-gated", "run_seconds": 30, "trace": 0}
    doc = {"correct": correct, "attempted": 100, "failed": 0 if correct else 1,
           "metrics": {"frame_p50_ms": {"value": p50, "unit": "ms"},
                       "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return f"reference {{}}\nenv {json.dumps(env)}\nmetric frame_p50_ms = {p50} ms\n{json.dumps(doc)}\n"


def test_pairs_summarise_canned_runs():
    pairs = load_tool("pairs")
    benchmark = {"run_seconds": 30,
                 "end_to_end": [{"name": "frame_p50_ms", "better": "lower", "bound": 0.2},
                                {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    parent_p50 = [0.80, 0.78, 0.79, 0.81, 0.77, 0.80, 0.79, 0.82, 0.78, 0.80]
    change_p50 = [0.60, 0.62, 0.61, 0.59, 0.80, 0.60, 0.61, 0.62, 0.60, 0.58]
    runs, env = [], None
    for i, (p, c) in enumerate(zip(parent_p50, change_p50)):
        parent, env = pairs.parse_run(canned_run(100 + i, p, 52.0))
        change, _ = pairs.parse_run(canned_run(100 + i, c, 52.0 + 6 * (i == 3)))
        runs.append({"seed": 100 + i, "order": ("parent first", "change first")[i % 2],
                     "parent": parent, "change": change})
    assert env == {"python": "3.11", "numpy": "2.0", "blas_threads": "1", "run_seconds": 30,
                   "trace": 0}
    doc = pairs.summarise({"motion-gated": runs}, benchmark, 0,
                          ("motion-gated", "frame_p50_ms"), env)
    assert "--seconds 30 " in doc["command"]
    workload = doc["final"]["workloads"]["motion-gated"]
    assert workload["seeds"] == list(range(100, 110)) and workload["all_correct"]
    assert workload["attempted_ops"] == {"parent": 1000, "change": 1000}
    p50 = workload["metrics"]["frame_p50_ms"]
    assert p50["parent"]["median"] == 0.795 and p50["change"]["median"] == 0.605
    assert p50["parent"]["q1"] == 0.7825 and p50["parent"]["q3"] == 0.8  # as np.percentile
    assert p50["change_wins"] == 9  # the tie at 0.80 counts for neither side
    assert p50["verdict"] == "within bound"
    assert p50["relative_worsening"] == round(0.605 / 0.795 - 1, 4)
    claim = doc["claim"]
    assert claim["met"] and claim["median_gap"] == 0.19 and claim["pairs"] == 10
    assert claim["parent_quartile_distance"] == 0.0175
    rss = workload["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and rss["verdict"] == "within bound"
    assert doc["no_regression"]["held"]

    # A gain does not count on a workload with an incorrect run, nor where
    # the change fails more operations than the parent.
    runs[0]["change"]["correct"] = False
    doc = pairs.summarise({"motion-gated": runs}, benchmark, 0,
                          ("motion-gated", "frame_p50_ms"))
    assert not doc["final"]["workloads"]["motion-gated"]["all_correct"]
    assert not doc["claim"]["met"]
    runs[0]["change"]["correct"] = True
    runs[0]["change"]["failed"] = 1
    doc = pairs.summarise({"motion-gated": runs}, benchmark, 0,
                          ("motion-gated", "frame_p50_ms"))
    assert not doc["claim"]["met"] and not doc["no_regression"]["held"]
    runs[0]["change"]["failed"] = 0

    # A parent spread wider than the bound leaves a metric unresolved unless
    # every change run beats every parent run.
    for i, pair in enumerate(runs):
        pair["parent"]["metrics"]["peak_rss_mb"]["value"] = 52.0 + 20 * (i % 2)
        pair["change"]["metrics"]["peak_rss_mb"]["value"] = 52.0
    doc = pairs.summarise({"motion-gated": runs}, benchmark, 0)
    rss = doc["final"]["workloads"]["motion-gated"]["metrics"]["peak_rss_mb"]
    assert rss["parent_spread"] > 0.1 and rss["relative_worsening"] < 0
    assert rss["verdict"] == "unresolved" and not doc["no_regression"]["held"]
    for pair in runs:
        pair["change"]["metrics"]["peak_rss_mb"]["value"] = 51.0
    doc = pairs.summarise({"motion-gated": runs}, benchmark, 0)
    rss = doc["final"]["workloads"]["motion-gated"]["metrics"]["peak_rss_mb"]
    assert rss["verdict"] == "within bound" and doc["no_regression"]["held"]

    # A median worse than the bound allows is beyond it.
    for pair in runs[:6]:
        pair["change"]["metrics"]["peak_rss_mb"]["value"] = 99.0
    doc = pairs.summarise({"motion-gated": runs}, benchmark, 0,
                          ("motion-gated", "peak_rss_mb"))
    rss = doc["final"]["workloads"]["motion-gated"]["metrics"]["peak_rss_mb"]
    assert rss["verdict"] == "beyond bound"
    assert not doc["no_regression"]["held"] and not doc["claim"]["met"]


def test_mutants_name_the_statements_no_test_needs(tmp_path):
    # ``label`` follows a non-ASCII character on a line it shares with
    # ``y``: cut in characters instead of bytes, its mutant would not parse
    # and would read as killed. Each operator of the chained comparison is
    # flipped alone, on the operator's line; no test sees its ``<`` turned
    # into ``<=``.
    write(tmp_path, "src/planted.py", textwrap.dedent('''\
        def double(x):
            label = "×"; y = x * 2
            print("doubled")
            return y


        def inside(x):
            return ("é" == "é") and 0 <= x < (
                10)
        '''))
    write(tmp_path, "tests/test_planted.py", textwrap.dedent('''\
        from planted import double, inside


        def test_double():
            assert double(2) == 4


        def test_inside():
            assert inside(0) and inside(5) and not inside(-1)
        '''))

    def mutants(*options):
        return subprocess.run([sys.executable, str(TOOLS / "mutants.py"), "src/planted.py",
                               "tests/test_planted.py", "--root", str(tmp_path), *options],
                              capture_output=True, text=True, timeout=120)

    proc = mutants()
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        'src/planted.py:2: label = "×"; y = x * 2',
        'src/planted.py:3: print("doubled")',
        'src/planted.py:8: < -> <=: return ("é" == "é") and 0 <= x < (',
        "src/planted.py: 8 mutants, 5 killed, 3 survived"]
    proc = mutants("--lines", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "src/planted.py: 1 mutants, 1 killed, 0 survived\n"
    assert (tmp_path / "src/planted.py").read_text().count("pass") == 0
