"""Smoke tests of the proof tools under ``tools/``."""

import importlib.util
import json
import subprocess
import sys
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
    assert {"detect-init-0.txt", "forward-init.txt", "run-gated-init-0.json"} <= {
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
