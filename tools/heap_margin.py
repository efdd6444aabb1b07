#!/usr/bin/env python3
"""How close a warm ``skipdet run`` comes to glibc's heap trim threshold.

    python3 tools/heap_margin.py [--layouts N] [--tree DIR]

Builds ``tools/heap_margin.c`` into a temporary shared library, then runs
the run fault guard's script (``FAULTS_PER_RUN_FRAME`` in
``tests/test_cli.py``: a 60-frame clip, three warm-up and five measured
``run`` calls) once per process layout with the library preloaded. Layout
n adds n environment variables of n + 1 bytes, as ``tests/faults.py``
does, for n in 0..N-1 (default 120). Each line gives a layout's largest
free heap top, twice its largest freed mapped chunk (the trim threshold
glibc reaches) and the guard's faults per frame; the last line gives the
largest top over all layouts against the smallest threshold. A top that
reaches the threshold is trimmed and faulted in again on the next frame.

Without a C compiler, or off glibc, it prints why and exits 0.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REPORT = textwrap.dedent("""
    import ctypes as _ctypes
    _probe = _ctypes.CDLL(None)
    for _name in ("heap_margin_top", "heap_margin_mapped"):
        getattr(_probe, _name).restype = _ctypes.c_size_t
        getattr(_probe, _name).argtypes = []
    print("heap-margin", _probe.heap_margin_top(), _probe.heap_margin_mapped(), file=sys.stderr)
""")


def guard_script() -> str:
    """The run guard's script, read from the test file without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "FAULTS_PER_RUN_FRAME" for t in node.targets):
            return textwrap.dedent(ast.literal_eval(node.value.args[0]))
    raise SystemExit("FAULTS_PER_RUN_FRAME not found in tests/test_cli.py")


def build(workdir: Path):
    """The probe library's path, or None with the reason printed."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        print("heap_margin: skipped, no C compiler")
        return None
    lib = workdir / "heap_margin.so"
    proc = subprocess.run([cc, "-shared", "-fPIC", "-O2", "-o", str(lib),
                           str(ROOT / "tools" / "heap_margin.c"), "-ldl"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"heap_margin: skipped, the probe did not build (glibc 2.33+ needed):\n"
              f"{proc.stderr}")
        return None
    return lib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layouts", type=int, default=120, help="number of process layouts")
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout to measure")
    args = parser.parse_args(argv)
    if args.layouts < 1:
        parser.error("--layouts must be positive")
    script = guard_script() + REPORT
    with tempfile.TemporaryDirectory(prefix="skipdet-heap-") as tmp:
        lib = build(Path(tmp))
        if lib is None:
            return 0
        base = {**os.environ, "PYTHONPATH": str(args.tree.resolve() / "src"),
                "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "LD_PRELOAD": str(lib)}
        tops, thresholds, faults = [], [], []
        for n in range(args.layouts):
            env = {**base, **{f"FAULT_GUARD_PAD_{k}": "x" * (n + 1) for k in range(n)}}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 2
            lines = proc.stderr.strip().splitlines()
            _, top, mapped = lines[-1].split()
            tops.append(int(top))
            thresholds.append(2 * int(mapped))
            faults.append(float(lines[-2]))
            print(f"layout {n:3d}: top {tops[-1] / 1024:7.0f} KB  threshold "
                  f"{thresholds[-1] / 1024:7.0f} KB  faults/frame {faults[-1]:.3f}", flush=True)
    worst = max(range(len(tops)), key=tops.__getitem__)
    print(f"largest free heap top {max(tops) / 1024:.0f} KB (layout {worst}) against a trim "
          f"threshold of {min(thresholds) / 1024:.0f} KB; margin "
          f"{(min(thresholds) - max(tops)) / 1024:.0f} KB; faults/frame max "
          f"{max(faults):.3f} over {len(tops)} layouts of {args.tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
