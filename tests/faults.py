"""Minor-fault guards measured over several process layouts.

Where the allocator places the heap, and so whether a warm call faults its
pages in again, depends on the process layout, which the size of the
environment shifts. One layout can pass a guard that another fails (30 and
31 extra variables did once, and 18, 19, 46 and 47 another time), so a
guard runs its script in a fresh process per layout and asserts on the
largest count.
"""

import os
import subprocess
import sys
from pathlib import Path

import skipdet

# Layout n adds n environment variables of n + 1 bytes each.
LAYOUTS = (0, 1, 7, 18, 19, 30, 31, 46, 47, 64)


def fault_counts(script: str, timeout: float) -> dict[int, float]:
    """The count ``script`` prints last on stderr, in a fresh process per layout."""
    src = str(Path(skipdet.__file__).resolve().parents[1])
    base = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    counts = {}
    for n in LAYOUTS:
        env = {**base, **{f"FAULT_GUARD_PAD_{k}": "x" * (n + 1) for k in range(n)}}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=timeout)
        assert proc.returncode == 0, proc.stderr
        counts[n] = float(proc.stderr.strip().splitlines()[-1])
    return counts
