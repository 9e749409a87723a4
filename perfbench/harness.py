"""Plumbing shared by the benchmark scripts: where the package lives,
operation accounting and the machine record."""

from __future__ import annotations

import os
import platform
import resource
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


def import_package() -> None:
    """Put the checkout's `src/` first on the path, or exit with code 2."""
    if not (SRC / "upliftmil" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no upliftmil package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


class Ops:
    """Counts attempted operations and correctness checks. A failure is
    recorded with its message and never propagates."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark's boundary: record and go on
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: check failed {detail}".rstrip())
        return ok


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` directly: the benchmark
    starts no process it does not need, and git may not be installed
    where it runs."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(workload: str, seed: int) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }
