"""Provenance block: what a result record was measured with."""

from __future__ import annotations

import os
import platform
from pathlib import Path

from repro.crypto import des


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, workload: str, seed: int, seconds: float, trace: bool,
               params: dict) -> dict:
    """Workload, host and engine settings behind one result record.

    A run with any ``REPRO_*`` switch in its environment did not measure
    the default configuration and is marked ``default_config: false``: it
    is not a baseline.
    """
    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    try:
        from repro.crypto.vector import vector_threshold
    except ImportError:
        threshold = None
    else:
        threshold = vector_threshold()
    switches = {key: value for key, value in sorted(os.environ.items())
                if key.startswith("REPRO_")}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "des_kernel": des.default_kernel(),
        "vector_threshold_blocks": threshold,
        "kernel_decisions": des.kernel_decisions_snapshot(),
        "repro_env": switches,
        "default_config": not switches,
        "git_rev": git_rev(root),
    }
