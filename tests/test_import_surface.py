"""What the program's entry points import: numpy is the only third-party runtime dependency."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The CLI, a pool worker, the serve daemon and the experiment registry.
ENTRY_MODULES = ("repro.cli", "repro.runner.worker", "repro.serve.app", "repro.experiments.registry")


def test_entry_points_load_no_networkx_or_scipy():
    code = (
        "import json, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    __import__(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=SRC,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert all(m in loaded for m in ENTRY_MODULES)
    unwanted = [m for m in loaded if m.startswith(("networkx", "scipy"))]
    assert unwanted == []
