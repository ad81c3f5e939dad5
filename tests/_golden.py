"""Golden characterization-test machinery.

``tests/golden/<exp_id>.json`` commits a digest of every registered
experiment's rows under :data:`GOLDEN_CONFIG`.  The characterization
tests assert that serial, parallel (``jobs=4``), and cache-hit
campaigns all reproduce those digests exactly — parallelism and
caching must never change a number.

Regenerate after an *intentional* simulator change with::

    PYTHONPATH=src python -m tests.make_golden

and review the digest diff like any other golden-file change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.tools.harness import HarnessConfig

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Cheap but non-degenerate fidelity: 2 repetitions so stdev columns
#: are live, 4 s runs with a 1 s omit window, coarse 8 ms ticks.
GOLDEN_CONFIG = HarnessConfig(
    repetitions=2, duration=4.0, omit=1.0, tick=0.008, seed=2024
)


def golden_path(exp_id: str) -> Path:
    return GOLDEN_DIR / f"{exp_id}.json"


def load_golden(exp_id: str) -> dict:
    return json.loads(golden_path(exp_id).read_text())


#: Not an experiment: the engine fingerprints of
#: ``tests/test_engine_fingerprints.py`` share the directory.
ENGINES_STEM = "engines"


def golden_ids() -> list[str]:
    return sorted(
        p.stem for p in GOLDEN_DIR.glob("*.json") if p.stem != ENGINES_STEM
    )


def golden_entry(result) -> dict:
    """The committed form: digest plus enough shape to debug a drift."""
    return {
        "exp_id": result.exp_id,
        "config": GOLDEN_CONFIG.to_dict(),
        "digest": result.digest(),
        "columns": list(result.columns),
        "n_rows": len(result.rows),
    }
