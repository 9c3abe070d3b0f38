"""Record the output digests every benchmark run is checked against.

Usage: ``PYTHONPATH=src python3 perfbench/record.py`` from the repository
root.  Writes ``perfbench/reference.json``: for each batch workload, the
digest of the rows of every input seed; for ``service_mix``, the digest of
an in-process sweep (or churn simulation) of every catalog request.  Run it
only at a commit whose outputs are known good: every later run compares
byte for byte against what it writes.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys

import numpy

import service_mix as mix
from common import REFERENCE_PATH, SRC, TMP_ROOT
from run import BATCH_WORKLOADS, INPUT_SEEDS, run_child

WORKDIR = TMP_ROOT / "record"


def batch_digest(workload: str, input_seed: int) -> str:
    """The digest of one fresh interpreter's rows (its cold and warm calls must agree)."""
    cold, warm = run_child(workload, input_seed, None, WORKDIR)["digests"]
    if cold != warm:
        raise SystemExit(f"{workload} seed {input_seed}: cold and warm calls disagree")
    return cold


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.sim.backends import resolve_backend

    reference = {
        "recorded_with": {
            "backend": resolve_backend("auto").name,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }
    }
    WORKDIR.mkdir(parents=True, exist_ok=True)
    for workload in BATCH_WORKLOADS:
        reference[workload] = {str(seed): batch_digest(workload, seed) for seed in INPUT_SEEDS}
        print(f"{workload}: {len(INPUT_SEEDS)} seeds", flush=True)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass
    reference["service_mix"] = {}
    for kind, size in mix.CATALOG_SIZES.items():
        reference["service_mix"][kind] = [
            mix.inprocess_digest(mix.request_body(kind, index)) for index in range(size)
        ]
        print(f"service_mix {kind}: {size} requests", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
