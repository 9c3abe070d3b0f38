"""Shared helpers of the benchmark: paths, percentiles, row digests, metric lines.

Everything here is standard library only, so ``run.py`` can import it
before it knows whether the program under test is present.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, NoReturn, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, span files and child outputs; listed in .gitignore.
TMP_ROOT = ROOT / ".perfbench_tmp"
REFERENCE_PATH = BENCH_DIR / "reference.json"

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Tail percentiles considered by the percentile rule, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def program_present() -> bool:
    """True when the checkout holds the package the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for interpreters that import the program from ``src``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``0 <= p <= 100``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_tail(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= 10.0:
            return p
    return None


def timing_summary(values: Sequence[float]) -> str:
    """``p50=... pXX=... n=...`` per the percentile rule (tail omitted when unsupported)."""
    n = len(values)
    text = f"p50={percentile(values, 50):.6g}"
    tail = supported_tail(n)
    if tail is not None:
        text += f" p{tail:g}={percentile(values, tail):.6g}"
    else:
        text += " (no tail percentile has 10 samples beyond it)"
    return text + f" n={n}"


def canonical_json(obj) -> str:
    """Key-sorted compact JSON; floats keep their shortest round-trip repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def rows_digest(rows) -> str:
    """SHA-256 of the canonical JSON of ``rows`` (a one-ulp change alters it)."""
    return hashlib.sha256(canonical_json(rows).encode("utf-8")).hexdigest()


def load_reference() -> Dict:
    """The digests recorded at the commit that defined the benchmark."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def emit(line: str) -> None:
    """One human-readable line on standard output (never the last line)."""
    print(line, flush=True)


def ratio_text(numerator: float, denominator: float, label_num: str, label_den: str) -> str:
    """A ratio printed together with its base."""
    value = numerator / denominator if denominator else 0.0
    return f"{value:.6g} (= {numerator:g} {label_num} / {denominator:g} {label_den})"


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]
) -> str:
    """The final JSON line: correctness, request counts and every metric with its unit."""
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def print_metrics(metrics: Dict[str, Tuple[float, str]]) -> None:
    """Every metric by name with its unit, one per line."""
    for name, (value, unit) in metrics.items():
        emit(f"metric {name} = {value:.9g} {unit}")


def fail(message: str, code: int = 2) -> NoReturn:
    """Abort the run without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)


def median(values: Iterable[float]) -> float:
    """p50 of a non-empty sample."""
    return percentile(list(values), 50.0)
