"""Traced ``rcm serve``: install the span wrappers, then run the real CLI.

Usage: ``python3 perfbench/serve_launcher.py SPANS_PATH serve [rcm serve options]``.
The spans recorded while the server ran are written to ``SPANS_PATH`` as
JSON once the server has drained and returned (it drains on SIGTERM).
"""

from __future__ import annotations

import json
import sys

from tracing import SpanRecorder, install


def main(argv) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as rcm_main

    try:
        return rcm_main(serve_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
