"""Run one ``moecast`` command with the tracer installed, then write its spans.

Usage: ``python3 perfbench/cli_child.py SPANS_JSON [moecast arguments...]``.
The exit code is the command's.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer, write_json  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import moecast.cli

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return moecast.cli.main(argv)
    finally:
        tracer.active = False
        write_json(spans_path, tracer.export())


if __name__ == "__main__":
    sys.exit(main())
