"""The ``repro serve`` gateway with tracing installed, for traced runs.

    python3 perfbench/gateway.py TRACE_OUT PROFILE serve [options]

Runs ``repro serve`` in this process with :mod:`spans` installed (and
simulate calls profiled when PROFILE is 1) and, once the gateway has
drained, writes its spans and layer profile to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys

from common import require_program


def main(argv: list[str]) -> int:
    trace_out, profile, serve_args = argv[0], argv[1] == "1", argv[2:]
    require_program()
    import spans
    from repro.cli import main as repro_main

    rec = spans.install(profile=profile)
    try:
        code = repro_main(serve_args)
    finally:
        spans.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(rec.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
