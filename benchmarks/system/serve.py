"""Start ``repro serve`` with the system benchmark's layer wrappers.

Usage::

    PYTHONPATH=src python3 benchmarks/system/serve.py DUMP.json \\
        --port 0 --quiet --root ROOT

The wrappers from ``tracing.py`` go in before the daemon starts; every
other argument goes to ``repro serve`` unchanged.  SIGTERM then stops the
daemon the way Ctrl-C does, and on the way out its layer stats and spans
are written to ``DUMP.json`` (spans carry the request's ``X-Trace-Id`` as
their operation id).  Untraced runs start ``repro serve`` directly.
"""

from __future__ import annotations

import json
import signal
import sys
from typing import Any, List, Optional


def _interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    dump_path, *argv = sys.argv[1:] if argv is None else argv

    from repro.cli import main as cli_main
    from repro.service.server import ServiceHandler
    from repro.telemetry import current_trace_id
    from tracing import Tracer, install

    tracer = Tracer(op_id=current_trace_id)
    installation = install(tracer)
    parse_request = ServiceHandler.parse_request

    def parse_request_noting_trace_id(handler: Any) -> bool:
        # The handler installs the request's trace ID only inside do_GET /
        # do_POST, so name the span's operation from the header here.
        parsed = parse_request(handler)
        tracer.state().op = handler.headers.get("X-Trace-Id") if parsed else None
        return parsed

    ServiceHandler.parse_request = parse_request_noting_trace_id
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli_main(["serve", *argv])
    finally:
        installation.restore()
        with open(dump_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main())
