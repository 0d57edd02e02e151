"""Start ``repro serve`` with the layer tracer installed (traced runs only).

Usage::

    python studybench/serve_launcher.py --port 0 --report DIR

Installs the wrappers on every layer's entry point, then calls
``repro.service.server.serve`` exactly as ``repro serve`` would (no
``--cache-dir``).  ``SIGUSR1`` writes a snapshot of the layer totals to
``DIR/setup.json``, so the load generator can subtract the set-up
requests; the final totals go to ``DIR/final.json`` once the daemon has
drained and returned.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from tracer import SERVE_ENTRY_POINTS, Tracer


def _write(path: str, payload: object) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--report", required=True, help="directory for the layer totals")
    args = parser.parse_args(argv)

    # Load the modules whose entry points get wrapped, as a daemon would
    # have them loaded by its first request.
    import repro.experiments  # noqa: F401
    import repro.metrics  # noqa: F401
    from repro.service.server import serve

    tracer = Tracer()
    tracer.install(SERVE_ENTRY_POINTS)
    signal.signal(
        signal.SIGUSR1,
        lambda signum, frame: _write(os.path.join(args.report, "setup.json"), tracer.report()),
    )
    try:
        print(serve(port=args.port), flush=True)
    finally:
        tracer.uninstall()
        _write(os.path.join(args.report, "final.json"), tracer.report())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
