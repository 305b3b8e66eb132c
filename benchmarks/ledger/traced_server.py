"""``rush serve`` with a span around every layer boundary.

Usage: ``python traced_server.py SPANS.jsonl serve --manual ...`` — the
arguments after the span path go to :func:`repro.cli.main` untouched.
The wrappers are installed before the CLI builds anything, spans stay
in memory while the server runs, and they are written to ``SPANS.jsonl``
once ``main`` returns (``SIGTERM`` makes it drain and return).
"""

from __future__ import annotations

import sys

from tracing import Recorder, install


def main() -> int:
    span_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        engine = recorder.engine
        profile = engine.scheduler.profile() if engine is not None else {}
        recorder.dump(span_path, {"profile": profile})


if __name__ == "__main__":
    sys.exit(main())
