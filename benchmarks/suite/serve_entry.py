"""Start ``repro serve`` for the ``serve`` workload.

Usage: ``python serve_entry.py [--trace-out FILE] -- SERVE-ARGS...``

With ``--trace-out`` the span wrappers of :mod:`tracing` are installed
before the server is built, and SIGTERM writes the recorded spans and the
per-request server windows to FILE before the process exits. Without it,
this is exactly ``repro.cli serve SERVE-ARGS``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from common import use_checkout_source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", help="span dump written on SIGTERM")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [arg for arg in args.serve_args if arg != "--"]
    use_checkout_source()
    if args.trace_out:
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder, serve=True)

        def dump_and_exit(signum, frame):
            try:
                windows = [[rid, *window] for rid, window in list(recorder.windows.items())]
                recorder.dump(args.trace_out, extra={"windows": windows})
            finally:
                os._exit(0)

        signal.signal(signal.SIGTERM, dump_and_exit)
    from repro.cli import main as cli_main

    return cli_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
