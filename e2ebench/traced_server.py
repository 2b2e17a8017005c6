"""Launch ``python -m repro <args>`` with the span wrappers installed.

Usage: ``python traced_server.py SPANS_DIR serve --http ...``.  The
wrappers go in before the entry point runs, so the server is the same
program as the untraced one; its spans are written to ``SPANS_DIR``
when it exits after draining.
"""

import sys

import tracing

if __name__ == "__main__":
    tracing.install(sys.argv[1])
    from repro.__main__ import main

    code = main(sys.argv[2:])
    tracing.TRACER.write()
    sys.exit(code)
