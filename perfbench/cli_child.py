"""Traced stand-in for ``python -m kfrechet.cli`` in the traced cli-cold run.

Times the cold import of ``kfrechet.cli`` as a ``cli.import`` span, wraps
the layers like the in-process traced run, runs the CLI's ``main`` with
the given arguments and writes the spans to the file named by the
``PERFBENCH_SPANS`` environment variable. Exit status and output are the
CLI's own.

    PERFBENCH_SPANS=spans.json PYTHONPATH=src python perfbench/cli_child.py decide --p ...
"""

import os
import sys

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.on = True
    sid = tracer.open("cli.import")
    import kfrechet.cli
    tracer.close(sid)
    tracing.Patch(tracer).apply()
    try:
        status = kfrechet.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(status)
