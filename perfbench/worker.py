"""Run one CLI command in this fresh interpreter and report how it went.

Usage: python3 perfbench/worker.py < request.json

The request is a JSON object: ``argv`` (the CLI arguments), ``trace``
(wrap the package's layers with perfbench/layertrace.py) and ``spans_path``
(where a traced command writes its spans).  The package is imported from
``src/`` of the checkout before the clock starts, so the timed region is
exactly the ``morreyconst.cli.run`` call.  Each command gets its own
process, which gives it a cold norm cache the way a user's fresh process
has one.

The last line of standard output is a JSON object: ``exit`` (the CLI's
return code, or None if it raised), ``error``, ``report`` (the text the
CLI wrote), ``wall_s`` and ``cpu_s`` of the call (process CPU time, all
threads), ``maxrss_kb`` (peak resident memory of this process) and,
when traced, ``layers``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    request = json.load(sys.stdin)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import morreyconst.cli

    if not os.path.abspath(morreyconst.cli.__file__).startswith(src + os.sep):
        print(f"morreyconst imported from outside {src}", file=sys.stderr)
        return 2

    tracer = None
    if request["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = morreyconst.cli.run(request["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the command failed; report it and keep the result line
        error = traceback.format_exc()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    result = {
        "exit": code,
        "error": error,
        "report": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["layers"]["present"] = sorted(tracer.present)
        if request.get("spans_path"):
            tracer.write(request["spans_path"], result["layers"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
