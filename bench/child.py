"""Run one workload's CLI commands in this fresh process and time each one.

Usage: python3 bench/child.py SPEC.json

SPEC holds ``src`` (the directory holding the camsmeta package), ``commands``
(a list of [label, argv]), ``trace`` (bool), ``result`` (path of the JSON
written at the end) and ``spans`` (path of the span log of a traced run, or
null).
The import of camsmeta happens before any timing; each command is timed
around ``camsmeta.io_cli.main(argv)`` with ``time.perf_counter``.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from camsmeta import io_cli

    run = io_cli.main
    tracer = None
    if spec["trace"]:
        from tracer import MAIN, Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(MAIN, io_cli.main)

    results = []
    for label, argv in spec["commands"]:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a dead run
            traceback.print_exc()
            code = -1
        results.append({"label": label, "exit": code,
                        "seconds": time.perf_counter() - start,
                        "cpu_seconds": time.process_time() - cpu_start})

    out = {"commands": results}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        if spec["spans"]:
            tracer.write_spans(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
