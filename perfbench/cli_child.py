"""Traced stand-in for `python -m tatek`, used by the cli workload's traced
run: installs the tracer, calls `tatek.cli.main` and writes the spans and
timings to the file named by the first argument.

    python3 perfbench/cli_child.py TRACE.json jseries --order 20
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import tatek.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        try:
            code = tatek.cli.main(argv)
        finally:
            main_s = time.perf_counter() - t0
            sys.stdout.flush()
    record = tracer.export()
    record.update(import_s=import_s, main_s=main_s)
    Path(trace_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
