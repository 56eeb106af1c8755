#!/usr/bin/env python3
"""Record the per-request output digests that runs at these seeds must
reproduce, into perfbench/reference.json.

    python3 perfbench/reference.py [--seeds 10]

Run it only when outputs change on purpose; each seed runs one pass of
every workload, and nothing is written if any request fails.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("moonshine", "orbifold", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="record seeds 0..N-1")
    args = parser.parse_args(argv)
    reference = {w: {} for w in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=BENCH_DIR.parent) as tmp:
        for workload in WORKLOADS:
            for seed in range(args.seeds):
                out = Path(tmp) / "result.json"
                subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                                "--seed", str(seed), "--seconds", "0", "--reference", "",
                                "--out", str(out)], check=True, stdout=subprocess.DEVNULL)
                record = json.loads(out.read_text())["workloads"][workload]
                if record["failed"]:
                    print(f"error: {workload} seed {seed}: {record['failed']} requests failed",
                          file=sys.stderr)
                    return 1
                reference[workload][str(seed)] = record["request_sha256"]
                print(f"{workload} seed {seed}: {record['output_sha256'][:16]}", flush=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
