#!/usr/bin/env python3
"""One-shot scaling probe: the single large computations that bound tatek
today, each timed once with a digest of its output.

    python3 perfbench/scaling.py [--seed 0] [--out scaling.json]

These rows are too slow to repeat in the gated workloads, so nothing
gates on them; they show where a change moves the walls. The pair-class
counts are asserted (a wrong count exits with status 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def rows(seed: int):
    """(name, computation, canonical text of its output, expected size)."""
    from tatek import cyclic_group, jseries, random_devoto_element, sym_str, symmetric_group
    from tatek.serialize import devoto_to_json, dumps, element_to_json, series_to_json
    from tatek.wreath import WreathGroup

    def pair_classes(base, copies):
        return lambda: WreathGroup(base, copies).commuting_pair_classes()

    def pairs_text(pairs):
        return dumps([[element_to_json(g), element_to_json(h)] for g, h in pairs])

    S3 = symmetric_group(3)
    x = random_devoto_element(S3, random.Random(f"scaling:{seed}"), truncation=2)
    return [
        ("pair_classes Z2 wr S5", pair_classes(cyclic_group(2), 5), pairs_text, 1096),
        ("pair_classes Z3 wr S4", pair_classes(cyclic_group(3), 4), pairs_text, 2475),
        ("jseries 100", lambda: jseries(100), lambda F: dumps(series_to_json(F.series)), None),
        ("jseries 300", lambda: jseries(300), lambda F: dumps(series_to_json(F.series)), None),
        ("sym_str brute S3 n=6", lambda: sym_str(x, 6, "brute"),
         lambda y: dumps(devoto_to_json(y)), None),
        ("sym_str brute S3 n=7", lambda: sym_str(x, 7, "brute"),
         lambda y: dumps(devoto_to_json(y)), None),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the sym_str input")
    parser.add_argument("--out", help="write the stamped rows to this file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from run import stamp

    results, status = [], 0
    for name, compute, text, expected in rows(args.seed):
        start = time.perf_counter()
        value = compute()
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(text(value).encode()).hexdigest()
        size = len(value) if expected is not None else None
        if size != expected:
            print(f"error: {name} gave {size} classes, expected {expected}", file=sys.stderr)
            status = 1
        results.append({"name": name, "seconds": seconds, "sha256": digest, "size": size})
        print(f"{name:24s} {seconds:9.3f} s  {digest[:16]}" + (f"  {size}" if size else ""),
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"stamp": {**stamp(), "seed": args.seed},
                                              "rows": results}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
