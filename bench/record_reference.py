#!/usr/bin/env python3
"""Record the census reference the census workload checks against.

    python3 bench/record_reference.py

For census seeds 0 .. CENSUS_POOL-1 and each of the five census classes it
certifies CENSUS_BLOCK_DRAWS draws through the same CLI call the benchmark
makes, and stores each draw's winding, physical real-root count and status
in census_reference.json.  Record only at a commit whose counts are trusted:
every later benchmark run must reproduce them draw for draw.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (sets the BLAS thread caps before numpy loads)
from workloads import (CENSUS_BLOCK_DRAWS, CENSUS_CLASSES, CENSUS_POOL,  # noqa: E402
                       CENSUS_REFERENCE, HELD_OUT_SEED, Census, census_key)


def main() -> int:
    run.import_package()
    workdir = run.OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    census = Census(0, workdir, reference={})
    draws = {}
    try:
        for census_seed, (order, annulus) in itertools.product(range(CENSUS_POOL),
                                                                CENSUS_CLASSES):
            out = workdir / f"census-{census_seed}-{order}-{annulus}.jsonl"
            rc, err, certs, _ = census.certificates(order, annulus, census_seed, out)
            if rc not in (0, 3) or len(certs) != CENSUS_BLOCK_DRAWS:
                raise SystemExit(f"zeros failed on {order} {annulus} seed {census_seed}: "
                                 f"exit {rc} {err}")
            draws[census_key(order, annulus, census_seed)] = [
                [c["winding"], len(c["real_roots"]), c["status"]] for c in certs]
            print(census_key(order, annulus, census_seed), file=sys.stderr)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    stamp = run.stamp(run.parse_args(["--workload", "census"]))
    doc = {"fields": ["winding", "real_roots", "status"],
           "block_draws": CENSUS_BLOCK_DRAWS, "pool": CENSUS_POOL,
           "default_seed": 0, "held_out_seed": HELD_OUT_SEED,
           "recorded_at": {k: stamp[k] for k in ("git_commit", "src_sha256", "python",
                                                 "numpy", "scipy")},
           "draws": draws}
    # one line per census block keeps the file readable and diffable
    head = json.dumps({k: v for k, v in doc.items() if k != "draws"}, sort_keys=True)
    rows = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(draws.items()))
    CENSUS_REFERENCE.write_text(head[:-1] + ',\n"draws": {\n' + rows + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
