"""Record the reference outputs that the benchmark's checks compare against.

Usage:
    python3 perfbench/make_reference.py

For every workload and each of SEEDS, runs the first REFERENCE_OPS
operations at full scale, requires their invariants to hold, and writes the
checked part of each output to reference.json, replacing the file. Outputs
are only recorded, never judged, so regenerate the file only for a change
that is meant to alter specbound's results, and say so.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from worker import OUT_DIR, import_specbound  # pins BLAS threads before numpy loads

SEEDS = range(16)


def main() -> int:
    import_specbound()
    from workloads import REFERENCE_FILE, REFERENCE_OPS, WORKLOADS

    table = {}
    OUT_DIR.mkdir(exist_ok=True)
    for name, make in WORKLOADS.items():
        for seed in SEEDS:
            workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
            try:
                workload = make(seed, Path(workdir))
                views = []
                for i in range(REFERENCE_OPS[name]):
                    out = workload.op(i)
                    problems = workload.invariants(i, out)
                    if problems:
                        raise SystemExit(f"{name} seed {seed} op {i}: {problems}")
                    views.append(workload.reference_view(i, out))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = views
            print(f"{name} seed {seed}: {len(views)} ops recorded", flush=True)
    REFERENCE_FILE.write_text(dumps(table))
    return 0


def dumps(table: dict) -> str:
    """The table as JSON with one line per workload and seed."""
    blocks = []
    for name in sorted(table):
        seeds = sorted(table[name], key=int)
        rows = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(table[name][seed], sort_keys=True)}"
            for seed in seeds
        )
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    raise SystemExit(main())
