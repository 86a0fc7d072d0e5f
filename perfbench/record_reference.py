"""Record the reference outputs the benchmark checks jobs against.

    OPENBLAS_NUM_THREADS=2 python3 perfbench/record_reference.py
    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Run from the repository root, once per BLAS thread count, on the commit
whose outputs count as correct. Each run replaces the entry for its thread
count in ``perfbench/reference.json`` and keeps the others.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    try:
        _, threads = run.configure_blas()
        run.import_library()
    except run.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work_dir = run.OUT / "record"
    try:
        entry = {name: cls(0, work_dir, None).record() for name, cls in WORKLOADS.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    entry["recorded_at_git_sha"] = run.git_sha()
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {"by_blas_threads": {}}
    reference["by_blas_threads"][str(threads)] = entry
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded reference for {threads} BLAS threads in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
