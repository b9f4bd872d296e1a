"""Record the summary peaks of every workload under the default seed.

    python3 perfbench/record_reference.py

Run once from the repository root, on a commit whose outputs are trusted;
it rewrites perfbench/reference_peaks.json, which run.py compares against
whenever it runs the default seed.  Nothing is written if any output fails
its correctness checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            invs = workloads.write_workload(name, workloads.DEFAULT_SEED, work / name)
            runner = run.Runner(work / name, time.monotonic() + 600.0, keep_outputs=True)
            ops = runner.run_pass("full", invs)
            failures = [f for op in ops for f in op.failures]
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            reference[name] = {
                json_name: json.loads((op.out_dir / json_name).read_text(encoding="utf-8"))["peaks"]
                for inv, op in zip(invs, ops) for _, json_name in inv.outputs()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
