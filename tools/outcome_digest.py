"""Print the count and sha256 of the benchmark's operation outcomes.

    python3 tools/outcome_digest.py

Runs every operation of perfbench/workloads.py once, read-only: the three
workloads in WORKLOADS order, seeds 1-10. Each operation is hashed as
json.dumps([list(op.argv), code, repr(output)]) into one sha256. Two trees
that print the same line gave the same exit code and the same output on
every operation. Writes no files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

from workloads import WORKLOADS, execute, operations  # noqa: E402

SEEDS = range(1, 11)


def main() -> None:
    sha, count = hashlib.sha256(), 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            for op in operations(workload, seed):
                outcome = execute(op)
                line = json.dumps([list(op.argv), outcome.code, repr(outcome.output)])
                sha.update(line.encode())
                count += 1
    print(count, sha.hexdigest())


if __name__ == "__main__":
    main()
