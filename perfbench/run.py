"""Run one workload of the accountable-pipeline benchmark and print its metrics.

    python3 perfbench/run.py --workload web --seed 1 --seconds 48 --trace 0

Run it from the repository root; it imports the program from ``src/`` of the
same checkout, so it needs no install.  See ``perfbench/bench.py`` for what a
run measures and checks.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("perfbench: the program's sources (src/repro) are missing")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.bench import main
    sys.exit(main())
