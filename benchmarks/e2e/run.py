"""Entry point of the end-to-end benchmark; see ``e2e_runner`` and README.md.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The program under test is imported from ``src/`` of the same checkout.
Where there is none, there is nothing to measure: the run ends with a
non-zero exit code and prints no result.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    from e2e_runner import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
