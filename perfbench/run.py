"""Entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

import sys
from pathlib import Path

# Run as a script, this file's directory is sys.path[0]; import the
# benchmark as the ``perfbench`` package from the checkout root instead.
_ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(_ROOT)

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
