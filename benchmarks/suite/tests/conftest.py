"""Self-tests of the benchmark suite (outside the tier-1 ``testpaths``).

Run from the repository root: ``python -m pytest benchmarks/suite/tests -q``.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[3] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
