"""Make ``repro`` importable from ``src/`` for the benchmark's own tests.

Run them from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
