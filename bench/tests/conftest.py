"""Put the benchmark modules and the package sources on the import path.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]
