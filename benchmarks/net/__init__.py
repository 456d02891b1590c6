"""The repo's benchmark: the real 2-process cluster, measured from outside.

``python -m benchmarks.net --workload <name|all> --seed <int>`` drives a
``LocalCluster`` of stock ``python -m repro.net`` processes through the
public client protocol and prints every metric of ``BENCHMARK.json`` by
name with its unit.  See ``README.md`` in this directory.
"""

import sys
from pathlib import Path

# The benchmark measures the program in the checkout it sits in, never an
# installed copy: the checkout's ``src`` goes first on the path.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
