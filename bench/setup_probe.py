"""Set-up cost of a fresh process: import bmx, build the disk-time table and
parse a scenario config.  Prints the elapsed seconds.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bmx  # noqa: E402
import bmx.cli  # noqa: E402

bmx.get_sampler()
bmx.cli.parse_config(sys.argv[2])
print(time.perf_counter() - t0)
