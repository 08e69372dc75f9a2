"""Time one cold set-up in a fresh interpreter: import opfrob, load every
given system file and build its basis.  Prints the seconds taken.

    python3 bench/setup_probe.py SRC_DIR FILE [FILE ...]
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from opfrob.cli import load_system_file  # noqa: E402

for path in sys.argv[2:]:
    system = load_system_file(path)
    if system.basis_names:
        system.basis()
print(time.perf_counter() - t0)
