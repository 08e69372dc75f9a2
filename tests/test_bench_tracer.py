"""The benchmark's tracer (bench/tracing.py) wraps opfrob functions and
methods by name; a deleted, renamed or inherited name breaks a traced
benchmark run.  Installing and removing the tracer here, without running a
job, catches that in the tier-1 suite."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import Tracer  # noqa: E402


def test_tracer_installs_and_removes_on_the_package():
    t = Tracer()
    try:
        t.install()
    finally:
        t.remove()
