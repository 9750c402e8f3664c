"""Time one set-up of a workload in a fresh interpreter.

Usage (``benchkit.measure`` starts it; from the root of a checkout)::

    python3 perfbench/time_setup.py WORKLOAD SEED SIZE

Prints the reference seconds (see ``benchkit/clock.py``) from before
the first import of the program under test to the workload's inputs
being ready: imports, input generation, plan declaration and point
fingerprints, which is what a user waits before the first timed call.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from benchkit.clock import Clock, SpeedProbe  # noqa: E402


def main(argv) -> int:
    name, seed, size = argv
    speed = SpeedProbe()
    clock = Clock(speed)
    clock.calibrate()
    speed.start()
    try:
        with clock:
            from benchkit.workloads import WORKLOADS
            WORKLOADS[name](tiny=size == "tiny").setup(int(seed))
    finally:
        speed.stop()
    clock.calibrate()
    print(json.dumps(clock.reference()[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
