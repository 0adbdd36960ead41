"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Imports hypwalk, then builds every call's model and measure as the program
does, and prints the seconds this took.
"""

import sys
import time

import harness

start = time.perf_counter()
harness.import_program()
from hypwalk import config  # noqa: E402

for _, spec in harness.workload_configs(sys.argv[1], int(sys.argv[2])):
    config.build_measure(config.build_model(spec["model"]), spec["measure"])
print(time.perf_counter() - start)
