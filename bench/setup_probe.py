"""Set-up of one workload in a fresh interpreter, timed by run.py for setup_s.

Imports asymwell, builds the seeded input list and makes the warm-up call,
then prints ``ready``: the first operation could start now.

    python bench/setup_probe.py WORKLOAD SEED
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
{"step-survey": workloads.survey_inputs, "numerov-smooth": workloads.numerov_inputs,
 "cli-cold": workloads.cli_inputs}[name](seed)
workloads.warm_up(name)
print("ready", flush=True)
