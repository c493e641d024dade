"""Record the digests of the CLI tables that the cli-cold workload checks.

    python3 bench/make_goldens.py

Run it only at a commit whose tables are known to be right: the benchmark then
requires byte-identical output for every standard configuration.
"""
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

goldens = {}
for name, args in workloads.CLI_CONFIGS.items():
    _, code, out, _ = run.spawn([sys.executable, "-m", "asymwell.report", *args])
    if code != 0:
        sys.exit(f"{name}: exit code {code}")
    goldens[name] = workloads.digest(out)
workloads.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
