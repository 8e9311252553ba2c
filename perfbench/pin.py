"""Write references.json: the seed-0 results of every workload on the current code.

Run from the repository root:  python3 perfbench/pin.py
The pinned values are the paper's work counts and the solver's outputs, so
re-pin only for a change that is meant to alter them.
"""

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    er = workloads.import_package(Path.cwd())
    references = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(er, name, 0)
        result = workload.run()
        try:
            summary, problems = workload.check(result, None)
        finally:
            workload.cleanup(result)
        if problems:
            sys.exit(f"{name}: " + "; ".join(problems))
        references[name] = summary
        print(name, "n", summary["n"], "cost_total", summary["cost_total"])
    workloads.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
