"""Record the oracle: every answer the workloads ask for, from this commit.

    python3 perfbench/freeze.py

Run it only on a commit whose answers are trusted; the benchmark checks
every later commit against the file it writes (``perfbench/oracle.json``).
An instance shared by two workloads must give both the same answers.
"""

import json
import sys

import run
import workloads as wl


def main() -> int:
    oracle = {}
    for name in wl.WORKLOADS:
        s = run.spawn(name, 0)
        if s["errors"]:
            print(f"{name}: questions raised {s['errors']}", file=sys.stderr)
            return 1
        for key, value in s["answers"].items():
            if oracle.setdefault(key, value) != value:
                print(f"{key}: workloads disagree", file=sys.stderr)
                return 1
    with open(run.ORACLE, "w") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(oracle)} answers to {run.ORACLE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
