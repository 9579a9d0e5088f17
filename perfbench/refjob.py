"""Fixed reference job: the yardstick for this machine's current speed.

``run.py`` starts this script as a fresh process right before every
timed CLI command, and reports each command's wall time also as a
multiple of this job's.  On a shared host the speed of a core drifts by
up to 2x over minutes; two jobs run back to back see much the same
speed, so the ratio keeps the program's cost and drops most of the
drift.

The job does what the CLI spends its time on, with no triscore code: it
starts the interpreter, imports numpy, decodes a JSON document of small
records and loops over them in Python.  Its input is fixed, so its work
is the same on every run and every commit.
"""

import json
import sys

import numpy as np

RECORDS = 30_000


def main() -> int:
    doc = json.dumps({"records": [
        {"lat": (i % 120) - 60.0, "lon": (i % 340) - 170.0,
         "pB": 0.2 + (i % 7) / 50, "pN": 0.3 + (i % 5) / 40, "obs": "BNA"[i % 3]}
        for i in range(RECORDS)
    ]})
    total = 0.0
    for r in json.loads(doc)["records"]:
        p = (r["pB"], r["pN"], 1.0 - r["pB"] - r["pN"])
        total += sum(x * x for x in p) + "BNA".index(r["obs"])
    total += float(np.sort(np.arange(RECORDS, dtype=float) % 97.0).sum())
    print(f"{total:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
