"""CI gate — a floor on the ratio of two counters of the newest run.

``repro obs check`` compares runs of one commit, so it cannot see a
ratio lost between commits.  This script reads the newest run in the
ledger through ``repro obs-report --json`` and fails unless
``NUMERATOR / DENOMINATOR >= FLOOR``.  It also fails when
``obs-report`` warns that it left damaged run documents out: the run it
rendered might then not be the one the previous step recorded.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python scripts/ci_counter_floor.py NUMERATOR DENOMINATOR FLOOR
"""

import json
import subprocess
import sys


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    numerator, denominator, floor = argv[0], argv[1], float(argv[2])
    report = subprocess.run(
        [sys.executable, "-m", "repro.cli", "obs-report", "--json"],
        capture_output=True, text=True,
    )
    if report.returncode != 0 or "warning:" in report.stderr:
        raise SystemExit(
            f"obs-report did not render the newest run:\n{report.stderr}"
        )
    manifest = json.loads(report.stdout)
    counters = manifest["metrics"]["counters"]
    ratio = counters[numerator] / counters[denominator]
    print(f"{manifest['command']}: {numerator} / {denominator} = "
          f"{ratio:.2f} (floor {floor:.2f})")
    if ratio < floor:
        raise SystemExit(f"{ratio:.2f} is below the {floor:.2f} floor")


if __name__ == "__main__":
    main(sys.argv[1:])
