"""Record the expected output digest of every argv the workloads can make.

    python3 perfbench/make_digests.py

Run from the root of a source checkout whose outputs are known to be
right.  Every output must pass the oracles in checks.py before its digest
is written to perfbench/digests.json.
"""

from __future__ import annotations

import json
import sys

import checks
from run import SRC, OpResult, run_together
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    from hilbloc import verify as references

    seen: dict = {}  # argv key -> OpResult, so shared argv run once
    digests = {}
    bad = 0
    for name, (choices, build) in WORKLOADS.items():
        for tiny in (True, False):
            for choice in choices:
                ops = build(choice, tiny)
                for argv in ops:
                    key = checks.argv_key(argv)
                    if key not in seen:
                        seen[key] = OpResult(argv)
                        run_together([seen[key]])
                        print(f"{seen[key].report.get('main_s', 0):8.2f} s  {key}", flush=True)
                results = [seen[checks.argv_key(argv)] for argv in ops]
                own = {checks.argv_key(r.argv): checks.digest(r.stdout) for r in results}
                found = checks.check_pass(ops, [r.stdout for r in results], own, references)
                for r, problems in zip(results, found):
                    if r.problems or problems:
                        bad += 1
                        print(f"FAILED {checks.argv_key(r.argv)}: {r.problems + problems}", file=sys.stderr)
                digests.update(own)
    if bad:
        return 1
    checks.DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
