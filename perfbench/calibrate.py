"""Record the reference program's CPU times in perfbench/reference/times.json.

    python3 perfbench/calibrate.py

Run from the root of a source checkout, on the host whose speed the
benchmark's times are to be expressed in.  It runs the reference program
(perfbench/reference/hilbloc) against itself the way run.py pairs it with
the program: two processes at once, pinned to one CPU.  For every argv
of a workload's pass (each op slot, at full and at tiny size) it records
the median CPU time inside cli.main over every choice the seed can make,
and for start-up the median CPU time to the end of `import hilbloc.cli`.
A slot gets one time for all choices, which are of equal cost, so that
the seed does not change the scale.
Every output must match its committed digest.  The file is a scale, made
once: re-recording it changes every time the benchmark reports.
"""

from __future__ import annotations

import json
import statistics
import sys

import checks
from run import REFERENCE_PROGRAM, REFERENCE_TIMES, SIZES, OpResult, probe_setup_cpu, run_together
from workloads import WORKLOADS

CYCLES = 2  # passes over every workload, choice and op, to spread the samples in time
SETUP_PAIRS = 11


def main() -> int:
    digests = checks.load_digests()
    samples: dict = {}  # (workload, size, op index) -> CPU times over choices and cycles
    for _ in range(CYCLES):
        for name, (choices, build) in WORKLOADS.items():
            for size in SIZES:
                for choice in choices:
                    for i, argv in enumerate(build(choice, size == "tiny")):
                        pair = [OpResult(argv, REFERENCE_PROGRAM) for _ in range(2)]
                        run_together(pair)
                        for op in pair:
                            if op.problems or checks.digest(op.stdout) != digests.get(checks.argv_key(argv)):
                                print(f"FAILED {checks.argv_key(argv)}: {op.problems or 'digest mismatch'}",
                                      file=sys.stderr)
                                return 1
                            samples.setdefault((name, size, i), []).append(op.report["main_cpu_s"])
    ops: dict = {}
    for (name, size, i), cpu in sorted(samples.items()):
        ops.setdefault(name, {}).setdefault(size, []).append(statistics.median(cpu))
        print(f"{statistics.median(cpu):8.3f} s  {name} {size} op {i}  ({len(cpu)} samples)", flush=True)
    setup = [cpu for _ in range(SETUP_PAIRS) for cpu in probe_setup_cpu((REFERENCE_PROGRAM, REFERENCE_PROGRAM))]
    times = {"setup_cpu_s": statistics.median(setup), "ops": ops}
    print(f"{times['setup_cpu_s']:8.3f} s  set-up")
    REFERENCE_TIMES.write_text(json.dumps(times, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
