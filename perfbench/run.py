"""Cold-process benchmark of the hilbloc CLI.

    python3 perfbench/run.py --workload chern --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each workload runs as a closed
loop with one client: one op at a time, each op a `hilbloc.cli.main(argv)`
call in a fresh interpreter (perfbench/child.py).  HILBLOC_* and PYTHON*
variables are removed from the child's environment, so every op pays the
cold `lru_cache` cost a CLI user pays and a developer's shell cannot
change the numbers.  A pass runs the workload's ops once; passes repeat
while another one is expected to end within --seconds, and there is
always at least one.

With --trace 0 every op runs at the same time as the same op of the
reference program, a frozen copy of hilbloc kept in perfbench/reference,
with both processes pinned to one CPU, so the kernel shares that CPU
between them and both see the same host speed.  The end-to-end times are
the program's CPU time over the reference's, op by op, times the
reference's own CPU time in perfbench/reference/times.json: seconds at
the speed the host had when that file was made.  On a shared host whose
speed drifts by tens of percent within seconds, this ratio repeats to
within about one percent, where plain wall time does not.

With --trace 1 every op runs untraced at the same time as traced, pinned
the same way, and the run reports the per-layer metrics of
perfbench/tracer.py.  Every
op's output is checked against committed digests and independent oracles
(perfbench/checks.py); an op that exits non-zero, prints a traceback or
gives a wrong output counts as failed.  The last line of stdout is the
result as JSON; a record with host notes and every sample goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
from workloads import WORKLOADS, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"  # holds the frozen hilbloc package
REFERENCE_TIMES = REFERENCE / "times.json"

SETUP_PROBES = 5  # extra start-up-only process pairs per run, for setup_s
OP_TIMEOUT_S = 120
MAX_METRICS = ("cobordism.max_basis_dim", "rings.gauss_max_n")
END_TO_END_UNITS = {"main_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SIZES = ("full", "tiny")


class Side(NamedTuple):
    """Which program an op process runs, and whether it is traced."""

    name: str
    src: Path
    traced: bool


PROGRAM = Side("program", SRC, False)
REFERENCE_PROGRAM = Side("reference", REFERENCE, False)
TRACED = Side("traced", SRC, True)


class OpResult:
    """One op: a CLI call in its own interpreter, and what its checks found."""

    def __init__(self, argv: list, side: Side = PROGRAM):
        self.argv = argv
        self.side = side
        self.problems: list[str] = []
        self.report: dict = {}
        self.setup_s = None
        self.proc = None

    def start(self) -> None:
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), "1" if self.side.traced else "0", *self.argv],
            env=child_env(self.side.src), cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=pin_to_pair_cpu,
        )

    def finish(self, deadline: float) -> None:
        try:
            stdout, stderr = self.proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.problems.append(f"timed out after {OP_TIMEOUT_S} s")
            return
        if "Traceback" in stderr:
            self.problems.append("traceback on stderr")
        try:
            self.report = json.loads(stdout.splitlines()[-1])
        except (IndexError, ValueError):
            self.problems.append(f"no report from the op process (exit {self.proc.returncode})")
            return
        self.setup_s = self.report["ready"] - self.t0
        if self.report["error"]:
            self.problems.append(self.report["error"].strip().splitlines()[-1])
        if self.report["exit"] != 0:
            self.problems.append(f"exit code {self.report['exit']}")

    @property
    def stdout(self) -> str:
        return self.report.get("stdout", "")


PAIR_CPU = min(os.sched_getaffinity(0))


def pin_to_pair_cpu() -> None:
    os.sched_setaffinity(0, {PAIR_CPU})


def run_together(ops: list) -> None:
    """Start the op processes, pinned to one CPU, then wait for all of them;
    none outlives this."""
    try:
        for op in ops:
            op.start()
        deadline = time.perf_counter() + OP_TIMEOUT_S
        for op in ops:
            op.finish(deadline)
    finally:
        for op in ops:
            if op.proc is not None and op.proc.poll() is None:
                op.proc.kill()
                op.proc.communicate()


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("HILBLOC_", "PYTHON"))}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_setup_cpu(sides: tuple) -> list:
    """Start one process per side together, pinned, up to the end of
    `import hilbloc.cli`; the CPU time each had used by then."""
    procs = []
    try:
        for side in sides:
            procs.append(subprocess.Popen(
                [sys.executable, str(CHILD), "probe"], env=child_env(side.src), cwd=ROOT, text=True,
                stdout=subprocess.PIPE, preexec_fn=pin_to_pair_cpu,
            ))
        return [json.loads(p.communicate(timeout=OP_TIMEOUT_S)[0])["ready_cpu_s"] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.communicate()


def run_round(ops: list, sides: tuple, digests: dict, references) -> dict:
    """One pass per side.  Each op runs on every side at once, so that the
    sides see the same host conditions."""
    results = {side.name: [] for side in sides}
    for argv in ops:
        group = [OpResult(argv, side) for side in sides]
        run_together(group)
        for op in group:
            results[op.side.name].append(op)
    for kind_results in results.values():
        found = checks.check_pass(ops, [r.stdout for r in kind_results], digests, references)
        for result, problems in zip(kind_results, found):
            result.problems.extend(problems)
    return results


def pass_cpu(results: list) -> float:
    return sum(r.report.get("main_cpu_s", 0.0) for r in results)


def pass_layers(results: list) -> dict:
    """Layer metrics of one traced pass: summed over ops, maxima for sizes."""
    total: dict = {}
    for r in results:
        for name, value in r.report.get("layers", {}).items():
            total[name] = max(total.get(name, 0), value) if name in MAX_METRICS else total.get(name, 0) + value
    return total


def ratio(program: OpResult, reference: OpResult, key: str) -> float:
    return program.report[key] / reference.report[key]


def load_reference_times() -> dict:
    return json.loads(REFERENCE_TIMES.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run the workload for about `seconds`.

    Returns the result object, the passes ({side name: [[OpResult, ...], ...]})
    and the set-up probe ratios (program over reference; empty when traced).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from hilbloc import verify as references  # the published twist-series tables

    ops = make_ops(workload, seed, tiny)
    digests = checks.load_digests()
    if trace:
        sides, setups = (PROGRAM, TRACED), []
    else:
        sides = (PROGRAM, REFERENCE_PROGRAM)
        times = load_reference_times()
        setups = [program / reference for program, reference in
                  (probe_setup_cpu((PROGRAM, REFERENCE_PROGRAM)) for _ in range(SETUP_PROBES))]
    passes = {side.name: [] for side in sides}
    round_s = []
    deadline = time.perf_counter() + seconds
    # A round is one pass of each side, in alternating order.  After the
    # first, go on only while another round is expected to end before the
    # deadline, so that a run lasts about `seconds` or one round, whichever
    # is longer.
    while True:
        t0 = time.perf_counter()
        order = sides if len(round_s) % 2 == 0 else sides[::-1]
        for name, results in run_round(ops, order, digests, references).items():
            passes[name].append(results)
        round_s.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(round_s) > deadline:
            break

    program = passes["program"]
    failed = sum(1 for p in program for r in p if r.problems)
    attempted = sum(map(len, program))
    if trace:
        failed += sum(1 for p in passes["traced"] for r in p if r.problems)
        attempted *= 2
        layer_passes = [pass_layers(p) for p in passes["traced"]]
        metrics = {
            name: {"value": statistics.median(lp[name] for lp in layer_passes), "unit": layer_unit(name)}
            for name in layer_passes[0]
        }
        overhead = statistics.median(pass_cpu(t) / pass_cpu(p) for t, p in zip(passes["traced"], program)) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    else:
        bad = [r for p in passes["reference"] for r in p if r.problems]
        if bad:
            raise RuntimeError(f"the reference program failed on {' '.join(bad[0].argv)}: {bad[0].problems}")
        # (program op, reference op) of every op of every pass, by op
        pairs = [[(p[i], r[i]) for p, r in zip(program, passes["reference"]) if not p[i].problems]
                 for i in range(len(ops))]
        # Per op: median over passes of the program's CPU time over the
        # reference's, times the reference's CPU time for that op slot.
        main_cpu_s = sum(
            statistics.median(ratio(p, r, "main_cpu_s") for p, r in op_pairs) * slot_s
            for slot_s, op_pairs in zip(times["ops"][workload][SIZES[tiny]], pairs) if op_pairs
        )
        setups += [ratio(p, r, "ready_cpu_s") for op_pairs in pairs for p, r in op_pairs]
        values = {
            "main_cpu_s": main_cpu_s,
            "setup_s": statistics.median(setups) * times["setup_cpu_s"],
            "peak_rss_mb": max(r.report.get("maxrss_kb", 0) for p in program for r in p) / 1024,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    result = {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, passes, setups


def samples(passes: dict, setups: list) -> dict:
    """Every measurement of a run, for the record file."""
    return {
        "setup_probe_ratios": setups,
        "passes": [
            {
                "side": name,
                "ops": [
                    {
                        "argv": r.argv,
                        "setup_s": r.setup_s,
                        "ready_cpu_s": r.report.get("ready_cpu_s"),
                        "main_s": r.report.get("main_s"),
                        "main_cpu_s": r.report.get("main_cpu_s"),
                        "cpu_s": r.report.get("cpu_s"),
                        "maxrss_kb": r.report.get("maxrss_kb"),
                        "digest": checks.digest(r.stdout),
                        "problems": r.problems,
                        "layers": r.report.get("layers"),
                    }
                    for r in p
                ],
            }
            for name, side_passes in passes.items()
            for p in side_passes
        ],
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_notes(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, leave through the `finally` blocks that stop the op processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "hilbloc" / "cli.py").is_file():
        print(f"error: no hilbloc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    notes = host_notes(args.seed)
    result, passes, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for side_passes in passes.values():
        for r in (r for p in side_passes for r in p if r.problems):
            print(f"FAILED {' '.join(r.argv)}: {'; '.join(r.problems)}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds, "host": notes,
              "result": result, "samples": samples(passes, setups)}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    print("host: " + " ".join(f"{k}={v}" for k, v in notes.items()))
    print(f"ops: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4f})")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
