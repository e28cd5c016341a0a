"""Run one hilbloc CLI call in this fresh interpreter and report on it.

    python3 child.py probe               # start up and import only
    python3 child.py <0|1> <cli args...>  # one call, traced when 1

Prints one JSON line: when `import hilbloc.cli` finished (perf_counter,
which is system-wide on Linux), the CPU time the process had used by then
and, for a call, its exit code, captured stdout, wall and CPU time inside
cli.main, the process's CPU time, peak RSS and, when traced, the layer
metrics.
"""

import time

import hilbloc.cli

READY = time.perf_counter()
READY_CPU = time.process_time()

import contextlib  # noqa: E402  (imports after READY are not set-up time)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def call(argv: list, traced: bool) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            code = hilbloc.cli.main(argv)
    except SystemExit as exc:  # argparse errors and verify failures exit
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # the op failed; report it rather than die silently
        code = None
        error = traceback.format_exc()
    main_s = time.perf_counter() - t0
    main_cpu_s = time.process_time() - c0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stdout = out.getvalue()
    cpu_s = usage.ru_utime + usage.ru_stime
    report = {
        "ready": READY,
        "ready_cpu_s": READY_CPU,
        "exit": code,
        "error": error,
        "stdout": stdout,
        "main_s": main_s,
        "main_cpu_s": main_cpu_s,
        "cpu_s": cpu_s,
        "maxrss_kb": usage.ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(main_cpu_s, len(stdout.encode()), cpu_s)
    return report


if __name__ == "__main__":
    if sys.argv[1:] == ["probe"]:
        report = {"ready": READY, "ready_cpu_s": READY_CPU}
    else:
        report = call(sys.argv[2:], sys.argv[1] == "1")
    sys.stdout.write(json.dumps(report) + "\n")
