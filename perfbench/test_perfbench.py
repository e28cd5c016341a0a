"""Self-test of the benchmark: every workload once at a tiny size.

    python3 -m pytest perfbench

It checks that every metric named in BENCHMARK.json is emitted, that the
outputs match the committed digests, and that tracing leaves the bytes
`cli.main` prints unchanged.
"""

import json

import pytest

import checks
import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_possible_argv_has_a_digest():
    digests = checks.load_digests()
    for choices, build in WORKLOADS.values():
        for tiny in (False, True):
            for choice in choices:
                for argv in build(choice, tiny):
                    assert checks.argv_key(argv) in digests


def test_reference_times_cover_every_op_slot():
    times = run.load_reference_times()
    for name, (choices, build) in WORKLOADS.items():
        for size in run.SIZES:
            assert len(times["ops"][name][size]) == len(build(choices[0], size == "tiny"))


def test_oracles_reject_a_wrong_output():
    out = {"command": "chern", "surface": "blowup:p2:1", "n": 2, "numbers": {"4": "13"}}
    assert checks.oracle_problems(["chern"], out, None)  # e(Hilb^2) of a 4-ray surface is 14
    out["numbers"]["4"] = "14"
    assert not checks.oracle_problems(["chern"], out, None)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run(workload):
    result, passes, _ = run.measure(workload, seed=0, seconds=0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    result, passes, _ = run.measure(workload, seed=0, seconds=0, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    want = checks.load_digests()
    for traced_pass in passes["traced"]:
        for op in traced_pass:
            assert checks.digest(op.stdout) == want[checks.argv_key(op.argv)]
    for plain, traced in zip(passes["program"][0], passes["traced"][0]):
        assert plain.stdout.encode() == traced.stdout.encode()
