"""The benchmark's own checks.

    python3 -m pytest perfbench/test_bench.py

Runs the real child processes, so it takes about half a minute.
"""

from __future__ import annotations

import pytest

import run
import workloads

SEED = 7


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_across_processes(workload):
    # two fresh pinned processes: same arena, same pair visits, same
    # enumeration steps, so the iteration order really is pinned
    directory = run.WORK / f"test-{workload}"
    workloads.generate(workload, SEED, directory)
    runs = run.Runs(directory / "spec.json")
    first, second = runs.child("counts"), runs.child("counts")
    assert first is not None and second is not None
    assert first["counts"] == second["counts"]
    assert runs.failed == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    a = workloads.generate(workload, SEED, tmp_path / "a")
    b = workloads.generate(workload, SEED, tmp_path / "b")
    c = workloads.generate(workload, SEED + 1, tmp_path / "c")
    read = lambda spec: open(spec["document"], encoding="utf-8").read()
    assert read(a) == read(b)
    assert read(a) != read(c)
    assert a["expected"] == b["expected"]


def test_checks_reject_wrong_outputs(tmp_path):
    spec = workloads.generate("scan", SEED, tmp_path)
    right = sorted(workloads.expected_set(spec["expected"]))
    assert workloads.check(spec["expected"], right) is None
    assert workloads.check(spec["expected"], right[1:]) is not None
    assert workloads.check(spec["expected"], right + right[:1]) is not None
    tree = workloads.generate("spanner-tree", SEED, tmp_path / "tree")
    spans = sorted(workloads.expected_set(tree["expected"]))
    assert workloads.check(tree["expected"], spans) is None
    assert workloads.check(tree["expected"], spans[1:] + ["x=[1,1)"]) is not None
    enum = workloads.generate("enum", SEED, tmp_path / "enum")
    first = enum["expected"]["positions"][0]
    words = [
        " ".join(f"{'uv'[(i >> j) & 1]}@{p}" for j, p in enumerate(enum["expected"]["positions"]))
        for i in range(enum["expected"]["limit"])
    ]
    assert workloads.check(enum["expected"], words) is None
    bad = words[:-1] + [words[-1].replace(f"@{first} ", f"@{first + 1} ", 1)]
    assert workloads.check(enum["expected"], bad) is not None
