"""Self-test of the benchmark harness (not part of the tier-1 suite).

Run with ``python -m pytest perfbench/test_bench_harness.py``.  Nothing
here imports numpy or runs a workload.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import schema  # noqa: E402

ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_declares_every_emitted_metric(declared):
    end_to_end = {m["name"]: m for m in declared["end_to_end"]}
    assert set(end_to_end) == set(schema.END_TO_END)
    for name, (unit, better) in schema.END_TO_END.items():
        entry = end_to_end[name]
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert (entry["unit"], entry["better"]) == (unit, better)
        assert 0 < entry["bound"] <= 0.25
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values())
    per_layer = {m["name"]: m for m in declared["per_layer"]}
    assert list(per_layer) == list(schema.PER_LAYER)
    for name, unit in schema.PER_LAYER.items():
        assert set(per_layer[name]) == {"name", "unit", "better"}
        assert per_layer[name]["unit"] == unit
        assert per_layer[name]["better"] in ("higher", "lower")
    assert [w["name"] for w in declared["workloads"]] == list(
        schema.WORKLOADS)


def test_names_and_units_are_well_formed(declared):
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for workload in declared["workloads"]:
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_tail_rule_keeps_ten_samples_beyond():
    assert benchstats.tail_percentile(200) == 95.0
    assert benchstats.tail_percentile(199) == 90.0
    assert benchstats.tail_percentile(150) == 90.0
    assert benchstats.tail_percentile(1000) == 99.0
    assert benchstats.tail_percentile(20) == 50.0
    assert benchstats.tail_percentile(19) is None


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 201))
    assert benchstats.percentile(values, 50) == 100.5
    assert benchstats.percentile(values, 95) == pytest.approx(190.05)
    assert benchstats.percentile([7.0], 90) == 7.0


BASE = [10.0, 10.1, 10.2, 9.9, 10.0]


@pytest.mark.parametrize("new, better, expected", [
    ([11.5, 11.6, 11.4, 11.5, 11.6], "higher", "better"),
    ([8.5, 8.6, 8.4, 8.5, 8.6], "higher", "worse"),
    ([9.6, 9.7, 9.6, 9.7, 9.6], "higher", "unchanged"),
    ([8.5, 8.6, 8.4, 8.5, 8.6], "lower", "better"),
    ([11.5, 11.6, 11.4, 11.5, 11.6], "lower", "worse"),
])
def test_verdict_on_a_steady_base(new, better, expected):
    assert benchstats.verdict(BASE, new, better, 0.10) == expected


def test_verdict_single_sample_needs_a_gain_beyond_the_bound():
    assert benchstats.verdict([100.0], [99.0], "lower", 0.10) == "unchanged"
    assert benchstats.verdict([100.0], [85.0], "lower", 0.10) == "better"
    assert benchstats.verdict([100.0], [115.0], "lower", 0.10) == "worse"


def test_verdict_unresolved_when_base_spread_exceeds_bound():
    noisy = [7.0, 13.0, 10.0, 8.0, 12.0]
    assert benchstats.verdict(noisy, [8.5] * 5, "higher", 0.10) == "unresolved"
    assert benchstats.verdict(noisy, [13.5] * 5, "higher", 0.10) == "better"


def test_bench_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "embed-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
