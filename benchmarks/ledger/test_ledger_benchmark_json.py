"""``BENCHMARK.json`` follows the ledger's schema."""

import json
import os
import re

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_top_level_keys(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_paths_and_command_stay_inside_the_benchmark(bench):
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert os.path.isdir(os.path.join(ROOT, path))
    command = bench["command"]
    assert 1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)
    for part in command[1:]:
        if "/" in part:
            assert any(part.startswith(path + "/") for path in bench["paths"])


def test_workloads(bench):
    workloads = bench["workloads"]
    assert 2 <= len(workloads) <= 8
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_metrics(bench):
    end_to_end, per_layer = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    assert len(setup) == 1
    assert (setup[0]["unit"], setup[0]["better"]) == ("s", "lower")
    assert setup[0]["bound"] == max(m["bound"] for m in end_to_end)


def test_names_are_well_formed_and_unique(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_file_size(bench):
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
