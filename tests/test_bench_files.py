"""Every committed BENCH_*.json parses and gives before and after per metric."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_before_and_after_for_each_metric(path):
    doc = json.loads(path.read_text())
    metrics = doc["metrics"]
    assert metrics
    for name, m in metrics.items():
        assert {"before", "after"} <= m.keys(), name
