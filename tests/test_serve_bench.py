"""serve-bench judges only mitigation windows that both sides sampled.

``bench_live_traffic`` runs the live recovery server twice; here the
server is a stub returning canned reports, so each test is instant and
pins only how the bench reads them.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.harness.serve_bench import bench_live_traffic
from repro.reactor import server as server_module


def _stats(count: int, p99: float) -> Dict[str, float]:
    value = p99 if count else 0.0
    return {"count": count, "p50": value / 2, "p99": value,
            "p999": value, "max": value, "mean": value / 2}


def _report(count: int, p99: float) -> Dict[str, object]:
    """The keys of a ``LiveRecoveryServer.run`` report the bench reads."""
    return {
        "wall_seconds": 1.0,
        "latency": _stats(200, p99),
        "during_mitigation": _stats(count, p99),
        "detection_backlog": _stats(0, 0.0),
        "steady": _stats(200, 0.001),
        "error_budget": {"burned": 3, "budget": 64},
        "quarantine": {"ranges": 2, "locked_words": 40, "stream_keys": [1, 2]},
        "mitigation": {"recovered": True, "wall_seconds": 0.5,
                       "analysis_seconds": 0.1, "reactor_requests": 1},
        "unavailable": False,
        "digest_after_mitigation": "d1",
        "final_digest": "d2",
    }


@pytest.fixture
def windows(monkeypatch) -> Dict[str, tuple]:
    """mode -> (during-mitigation count, p99) the stub server reports."""
    canned: Dict[str, tuple] = {}

    class StubServer:
        def __init__(self, fid, mode, **_kwargs) -> None:
            self.mode = mode

        def run(self, n_requests, arrival_period_s):
            return _report(*canned[self.mode])

    monkeypatch.setattr(server_module, "LiveRecoveryServer", StubServer)
    return canned


def test_empty_scoped_window_raises(windows):
    windows.update({"quarantine": (0, 0.0), "stop-the-world": (40, 0.5)})
    with pytest.raises(RuntimeError, match="quarantine serving sampled 0"):
        bench_live_traffic()


def test_empty_stop_the_world_window_raises(windows):
    windows.update({"quarantine": (40, 0.05), "stop-the-world": (0, 0.0)})
    with pytest.raises(RuntimeError, match="stop-the-world serving sampled 0"):
        bench_live_traffic()


def test_sampled_windows_build_the_section(windows):
    windows.update({"quarantine": (30, 0.05), "stop-the-world": (40, 0.5)})
    section = bench_live_traffic()
    assert section["stw_over_scoped_p99_ratio"] == pytest.approx(10.0)
    assert section["quarantine"]["during_mitigation"]["count"] == 30
    assert section["stop_the_world"]["during_mitigation"]["count"] == 40
    assert section["quarantine"]["quarantine"]["stream_keys"] == 2
    assert section["digests_identical"] and section["recovered"]
