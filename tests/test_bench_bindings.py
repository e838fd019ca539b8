"""Tripwire for the names ``bench/`` binds in ``src/``.

``bench/layers.py`` wraps methods and module globals by name, and
``bench/loadgen.py`` drives the heal's phase methods and the
``WorkerGate`` turnstile itself.  A rename or a signature change there
breaks only the end-to-end bench run; this catches it in tier-1.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from repro.distributed.shardmgr import ShardManager
from repro.reactor.server import WorkerGate

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``bench/layers`` and ``bench/loadgen``, imported the way
    ``bench/run.py`` imports them (every import they make must
    resolve), and dropped from ``sys.modules`` afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("layers", "loadgen", "oracle")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("layers"), importlib.import_module("loadgen")
    for name in names:
        sys.modules.pop(name, None)


def test_every_wrapped_name_resolves(bench):
    layers, _loadgen = bench
    targets = [(owner, attr) for owner, attr, *_ in layers._targets()]
    targets.append((WorkerGate, "checkpoint"))
    for owner, attr in targets:
        assert callable(getattr(owner, attr, None)), (
            f"bench/layers.py wraps {getattr(owner, '__name__', owner)}"
            f".{attr}, which is gone"
        )


#: (callable, args, kwargs) as ``bench/loadgen.py`` calls them; methods
#: take a placeholder ``self``
CALL_SHAPES = [
    (ShardManager, ("cluster",), {"solution": "arthas", "seed": 1}),
    (ShardManager.note_verdict, ("mgr", 0), {}),
    (ShardManager.promote, ("mgr", 0), {"clock": None}),
    (ShardManager.mitigate,
     ("mgr", 0, "ctx", "scenario", "outcome", "detector"),
     {"gate": None, "mclock": None}),
    (ShardManager.rebuild, ("mgr", 0), {}),
    (ShardManager.cascade, ("mgr", 0, "run"), {}),
    (ShardManager.resync, ("mgr", 0), {"clock": None}),
    (WorkerGate, (), {}),
    (WorkerGate.checkpoint, ("gate",), {}),
    (WorkerGate.wait_parked, ("gate",), {}),
    (WorkerGate.resume, ("gate",), {}),
    (WorkerGate.close, ("gate",), {}),
]


@pytest.mark.parametrize(
    "fn,args,kwargs", CALL_SHAPES,
    ids=[shape[0].__qualname__ for shape in CALL_SHAPES],
)
def test_bench_call_shapes_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)
