"""The benchmark's tracer patches program entry points by name: pin them.

``perfbench/tracer.py`` wraps methods through ``cls.__dict__[attr]`` and
reads engine counters from ``EngineStats.as_dict()``.  A refactor that
moves a traced method into a base class, or drops a counter, would break
``perfbench/run.py --trace 1`` without failing any other test.  The
tracer is loaded from source (no bytecode written under ``perfbench/``).
"""

import runpy
from pathlib import Path

import pytest

from repro.engine import EngineStats

TRACER = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))


@pytest.mark.parametrize("owner,attr",
                         [(owner, attr) for owner, attr, *_ in TRACER["PATCHES"]])
def test_patch_target_exists(owner, attr):
    target = TRACER["_resolve"](owner)
    if isinstance(target, type):
        assert attr in vars(target), f"{owner} no longer defines {attr}"
    else:
        assert callable(getattr(target, attr, None)), f"{owner}.{attr} is gone"


def test_engine_counts_are_stats_keys():
    missing = set(TRACER["ENGINE_COUNTS"]) - set(EngineStats().as_dict())
    assert not missing, sorted(missing)
