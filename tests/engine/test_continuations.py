"""Engine events are slotted continuation instances, never closures.

Host-time tooling (``perfbench/run.py --trace 1``) times each
continuation class as ``engine.<ClassName>``; a per-event closure would
hide its cost under a ``<locals>`` qualname and cost an allocation per
event.  The test records every callback a replay schedules.
"""

import pytest

from repro.config import EngineConfig, StoreConfig
from repro.engine import ServingEngine
from repro.models import MiB, get_model
from repro.sim.loop import Simulator
from repro.workload import WorkloadSpec, generate_trace


def scheduled_qualnames(**engine_kwargs) -> set[str]:
    """Qualnames of the callbacks a small replay schedules."""
    names: set[str] = set()
    at, after = Simulator.at, Simulator.after

    def record(schedule):
        def spy(sim, when, callback):
            # A function carries its own qualname; an instance, its class's.
            names.add(getattr(callback, "__qualname__", type(callback).__qualname__))
            schedule(sim, when, callback)

        return spy

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "at", record(at))
        patch.setattr(Simulator, "after", record(after))
        engine = ServingEngine(get_model("llama-13b"), **engine_kwargs)
        engine.run(generate_trace(WorkloadSpec(n_sessions=40, seed=7)))
    return names


TURN_PATH = {"SessionStart", "PrefillSliceDone", "DecodeChunkDone", "NextTurnTimer"}


@pytest.mark.parametrize(
    "engine_kwargs, expected",
    [
        ({"engine_config": EngineConfig(batch_size=8)}, TURN_PATH),
        (
            {
                "engine_config": EngineConfig(batch_size=8, enable_async_save=False),
                "store_config": StoreConfig(dram_bytes=300 * MiB, ttl_seconds=300.0),
            },
            TURN_PATH | {"SaveBlockDone", "TtlSweep", "FetchDone"},
        ),
    ],
    ids=["default", "sync-save-tight-dram-ttl"],
)
def test_scheduled_callbacks_are_continuation_classes(engine_kwargs, expected):
    names = scheduled_qualnames(**engine_kwargs)
    closures = {name for name in names if "<locals>" in name or "<lambda>" in name}
    assert not closures, closures
    assert expected <= names, names
