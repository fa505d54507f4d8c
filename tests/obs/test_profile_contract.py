"""Output contract of the event-loop profile report.

Tooling (and humans diffing two commits' reports) rely on the header
line and the table shape staying stable, and on rows naming
continuation classes rather than closures.  These tests pin that
contract against a freshly profiled replay.
"""

import re

from repro.config import EngineConfig
from repro.engine import ServingEngine
from repro.models import get_model
from repro.obs import EventLoopProfiler
from repro.workload import WorkloadSpec, generate_trace

HEADER_RE = re.compile(
    r"^event loop: (?P<events>\d+) events in (?P<wall>\d+\.\d{3})s wall "
    r"\((?P<eps>[\d,]+) events/s, sampled 1/(?P<every>\d+)\)$"
)


def profiled_report(n_sessions: int = 40, sample_every: int = 4):
    engine = ServingEngine(
        get_model("llama-13b"), engine_config=EngineConfig(batch_size=8)
    )
    profiler = EventLoopProfiler(sample_every=sample_every)
    profiler.install(engine.sim)
    result = engine.run(generate_trace(WorkloadSpec(n_sessions=n_sessions, seed=7)))
    return profiler.report(), result


class TestFormattedReport:
    def test_header_line_contract(self):
        report, result = profiled_report(sample_every=8)
        header = report.format().splitlines()[0]
        match = HEADER_RE.match(header)
        assert match, header
        assert int(match["events"]) == result.events_processed
        assert int(match["every"]) == 8

    def test_table_shape(self):
        report, _ = profiled_report()
        lines = report.format().splitlines()
        # Header, column row, separator, then one line per callback row.
        columns = lines[1]
        for name in ("callback", "count", "sampled", "mean µs", "est total s", "share"):
            assert name in columns, columns
        assert set(lines[2]) <= {"-", " "}, lines[2]
        body = lines[3:]
        assert len(body) == len(report.rows)
        for line, row in zip(body, report.rows):
            assert line.lstrip().startswith(row.name), (line, row.name)
            assert line.rstrip().endswith("%"), line

    def test_rows_name_continuation_classes_not_closures(self):
        """Engine events dispatch through slotted continuation instances,
        so profile rows carry class names — a ``<locals>`` qualname means
        a per-event closure crept back into the turn path."""
        report, _ = profiled_report()
        names = {row.name for row in report.rows}
        assert any(
            name in names for name in ("DecodeChunkDone", "PrefillSliceDone")
        ), names
        engine_rows = {n for n in names if "<locals>" in n}
        assert not engine_rows, engine_rows
