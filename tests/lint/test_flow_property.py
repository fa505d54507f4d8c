"""Property tests: generated synthetic modules are classified correctly.

The generators mirror the analyzer's seeded bug patterns — epoch-guard
discipline and the store's exactly-one-copy protocol — and build small
random modules whose ground truth is known by construction.  The
property under test is *no false negatives on the seeded patterns* (and
no false positives on the corresponding safe constructions).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from flow_helpers import analyze_sources

# ---------------------------------------------------------------------------
# Epoch-guard generator
# ---------------------------------------------------------------------------

_MUTATIONS = (
    "engine.fire({arg})",
    "engine.retire({arg})",
    "engine.counter = {arg}",
)


@st.composite
def continuation_module(draw: st.DrawFn) -> tuple[str, bool]:
    """(module source, expects_finding) for one continuation class."""
    guard = draw(st.sampled_from(["eq", "neq-return", "none"]))
    n_mutations = draw(st.integers(min_value=1, max_value=3))
    alias = draw(st.booleans())
    receiver = "engine" if alias else "self.engine"
    mutations = [
        "        "
        + ("    " if guard == "eq" else "")
        + _MUTATIONS[i % len(_MUTATIONS)].format(arg=i).replace(
            "engine.", f"{receiver}."
        )
        for i in range(n_mutations)
    ]
    lines = [
        "class Generated:",
        '    __slots__ = ("engine", "epoch")',
        "",
        "    def __init__(self, engine: object, epoch: int) -> None:",
        "        self.engine = engine",
        "        self.epoch = epoch",
        "",
        "    def __call__(self) -> None:",
    ]
    if alias:
        lines.append("        engine = self.engine")
    if guard == "eq":
        lines.append(f"        if {receiver}._epoch == self.epoch:")
    elif guard == "neq-return":
        lines.append(f"        if {receiver}._epoch != self.epoch:")
        lines.append("            return")
    lines.extend(mutations)
    lines.append("")
    return "\n".join(lines), guard == "none"


@given(continuation_module())
@settings(max_examples=60, deadline=None)
def test_epoch_guard_classification(case: tuple[str, bool]) -> None:
    source, expects_finding = case
    findings = [
        f
        for f in analyze_sources({"gen": source})
        if f.rule == "epoch-guard"
    ]
    if expects_finding:
        assert findings, source
    else:
        assert not findings, source


# ---------------------------------------------------------------------------
# Store-protocol generator
# ---------------------------------------------------------------------------


@st.composite
def protocol_module(draw: st.DrawFn) -> tuple[str, set[str]]:
    """(module source, expected finding kinds) for one migration function."""
    expected: set[str] = set()
    body: list[str] = []
    body.append("    item = store.kv.extract(sid)")
    double = draw(st.booleans())
    if double:
        body.append("    item2 = store.kv.extract(sid)")
        expected.add("use-after-extract")
    outcome = draw(
        st.sampled_from(["admit", "discard", "loss", "escape", "leak"])
    )
    if outcome == "admit":
        body.append("    dest.kv.admit_migrated(item)")
    elif outcome == "discard":
        body.append("    store.kv.discard_stale(sid)")
    elif outcome == "loss":
        body.append("    store.kv.record_migration_loss()")
    elif outcome == "escape":
        body.append("    queue.push(item)")
    else:
        expected.add("unaccounted")
    if double:
        # The second copy follows the same fate as the first only in the
        # admit/escape cases; otherwise discard/loss/decommission already
        # account for every copy, and a leak leaks both.
        if outcome == "admit":
            body.append("    dest.kv.admit_migrated(item2)")
        elif outcome == "escape":
            body.append("    queue.push(item2)")
        elif outcome == "leak":
            pass  # both copies leak; one finding per extract site
    src = (
        "def generated(store: object, dest: object, queue: object, sid: int)"
        " -> None:\n" + "\n".join(body) + "\n"
    )
    return src, expected


@given(protocol_module())
@settings(max_examples=60, deadline=None)
def test_protocol_classification(case: tuple[str, set[str]]) -> None:
    source, expected = case
    findings = [
        f
        for f in analyze_sources({"gen": source})
        if f.rule == "store-protocol"
    ]
    kinds = {f.key.split("|", 1)[0] for f in findings}
    # No false negatives on the seeded kinds...
    assert expected <= kinds, (source, sorted(kinds))
    # ...and no invented kinds beyond the seeded ones.
    assert kinds <= expected, (source, sorted(kinds))
