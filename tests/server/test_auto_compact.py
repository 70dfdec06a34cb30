"""The server's background compactor (``QueryServer(auto_compact=...)``)."""

from __future__ import annotations

import time

from repro.core.descriptor import Descriptor
from repro.core.udatabase import CompactionPolicy, UDatabase
from repro.core.urelation import URelation, tid_column
from repro.obs import metrics_snapshot
from repro.server import QueryServer


def test_background_compactor_keeps_segment_stacks_under_the_policy():
    """Every completed write wakes the thread; it compacts what the policy
    says is due, readers never notice, and ``close()`` stops it."""
    udb = UDatabase()
    tid = tid_column("events")
    udb.add_relation(
        "events",
        ["id", "kind"],
        [
            URelation.build([(Descriptor(), 0, (0,))], tid, ["id"]),
            URelation.build([(Descriptor(), 0, ("k0",))], tid, ["kind"]),
        ],
    )
    server = QueryServer(udb, workers=1, auto_compact=CompactionPolicy(segment_limit=2))
    thread = server._compact_thread
    try:
        assert thread is not None and thread.is_alive()
        session = server.session()
        for i in range(1, 21):
            assert session.execute(f"insert into events values ({i}, 'k{i}')").count == 1
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            health = udb.segment_health(publish=False)
            if all(part["segment_count"] <= 2 for part in health.values()):
                break
            time.sleep(0.02)
        health = udb.segment_health(publish=False)
        assert sorted(health) == ["events/part0", "events/part1"]
        # 21 one-row segments each, had nothing compacted
        assert all(part["segment_count"] <= 2 for part in health.values()), health
        assert all(part["live_rows"] == 21 for part in health.values())
        answer = session.execute("possible (select id, kind from events)")
        assert sorted(answer.rows) == sorted((i, f"k{i}") for i in range(21))
        # the definitions followed the background rewrites
        assert len(udb.index_defs()) == 4
        # the loop swallows what a pass raises, and counts it: nothing was
        counters = metrics_snapshot()["counters"]
        assert counters["compactions_total"]["relation=events"] >= 1
        assert "compaction_errors_total" not in counters
    finally:
        server.close()
    assert not thread.is_alive() and server._compact_thread is None
