"""Sessions: statement namespaces, shared statements, snapshot reads."""

from __future__ import annotations

import threading
import time
import weakref
from collections import Counter

import pytest

from repro.relational import physical, plan_cache_stats, reset_plan_cache
from repro.server import QueryServer, SnapshotChanged
from repro.sql import execute_sql

from tests.conftest import build_vehicles_udb


def bag(relation):
    return Counter(relation.rows)


@pytest.fixture
def udb():
    return build_vehicles_udb()


class TestNamespace:
    def test_named_statements_are_per_session(self, udb):
        a = udb.session()
        b = udb.session()
        a.prepare("q", "possible (select id from r where type = $1)")
        with pytest.raises(KeyError):
            b.statement("q")
        assert a.statement("q").parameter_count == 1

    def test_reprepare_replaces(self, udb):
        session = udb.session()
        session.prepare("q", "possible (select id from r)")
        session.prepare("q", "possible (select type from r)")
        assert session.execute_prepared("q").schema.names == ["type"]

    def test_deallocate(self, udb):
        session = udb.session()
        session.prepare("q", "possible (select id from r)")
        session.deallocate("q")
        with pytest.raises(KeyError):
            session.execute_prepared("q")

    def test_ddl_cannot_be_prepared(self, udb):
        session = udb.session()
        with pytest.raises(ValueError, match="cannot prepare DDL"):
            session.prepare("ddl", "create index i on u_r_type (type)")

    def test_execute_routes_ddl(self, udb):
        session = udb.session()
        index = session.execute("create index i_type2 on u_r_type (type) using sorted")
        assert index is not None
        assert "i_type2" in [d[1] for d in udb.index_defs("u_r_type")]
        session.execute("drop index i_type2")
        assert "i_type2" not in [d[1] for d in udb.index_defs()]

    def test_by_text_cache_reuses_statements(self, udb):
        session = udb.session()
        sql = "possible (select id from r)"
        session.execute(sql)
        first, _ = udb._statements[sql]
        session.execute(sql)
        # the memo is the database's: another connection skips the parse too
        udb.session().execute(sql)
        assert udb._statements[sql][0] is first
        assert plan_cache_stats()["misses"] == 1


class TestBindings:
    def test_sessions_preparing_one_text_build_one_plan(self, udb):
        """8 connections PREPARE the same text under a name each and
        execute it with their own value: one parse, one plan."""
        sql = "possible (select id from r where type = $1)"
        sessions = [udb.session() for _ in range(8)]
        for n, session in enumerate(sessions):
            session.prepare(f"q{n}", sql)
        reset_plan_cache()
        for n, session in enumerate(sessions):
            value = ("Tank", "Transport")[n % 2]
            got = bag(session.execute_prepared(f"q{n}", value))
            assert got == bag(execute_sql(sql.replace("$1", f"'{value}'"), udb))
        stats = plan_cache_stats()
        # the inlined references lift to the same structure: 8 named and 8
        # ad-hoc executions of two statements, one plan
        assert (stats["misses"], stats["hits"]) == (1, 15)
        assert len({id(s.statement(f"q{n}")) for n, s in enumerate(sessions)}) == 1

    def test_identical_requests_of_two_sessions_coalesce(self, udb, monkeypatch):
        """The plan key holds no per-statement identity, so two sessions'
        named statements of one text, in flight with equal values, are one
        execution."""
        sql = "possible (select id from r where type = $1)"
        entered, release = threading.Event(), threading.Event()
        real = physical.execute

        def held(plan, **kwargs):
            entered.set()
            assert release.wait(timeout=30)
            return real(plan, **kwargs)

        with QueryServer(udb, workers=2) as server:
            one, other = server.session(), server.session()
            one.prepare("mine", sql)
            other.prepare("yours", sql)
            expected = bag(one.execute_prepared("mine", "Tank"))
            monkeypatch.setattr(physical, "execute", held)
            answers = []
            leader = threading.Thread(
                target=lambda: answers.append(one.execute_prepared("mine", "Tank"))
            )
            leader.start()
            assert entered.wait(timeout=30)
            follower = threading.Thread(
                target=lambda: answers.append(other.execute_prepared("yours", "Tank"))
            )
            follower.start()
            deadline = time.monotonic() + 30
            while server.stats()["executor"]["coalesced"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            release.set()
            for thread in (leader, follower):
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert [bag(answer) for answer in answers] == [expected, expected]
            stats = server.stats()["executor"]
            assert (stats["executed"], stats["coalesced"]) == (2, 1)

    def test_concurrent_sessions_with_different_bindings(self, udb):
        """Two server-bound sessions hammer the same $1 statement with
        different bindings; every answer matches its own binding."""
        server = QueryServer(udb, workers=4)
        sql = "possible (select id, type from r where type = $1)"
        expected = {
            "Tank": bag(udb.session().execute(sql, ["Tank"])),
            "Transport": bag(udb.session().execute(sql, ["Transport"])),
        }
        errors = []

        def client(binding):
            session = server.session()
            for _ in range(30):
                got = bag(session.execute(sql, [binding]))
                if got != expected[binding]:
                    errors.append((binding, got))

        threads = [
            threading.Thread(target=client, args=(b,))
            for b in ("Tank", "Transport", "Tank", "Transport")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        server.close()
        assert not errors


class TestSnapshots:
    def test_snapshot_reads_pass_when_catalog_quiet(self, udb):
        session = udb.session()
        with session.snapshot():
            a = session.execute("possible (select id from r)")
            b = session.execute("possible (select id from r)")
            # the first query with a predicate looks for access paths,
            # which builds the deferred auto-indexes and moves the catalog
            # version: the block's own doing, and no answer can move by it
            version = udb.catalog_version
            session.execute("possible (select id from r where type = 'Tank')")
            assert udb.catalog_version > version
            session.execute("possible (select id from r where faction = 'Enemy')")
        assert bag(a) == bag(b)

    def test_concurrent_index_ddl_leaves_the_snapshot_alone(self, udb):
        session = udb.session()
        other = udb.session()
        with session.snapshot():
            before = session.execute("possible (select id from r)")
            # an index replaces no relation: it cannot move an answer
            other.execute("create index i_snap on u_r_id (id) using hash")
            assert bag(session.execute("possible (select id from r)")) == bag(before)
            other.execute("drop index i_snap")
            assert bag(session.execute("possible (select id from r)")) == bag(before)

    def test_concurrent_write_breaks_the_snapshot(self, udb):
        session = udb.session()
        other = udb.session()
        with session.snapshot():
            session.execute("possible (select id from r)")
            other.execute("insert into r values (300, 'Tank', 'Friend')")
            with pytest.raises(SnapshotChanged, match="replaced a relation"):
                session.execute("possible (select id from r)")
        # outside the snapshot the session reads fine again
        assert len(session.execute("possible (select id from r)")) == 5

    def test_a_snapshot_keeps_the_relations_it_compares_alive(self, udb):
        # relations are told apart by id(), which is only unique among
        # live objects: were the superseded versions freed, a later
        # version could be allocated at their address and pass for them
        session = udb.session()
        other = udb.session()
        with session.snapshot():
            began = [weakref.ref(part.relation) for part in udb.partitions("r")]
            other.execute("insert into r values (300, 'Tank', 'Friend')")
            assert all(ref() is not None for ref in began)
        assert all(ref() is None for ref in began)  # ... and no longer

    def test_ddl_inside_snapshot_is_rejected(self, udb):
        session = udb.session()
        with session.snapshot():
            with pytest.raises(SnapshotChanged):
                session.execute("create index i_x on u_r_id (id)")

    def test_snapshots_do_not_nest(self, udb):
        session = udb.session()
        with session.snapshot():
            with pytest.raises(RuntimeError):
                with session.snapshot():
                    pass  # pragma: no cover


class TestServerFacade:
    def test_server_query_and_stats(self, udb):
        with QueryServer(udb, workers=2) as server:
            first = server.query("possible (select id from r where faction = 'Enemy')")
            second = server.query("possible (select id from r where faction = 'Enemy')")
            assert bag(first) == bag(second)
            stats = server.stats()
            assert stats["sessions_opened"] >= 1
            assert stats["executor"]["executed"] >= 2
            assert "cold" in stats["admission"]

    def test_repeated_queries_reclassify_from_the_cache(self, udb):
        with QueryServer(udb, workers=2) as server:
            session = server.session()
            sql = "possible (select id from r where type = 'Tank')"
            session.execute(sql)  # cold: plans and caches
            session.execute(sql)  # classified by the cached entry now
            admission = server.stats()["admission"]
            cached_classes = set(admission) - {"cold"}
            assert admission["cold"]["admitted"] == 1
            assert sum(admission[c]["admitted"] for c in cached_classes) == 1

    def test_certain_queries_reclassify_from_the_cache(self, udb):
        """execute_query caches a certain(...) under its relational core's
        key; classification must look there, not at the full tree, or a
        hot certain statement stays 'cold' forever."""
        with QueryServer(udb, workers=2) as server:
            session = server.session()
            sql = "certain (select id from r where faction = 'Enemy')"
            first = session.execute(sql)
            second = session.execute(sql)
            assert bag(first) == bag(second)
            admission = server.stats()["admission"]
            assert admission["cold"]["admitted"] == 1
            cached = sum(
                admission[c]["admitted"] for c in admission if c != "cold"
            )
            assert cached == 1

    def test_certain_never_shares_a_flight_with_its_core(self, udb, monkeypatch):
        """certain(q) runs q's plan under q's plan key, but its answer is
        not q's: the coalescing keys of the two must differ."""
        with QueryServer(udb, workers=2) as server:
            flights = []
            run = server.executor.run
            monkeypatch.setattr(
                server.executor, "run", lambda work, key: flights.append(key) or run(work, key)
            )
            session = server.session()
            core = session.execute("select id from r where faction = 'Enemy'")
            certain = session.execute("certain (select id from r where faction = 'Enemy')")
            assert len(certain.rows) < len(core.relation.rows)
            core_flight, certain_flight = flights
            assert core_flight[0] == certain_flight[0]  # one plan, one key
            assert core_flight != certain_flight
            assert plan_cache_stats()["misses"] == 1

    def test_udatabase_serve_hook(self, udb):
        server = udb.serve(workers=1)
        try:
            result = server.query("possible (select id from r)")
            assert len(result.rows) == 4
        finally:
            server.close()
