"""Sessions: statement namespaces, private bindings, snapshot reads."""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.server import QueryServer, SnapshotChanged

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
        udb.to_database()  # materialize the catalog view
        with pytest.raises(ValueError):
            session.prepare("ddl", "create index i on w (var)")

    def test_execute_routes_ddl(self, udb):
        session = udb.session()
        udb.to_database()
        index = session.execute("create index i_w_var2 on w (var) using sorted")
        assert index is not None
        session.execute("drop index i_w_var2")

    def test_by_text_cache_reuses_statements(self, udb):
        session = udb.session()
        sql = "possible (select id from r)"
        first, _ = session._by_text_statement(sql)
        session.execute(sql)
        assert session._by_text_statement(sql)[0] is first


class TestBindings:
    def test_sessions_do_not_share_binding_stores(self, udb):
        sql = "possible (select id from r where type = $1)"
        a = udb.session()
        b = udb.session()
        stmt_a, _ = a._by_text_statement(sql)
        stmt_b, _ = b._by_text_statement(sql)
        assert stmt_a is not stmt_b
        assert stmt_a._store is not stmt_b._store

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
        assert bag(a) == bag(b)

    def test_concurrent_ddl_breaks_the_snapshot(self, udb):
        session = udb.session()
        db = udb.to_database()
        with session.snapshot():
            session.execute("possible (select id from r)")
            # concurrent DDL from elsewhere moves the catalog version
            db.create_index("i_snap", "w", ["var"], kind="sorted")
            with pytest.raises(SnapshotChanged):
                session.execute("possible (select id from r)")
        # outside the snapshot the session reads fine again
        session.execute("possible (select id from r)")
        db.drop_index("i_snap")

    def test_ddl_inside_snapshot_is_rejected(self, udb):
        session = udb.session()
        udb.to_database()
        with session.snapshot():
            with pytest.raises(SnapshotChanged):
                session.execute_ddl("create index i_x on w (var)")

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

    def test_udatabase_serve_hook(self, udb):
        server = udb.serve(workers=1)
        try:
            result = server.query("possible (select id from r)")
            assert len(result.rows) == 4
        finally:
            server.close()
