"""The validation service: protocol, sessions, server roundtrips, CLI.

The asyncio server runs on a dedicated event loop in a background thread
(``loop.run_forever``); tests talk to it over real sockets with
:class:`ServeClient`, exactly like an external client would. The standing
process-pool path gets its own (slower) test class; the CLI test drives
``gfd-reason serve`` as a subprocess.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import PropertyGraph
from repro.serve import (
    ServeClient,
    ServerConfig,
    SessionQuota,
    ValidationServer,
)
from repro.serve.client import ServeRequestError
from repro.serve.protocol import apply_wire_ops, decode, encode
from repro.serve.session import QuotaExceeded, Session

RULES = """
gfd same_city_same_zip {
    x: person; y: person; z: city;
    x -[lives_in]-> z; y -[lives_in]-> z;
    when x.name = y.name;
    then x.zip = y.zip;
}
"""

UNSAT_RULES = """
gfd yes { x: item; then x.price = 1; }
gfd no { x: item; then x.price = 2; }
"""

SEED_OPS = [
    {"kind": "add_node", "id": "c1", "label": "city", "attrs": {"name": "pisa"}},
    {"kind": "add_node", "id": "p1", "label": "person", "attrs": {"name": "ada", "zip": 1}},
    {"kind": "add_node", "id": "p2", "label": "person", "attrs": {"name": "ada", "zip": 2}},
    {"kind": "add_edge", "src": "p1", "dst": "c1", "label": "lives_in"},
    {"kind": "add_edge", "src": "p2", "dst": "c1", "label": "lives_in"},
]


# ----------------------------------------------------------------------
# Harness: server on a background event loop, clients over real sockets
# ----------------------------------------------------------------------
class ServerHarness:
    def __init__(self, config: ServerConfig, graph: PropertyGraph | None = None):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self.server = ValidationServer(graph, config)
        self.host, self.port = self.submit(self.server.start()).result(10)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def submit(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def client(self, timeout: float = 30.0) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=timeout)

    def close(self) -> None:
        self.submit(self.server.aclose()).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def harness():
    h = ServerHarness(ServerConfig())
    yield h
    h.close()


# ----------------------------------------------------------------------
# Protocol units (no server needed)
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"id": 7, "op": "ping"}
        line = encode(message)
        assert line.endswith(b"\n")
        assert decode(line) == message

    def test_decode_rejects_junk(self):
        from repro.serve.protocol import ProtocolError

        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")

    def test_apply_wire_ops_full_batch(self):
        graph = PropertyGraph()
        applied, assigned, error = apply_wire_ops(graph, SEED_OPS)
        assert (applied, error) == (len(SEED_OPS), None)
        assert assigned == []
        assert graph.num_nodes == 3 and graph.num_edges == 2

    def test_apply_wire_ops_assigns_ids(self):
        graph = PropertyGraph()
        applied, assigned, error = apply_wire_ops(
            graph, [{"kind": "add_node", "label": "a"}, {"kind": "add_node", "label": "b"}]
        )
        assert (applied, error) == (2, None)
        assert len(assigned) == 2
        assert all(graph.has_node(node_id) for node_id in assigned)

    def test_apply_wire_ops_stops_at_first_bad_op(self):
        graph = PropertyGraph()
        ops = [
            {"kind": "add_node", "id": "a", "label": "x"},
            {"kind": "add_node", "id": "a", "label": "x"},  # duplicate
            {"kind": "add_node", "id": "b", "label": "x"},  # never reached
        ]
        applied, _, error = apply_wire_ops(graph, ops)
        assert applied == 1
        assert error is not None
        assert not graph.has_node("b")

    def test_apply_wire_ops_rejects_unknown_kind(self):
        applied, _, error = apply_wire_ops(PropertyGraph(), [{"kind": "set_attr"}])
        assert applied == 0
        assert "set_attr" in error


# ----------------------------------------------------------------------
# Session quota units
# ----------------------------------------------------------------------
class TestSessionQuotas:
    def test_request_budget(self):
        session = Session(SessionQuota(max_requests=2))
        session.admit_request()
        session.admit_request()
        with pytest.raises(QuotaExceeded):
            session.admit_request()
        assert session.rejected == 1

    def test_mutation_budget_counts_ops_not_batches(self):
        session = Session(SessionQuota(max_mutation_ops=5))
        session.admit_mutations(3)
        with pytest.raises(QuotaExceeded):
            session.admit_mutations(3)  # 3 + 3 > 5
        session.admit_mutations(2)  # exactly at the budget

    def test_inflight_cap(self):
        session = Session(SessionQuota(max_inflight=1))
        session.begin_query()
        with pytest.raises(QuotaExceeded):
            session.begin_query()
        session.end_query()
        session.begin_query()  # slot freed


# ----------------------------------------------------------------------
# Server roundtrips
# ----------------------------------------------------------------------
class TestServerRoundtrips:
    def test_ping_reports_protocol_and_session(self, harness):
        with harness.client() as client:
            pong = client.ping()
            assert pong["protocol"] == 1
            assert pong["version"] == 0

    def test_mutate_then_validate_sees_the_writes(self, harness):
        with harness.client() as client:
            ack = client.mutate(SEED_OPS)
            assert ack["applied"] == len(SEED_OPS)
            assert ack["version"] == len(SEED_OPS)
            result = client.validate(RULES)
            assert result["violation_count"] == 2  # both directions of (p1, p2)
            assert result["pinned_version"] == len(SEED_OPS)

    def test_validate_pins_the_admission_version(self, harness):
        with harness.client() as client:
            client.mutate(SEED_OPS)
            first = client.validate(RULES)
            # Repair: the conflicting person moves to its own city.
            client.mutate(
                [
                    {"kind": "add_node", "id": "c2", "label": "city"},
                    {"kind": "set_label", "id": "p2", "label": "visitor"},
                ]
            )
            second = client.validate(RULES)
            assert second["pinned_version"] == first["pinned_version"] + 2
            assert second["violation_count"] == 0

    def test_explain_reuses_last_validate(self, harness):
        with harness.client() as client:
            client.mutate(SEED_OPS)
            client.validate(RULES)
            explained = client.explain(violation=0)
            assert explained["violation_count"] == 2
            assert len(explained["explanations"]) == 1
            explanation = explained["explanations"][0]
            assert explanation["rules_involved"] == ["same_city_same_zip"]
            assert explanation["evidence"]
            assert isinstance(explanation["steps"], list)

    def test_explain_without_a_store_is_a_client_error(self, harness):
        with harness.client() as client:
            with pytest.raises(ServeRequestError) as exc:
                client.explain()
            assert exc.value.code == "bad_request"

    def test_sat_and_unsat_with_conflict(self, harness):
        with harness.client() as client:
            ok = client.sat(RULES)
            assert ok["satisfiable"] is True
            assert ok["backend"] == "seq"
            bad = client.sat(UNSAT_RULES)
            assert bad["satisfiable"] is False
            assert bad["conflict"] is not None

    def test_imp(self, harness):
        with harness.client() as client:
            result = client.imp(
                RULES,
                """
                gfd narrowed {
                    x: person; y: person; z: city;
                    x -[lives_in]-> z; y -[lives_in]-> z;
                    when x.name = y.name; when x.age = y.age;
                    then x.zip = y.zip;
                }
                """,
            )
            assert result["implied"] is True

    def test_bad_rules_are_bad_request_not_internal(self, harness):
        with harness.client() as client:
            with pytest.raises(ServeRequestError) as exc:
                client.validate("this is not the DSL")
            assert exc.value.code == "bad_request"

    def test_duplicate_rule_names_are_bad_request(self, harness):
        duplicated = RULES + RULES
        with harness.client() as client:
            for ruleset_plan in (False, True):
                with pytest.raises(ServeRequestError) as exc:
                    client.validate(duplicated, ruleset_plan=ruleset_plan)
                assert exc.value.code == "bad_request"
                assert "duplicate GFD name" in str(exc.value)

    def test_unknown_op_is_bad_request(self, harness):
        with harness.client() as client:
            with pytest.raises(ServeRequestError) as exc:
                client.request("frobnicate")
            assert exc.value.code == "bad_request"

    def test_partial_mutation_batch_reports_applied_count(self, harness):
        with harness.client() as client:
            with pytest.raises(ServeRequestError) as exc:
                client.mutate(
                    [
                        {"kind": "add_node", "id": "n", "label": "a"},
                        {"kind": "add_node", "id": "n", "label": "a"},
                    ]
                )
            assert exc.value.code == "bad_request"
            assert exc.value.response["applied"] == 1
            # The landed prefix is durable.
            assert client.ping()["version"] == 1

    def test_stats_counters(self, harness):
        with harness.client() as client:
            client.mutate(SEED_OPS)
            client.validate(RULES)
            stats = client.stats()
            assert stats["nodes"] == 3
            assert stats["counters"]["mutation_batches"] == 1
            assert stats["counters"]["queries_total"] == 1
            assert stats["views"]["pins_total"] == 1
            assert stats["views"]["active_pins"] == 0
            assert stats["session"]["mutation_ops"] == len(SEED_OPS)

    def test_sessions_share_the_graph(self, harness):
        with harness.client() as a, harness.client() as b:
            a.mutate(SEED_OPS)
            assert b.validate(RULES)["violation_count"] == 2

    def test_concurrent_writer_and_readers(self, harness):
        """Queries keep answering consistently while a writer streams."""
        with harness.client() as writer:
            writer.mutate(SEED_OPS)
            errors: list = []

            def read_loop():
                try:
                    with harness.client() as reader:
                        for _ in range(10):
                            result = reader.validate(RULES)
                            if result["violation_count"] < 2:
                                errors.append(result)
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=read_loop) for _ in range(4)]
            for thread in threads:
                thread.start()
            for i in range(30):
                writer.mutate([{"kind": "add_node", "label": "filler"}])
            for thread in threads:
                thread.join(timeout=60)
            assert not errors


class TestServerQuotas:
    def test_request_budget_exhaustion(self):
        harness = ServerHarness(
            ServerConfig(quota=SessionQuota(max_requests=2))
        )
        try:
            with harness.client() as client:
                client.ping()
                client.ping()
                with pytest.raises(ServeRequestError) as exc:
                    client.ping()
                assert exc.value.code == "quota_exceeded"
                # A fresh session gets a fresh budget.
                with harness.client() as other:
                    other.ping()
        finally:
            harness.close()

    def test_mutation_op_budget(self):
        harness = ServerHarness(
            ServerConfig(quota=SessionQuota(max_mutation_ops=3))
        )
        try:
            with harness.client() as client:
                client.mutate([{"kind": "add_node", "label": "a"}] * 3)
                with pytest.raises(ServeRequestError) as exc:
                    client.mutate([{"kind": "add_node", "label": "a"}])
                assert exc.value.code == "quota_exceeded"
        finally:
            harness.close()


class TestExplainStoreScope:
    def test_explain_store_is_per_session(self):
        harness = ServerHarness(ServerConfig())
        try:
            with harness.client() as a, harness.client() as b:
                a.mutate(SEED_OPS)
                a.validate(RULES)
                with pytest.raises(ServeRequestError) as exc:
                    b.request("explain")
                assert exc.value.code == "bad_request"
                assert len(a.explain()["explanations"]) == 2
        finally:
            harness.close()


# ----------------------------------------------------------------------
# The standing process pool (slower: spawns real workers)
# ----------------------------------------------------------------------
class TestParallelQueries:
    def test_parallel_sat_reuses_the_prepared_pool(self):
        harness = ServerHarness(ServerConfig(parallel_workers=2))
        try:
            with harness.client(timeout=120) as client:
                for _ in range(3):
                    result = client.sat(RULES, parallel=True)
                    assert result["satisfiable"] is True
                    assert result["backend"] == "process"
                    assert result["workers"] == 2
                counters = client.stats()["counters"]
                assert counters["prepared_builds"] == 1
                assert counters["prepared_hits"] == 2
        finally:
            harness.close()

    def test_parallel_imp(self):
        harness = ServerHarness(ServerConfig(parallel_workers=2))
        try:
            with harness.client(timeout=120) as client:
                result = client.imp(UNSAT_RULES, "gfd c { x: item; then x.price = 3; }", parallel=True)
                assert result["implied"] is True  # unsat sigma implies anything
        finally:
            harness.close()

    def test_parallel_disabled_is_a_client_error(self, harness):
        with harness.client() as client:
            with pytest.raises(ServeRequestError) as exc:
                client.sat(RULES, parallel=True)
            assert exc.value.code == "bad_request"


# ----------------------------------------------------------------------
# CLI: `gfd-reason serve` end to end
# ----------------------------------------------------------------------
class TestServeCli:
    def test_serve_subcommand(self, tmp_path):
        repo_src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on "), line
            host, port = line.split()[-1].rsplit(":", 1)
            with ServeClient(host, int(port), timeout=30) as client:
                client.mutate(SEED_OPS)
                assert client.validate(RULES)["violation_count"] == 2
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                proc.kill()
                proc.wait()
