"""Remote shard tier: transport protocol, dedup, hedging, failover (PR 10).

Pins the multi-host serving layer:

* **Frame codec** — length-prefixed pickle frames round-trip bit-identically;
  bad magic and oversized lengths fail typed; injected network faults
  (drop / dup / disconnect / delay) apply at the send site deterministically.
* **Network fault plan** — ``drop_rate`` / ``dup_rate`` / ``disconnect_rate``
  / ``net_delay_ms`` are pure Philox functions of ``(seed, site,
  call-count)``; the ``REPRO_FAULTS`` spec round-trips them.
* **Rendezvous ranking** — :func:`~repro.serve.rank_members` is a stable
  permutation whose tail is the failover/hedge order (minimal-disruption
  member removal).
* **The ambiguous-disconnect contract** — a request id replayed after the
  server already answered is served from the dedup cache (never
  re-executed); one replayed *while executing* re-targets the newest
  connection; both halves resolve to exactly one completion.
* **Reconnect + replay** — a torn link replays the bounded inflight buffer;
  a *restarted* server (fresh nonce) gets every operator re-attached.
* **Hedging and failover** — a slow primary's deadline-critical batch ships
  to the next-ranked member and the first response wins exactly once; a
  dead member's fingerprints re-dispatch to survivors (``failovers`` ticks).
* **Metrics** — hostile label values are escaped per the Prometheus text
  exposition spec; the cluster member table renders as labeled families.
* **The tier-2 cluster chaos hammer** — a 2-replica localhost cluster under
  disconnect + drop + dup + delay + server kill injection: every request
  ends typed, completions are bit-identical to an unfaulted serial
  reference, and reconnects / hedges / failovers are all live.
"""

import os
import pickle
import socket
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import repro
from repro import (
    AdmissionRefused,
    BatchDispatcher,
    ClusterConfig,
    ClusterGateway,
    DeadlineExceeded,
    DispatcherClosed,
    F3RConfig,
    RemoteShard,
    ShardServer,
    ShardUnreachable,
    render_metrics,
)
from repro.faults import FaultPlan, inject, maybe_net
from repro.matgen import poisson2d
from repro.serve import rank_members
from repro.serve.cluster import ClusterStats
from repro.serve.executor import ExpiredRequest, WorkerError
from repro.serve.remote import recv_frame, send_frame, spawn_server
from repro.solvers.guards import InvalidInput

pytestmark = pytest.mark.tier1


def _rhs(matrix, seed: int = 0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, matrix.nrows)


def _operator(n: int = 10):
    return poisson2d(n)


def _config():
    return F3RConfig(variant="fp32", m1=10, adaptive_weight=False)


@pytest.fixture()
def pinned(monkeypatch):
    """Determinism pins shared by the bit-identity tests.

    Multi-RHS batches are *not* bit-stable across batch compositions
    (fused or not — the blocked kernels reorder reductions), so every
    bit-identity test here pins ``max_batch=1`` on both the reference and
    the cluster under test, plus recovery off, matching the overload hammer
    methodology.
    """
    monkeypatch.setenv("REPRO_RECOVERY", "0")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    # The env var above only reaches *spawned* servers — in this process the
    # toggle was latched at import, so flip it programmatically too.
    from repro import set_recovery_enabled
    prev_recovery = set_recovery_enabled(False)
    yield
    set_recovery_enabled(prev_recovery)


# ---------------------------------------------------------------------- #
# Frame codec
# ---------------------------------------------------------------------- #
class TestFrameCodec:
    def test_round_trip_preserves_arrays_bitwise(self):
        a, b = socket.socketpair()
        try:
            payload = ("solve", "rid-1", "fp", None,
                       np.arange(12.0).reshape(4, 3), [None, 1.5, None], None)
            send_frame(a, payload)
            got = recv_frame(b)
            assert got[0] == "solve" and got[1] == "rid-1"
            np.testing.assert_array_equal(got[4], payload[4])
            assert got[4].dtype == payload[4].dtype
            assert got[5] == [None, 1.5, None]
        finally:
            a.close(); b.close()

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"XXXX" + b"\x00" * 8)
            with pytest.raises(ConnectionError, match="magic"):
                recv_frame(b)
        finally:
            a.close(); b.close()

    def test_oversized_frame_rejected(self):
        import struct
        a, b = socket.socketpair()
        try:
            a.sendall(b"RPS1" + struct.pack(">I", (1 << 30) + 1))
            with pytest.raises(ConnectionError, match="cap"):
                recv_frame(b)
        finally:
            a.close(); b.close()

    def test_peer_close_is_connection_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_injected_drop_sends_nothing(self):
        a, b = socket.socketpair()
        try:
            with inject(FaultPlan(seed=1, rate=0.0, drop_rate=1.0)):
                send_frame(a, ("hb",), site="net.test")
            b.setblocking(False)
            with pytest.raises(BlockingIOError):
                b.recv(1)
        finally:
            a.close(); b.close()

    def test_injected_dup_sends_twice(self):
        a, b = socket.socketpair()
        try:
            with inject(FaultPlan(seed=1, rate=0.0, dup_rate=1.0)):
                send_frame(a, ("hb",), site="net.test")
            assert recv_frame(b) == ("hb",)
            assert recv_frame(b) == ("hb",)
        finally:
            a.close(); b.close()

    def test_injected_disconnect_tears_down_the_link(self):
        a, b = socket.socketpair()
        try:
            with inject(FaultPlan(seed=1, rate=0.0, disconnect_rate=1.0)):
                with pytest.raises(ConnectionResetError, match="injected"):
                    send_frame(a, ("hb",), site="net.test")
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            a.close(); b.close()


# ---------------------------------------------------------------------- #
# Network fault plan
# ---------------------------------------------------------------------- #
class TestNetFaultPlan:
    def test_deterministic_per_seed_site_call(self):
        kwargs = dict(seed=42, rate=0.0, drop_rate=0.2, dup_rate=0.1,
                      disconnect_rate=0.05, net_delay_ms=3.0)
        plan_a, plan_b = FaultPlan(**kwargs), FaultPlan(**kwargs)
        seq_a = [plan_a.net_fires("net.x") for _ in range(200)]
        seq_b = [plan_b.net_fires("net.x") for _ in range(200)]
        assert seq_a == seq_b
        events = [e for e, _ in seq_a if e is not None]
        assert events, "rates this high must fire within 200 calls"
        assert set(events) <= {"drop", "dup", "disconnect"}
        assert all(0.0 <= d < 3.0e-3 for _, d in seq_a)

    def test_sites_are_independent_streams(self):
        kwargs = dict(seed=7, rate=0.0, drop_rate=0.3)
        plan = FaultPlan(**kwargs)
        seq_x = [plan.net_fires("net.x")[0] for _ in range(64)]
        seq_y = [plan.net_fires("net.y")[0] for _ in range(64)]
        fresh = FaultPlan(**kwargs)
        assert [fresh.net_fires("net.y")[0] for _ in range(64)] == seq_y
        assert seq_x != seq_y   # crc32(site) keys distinct Philox streams

    def test_disconnect_wins_precedence(self):
        plan = FaultPlan(seed=3, rate=0.0, drop_rate=1.0, dup_rate=1.0,
                         disconnect_rate=1.0)
        event, _ = plan.net_fires("net.x")
        assert event == "disconnect"

    def test_fired_events_are_recorded(self):
        plan = FaultPlan(seed=3, rate=0.0, drop_rate=1.0)
        plan.net_fires("net.x")
        assert [(r.site, r.kind) for r in plan.records] == [("net.x", "drop")]

    def test_spec_round_trips_network_rates(self):
        from repro.faults import install_from_env, install_plan
        plan = FaultPlan(seed=9, rate=0.0, drop_rate=0.25, dup_rate=0.125,
                         disconnect_rate=0.0625, net_delay_ms=2.5)
        spec = plan.spec()
        try:
            twin = install_from_env(spec)
            for key in ("seed", "drop_rate", "dup_rate", "disconnect_rate",
                        "net_delay_ms"):
                assert getattr(twin, key) == getattr(plan, key)
            assert ([twin.net_fires("net.x") for _ in range(50)]
                    == [plan.net_fires("net.x") for _ in range(50)])
        finally:
            install_plan(None)

    @pytest.mark.skipif(bool(os.environ.get("REPRO_FAULTS")),
                        reason="an env fault plan is installed")
    def test_maybe_net_idle_without_plan(self):
        from repro.faults import active_plan
        assert active_plan() is None
        assert maybe_net("net.x") == (None, 0.0)


# ---------------------------------------------------------------------- #
# Rendezvous ranking
# ---------------------------------------------------------------------- #
class TestRankMembers:
    def test_ranking_is_a_permutation(self):
        names = ["alpha", "beta", "gamma", "delta"]
        ranked = rank_members("fp-1", names)
        assert sorted(ranked) == sorted(names)

    def test_removing_a_loser_never_moves_the_winner(self):
        # the rendezvous property the failover order relies on: dropping a
        # member only re-routes the fingerprints that member owned
        names = ["alpha", "beta", "gamma", "delta"]
        for i in range(50):
            fp = f"fingerprint-{i}"
            full = rank_members(fp, names)
            survivors = [n for n in names if n != full[-1]]
            assert rank_members(fp, survivors)[0] == full[0]

    def test_removing_the_winner_promotes_second(self):
        names = ["alpha", "beta", "gamma"]
        for i in range(50):
            fp = f"fingerprint-{i}"
            full = rank_members(fp, names)
            survivors = [n for n in names if n != full[0]]
            assert rank_members(fp, survivors)[0] == full[1]


# ---------------------------------------------------------------------- #
# Server <-> client end to end (in-process server, real sockets)
# ---------------------------------------------------------------------- #
class TestRemoteShardEndToEnd:
    def test_solve_round_trip_bit_identical_to_local(self, pinned):
        A = _operator()
        b = _rhs(A, 0)
        config = _config()
        with BatchDispatcher(config, max_batch=1, max_workers=1,
                             overload=False) as ref:
            reference = ref.submit(A, b).result()
        with ShardServer(config=config, max_workers=1) as server:
            with RemoteShard(server.address, name="s0") as shard:
                assert shard.wait_connected(10.0)
                slots, snapshot = shard.submit_batch(
                    A.fingerprint(), b.reshape(-1, 1),
                    setup_factory=lambda: A).result(timeout=60)
        assert len(slots) == 1
        assert slots[0].converged
        np.testing.assert_array_equal(slots[0].x, reference.x)
        assert snapshot["batches"] == 1
        assert shard.stats()["state"] == "closed"

    def test_setup_ships_once_then_fingerprint_only(self, pinned):
        A = _operator()
        calls = []

        def factory():
            calls.append(1)
            return A

        with ShardServer(config=_config(), max_workers=1) as server:
            with RemoteShard(server.address, name="s0") as shard:
                assert shard.wait_connected(10.0)
                for seed in range(3):
                    slots, _ = shard.submit_batch(
                        A.fingerprint(), _rhs(A, seed).reshape(-1, 1),
                        setup_factory=factory).result(timeout=60)
                    assert slots[0].converged
        assert len(calls) == 1   # fingerprint known after the first frame

    def test_warm_then_solve_hits_server_cache(self, pinned):
        A = _operator()
        with ShardServer(config=_config(), max_workers=1) as server:
            with RemoteShard(server.address, name="s0") as shard:
                assert shard.wait_connected(10.0)
                shard.submit_warm(A.fingerprint(),
                                  lambda: A).result(timeout=60)
                slots, snapshot = shard.submit_batch(
                    A.fingerprint(), _rhs(A).reshape(-1, 1),
                    setup_factory=lambda: A).result(timeout=60)
        assert slots[0].converged
        assert snapshot["cache_hits"] >= 1

    def test_evicted_fingerprint_recovers_via_stale_resend(self, pinned):
        A = _operator()
        with ShardServer(config=_config(), max_workers=1) as server:
            with RemoteShard(server.address, name="s0") as shard:
                assert shard.wait_connected(10.0)
                slots, _ = shard.submit_batch(
                    A.fingerprint(), _rhs(A, 0).reshape(-1, 1),
                    setup_factory=lambda: A).result(timeout=60)
                assert slots[0].converged
                shard.evict(A.fingerprint())
                # the client still believes the server knows fp: the frame
                # goes out without a setup, bounces as "stale", and is
                # re-sent with the operator attached — transparently
                slots, _ = shard.submit_batch(
                    A.fingerprint(), _rhs(A, 1).reshape(-1, 1),
                    setup_factory=lambda: A).result(timeout=60)
                assert slots[0].converged
                stats = shard.stats()
        assert stats["stale_recoveries"] >= 1
        assert stats["server"]["stale_misses"] >= 1

    def test_lru_eviction_drops_the_operator(self, pinned):
        # cache_size bounds the shipped operators as well as the setups: a
        # returning fingerprint bounces "stale", is reshipped, and answers
        # bit-identically to its first solve
        operators = [_operator(n) for n in (8, 9, 10)]
        b = _rhs(operators[0], 0)
        with ShardServer(config=_config(), max_workers=1,
                         cache_size=1) as server:
            with RemoteShard(server.address, name="s0") as shard:
                assert shard.wait_connected(10.0)

                def solve(A, rhs):
                    slots, _ = shard.submit_batch(
                        A.fingerprint(), rhs.reshape(-1, 1),
                        setup_factory=lambda: A).result(timeout=60)
                    assert slots[0].converged
                    return slots[0].x

                first = solve(operators[0], b)
                for A in operators[1:]:
                    solve(A, _rhs(A, 0))
                    assert len(server._operators) <= 1
                again = solve(operators[0], b)
                stats = shard.stats()
            assert len(server._operators) <= 1
        np.testing.assert_array_equal(again, first)
        assert stats["stale_recoveries"] >= 1

    def test_expired_wall_deadline_returns_expired_slot(self, pinned):
        A = _operator()
        with ShardServer(config=_config(), max_workers=1) as server:
            with RemoteShard(server.address, name="s0") as shard:
                assert shard.wait_connected(10.0)
                past = time.time() - 5.0
                slots, _ = shard.submit_batch(
                    A.fingerprint(), _rhs(A).reshape(-1, 1),
                    setup_factory=lambda: A,
                    deadlines=[past]).result(timeout=60)
        assert isinstance(slots[0], ExpiredRequest)
        assert slots[0].overshoot_s >= 4.0

    def test_inflight_buffer_bounded_typed(self):
        # a shard that can never connect buffers its sends; the buffer
        # bound is a typed admission refusal, not silent growth
        A = _operator()
        dead_port = _reserved_dead_port()
        shard = RemoteShard(("127.0.0.1", dead_port), name="s0",
                            connect_timeout=0.2, max_inflight=2,
                            reconnect_attempts=1000, backoff_base=0.05,
                            backoff_max=0.2)
        try:
            for _ in range(2):
                shard.submit_batch(A.fingerprint(),
                                   _rhs(A).reshape(-1, 1),
                                   setup_factory=lambda: A)
            with pytest.raises(AdmissionRefused, match="inflight"):
                shard.submit_batch(A.fingerprint(),
                                   _rhs(A).reshape(-1, 1),
                                   setup_factory=lambda: A)
        finally:
            shard.close()

    def test_reconnect_budget_exhaustion_fails_typed(self):
        A = _operator()
        dead_port = _reserved_dead_port()
        shard = RemoteShard(("127.0.0.1", dead_port), name="ghost",
                            connect_timeout=0.2, reconnect_attempts=2,
                            backoff_base=0.01, backoff_max=0.05)
        try:
            future = shard.submit_batch(A.fingerprint(),
                                        _rhs(A).reshape(-1, 1),
                                        setup_factory=lambda: A)
            with pytest.raises(ShardUnreachable, match="ghost"):
                future.result(timeout=30)
            assert not shard.healthy
            with pytest.raises(ShardUnreachable):
                shard.submit_batch(A.fingerprint(),
                                   _rhs(A).reshape(-1, 1),
                                   setup_factory=lambda: A)
        finally:
            shard.close()

    def test_close_fails_inflight_typed(self):
        A = _operator()
        dead_port = _reserved_dead_port()
        shard = RemoteShard(("127.0.0.1", dead_port), name="s0",
                            connect_timeout=0.2, reconnect_attempts=1000)
        future = shard.submit_batch(A.fingerprint(),
                                    _rhs(A).reshape(-1, 1),
                                    setup_factory=lambda: A)
        shard.close()
        with pytest.raises(ShardUnreachable, match="closed"):
            future.result(timeout=5)


def _reserved_dead_port() -> int:
    """A localhost port with nothing listening on it."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# ---------------------------------------------------------------------- #
# The ambiguous-disconnect contract (raw sockets, frame level)
# ---------------------------------------------------------------------- #
def _client_conn(address):
    """Open a raw protocol connection: handshake done, ready for frames."""
    sock = socket.create_connection(address, timeout=10.0)
    send_frame(sock, ("hello", "raw-test"))
    reply = recv_frame(sock)
    assert reply[0] == "hello"
    return sock, reply[1]


def _read_until(sock, rid):
    """Read frames (skipping heartbeats) until ``rid``'s response arrives."""
    while True:
        frame = recv_frame(sock)
        if frame[0] == "hb":
            continue
        assert frame[1] == rid
        return frame


class TestAmbiguousDisconnect:
    def test_completed_batch_replay_served_from_dedup_cache(self, pinned):
        """The acked-but-unreceived half: the server finished the batch but
        the client never heard — the replayed id is answered from the dedup
        cache, bit-identically, without a second execution."""
        A = _operator()
        solve = ("solve", "raw-rid-1", A.fingerprint(), A,
                 _rhs(A).reshape(-1, 1), None, None)
        with ShardServer(config=_config(), max_workers=1) as server:
            conn1, _ = _client_conn(server.address)
            send_frame(conn1, solve)
            first = _read_until(conn1, "raw-rid-1")
            assert first[0] == "result"
            # the "client" drops dead without acking; a new connection
            # replays the identical frame
            conn1.close()
            conn2, _ = _client_conn(server.address)
            send_frame(conn2, solve)
            second = _read_until(conn2, "raw-rid-1")
            conn2.close()
            stats = server.stats()
        np.testing.assert_array_equal(first[2][0].x, second[2][0].x)
        assert first[2][0].x.tobytes() == second[2][0].x.tobytes()
        assert stats["batches"] == 1        # executed exactly once
        assert stats["dedup_hits"] == 1

    def test_replay_on_same_connection_also_deduped(self, pinned):
        """A duplicated delivery (dup fault) of an already-answered frame on
        the same link returns the cached response again."""
        A = _operator()
        solve = ("solve", "raw-rid-2", A.fingerprint(), A,
                 _rhs(A).reshape(-1, 1), None, None)
        with ShardServer(config=_config(), max_workers=1) as server:
            conn, _ = _client_conn(server.address)
            send_frame(conn, solve)
            first = _read_until(conn, "raw-rid-2")
            send_frame(conn, solve)
            second = _read_until(conn, "raw-rid-2")
            conn.close()
            stats = server.stats()
        assert first[2][0].x.tobytes() == second[2][0].x.tobytes()
        assert stats["batches"] == 1

    def test_replay_while_executing_retargets_newest_connection(self, pinned):
        """The received-but-unacked half: the client disconnects while the
        batch is executing and replays on a fresh connection — exactly one
        execution, exactly one completion, delivered to the new link."""
        A, B = _operator(), _operator(9)
        started, release = threading.Event(), threading.Event()
        executions = []
        # two pool workers: one is gated mid-solve, the other runs the
        # sequencing warm below
        with ShardServer(config=_config(), max_workers=2) as server:
            executor = server._member.executor
            inner = executor.run

            def gated(*args, **kwargs):
                executions.append(1)
                started.set()
                assert release.wait(30.0)
                return inner(*args, **kwargs)

            executor.run = gated
            solve = ("solve", "raw-rid-3", A.fingerprint(), A,
                     _rhs(A).reshape(-1, 1), None, None)
            conn1, _ = _client_conn(server.address)
            send_frame(conn1, solve)
            assert started.wait(30.0)      # the batch is now mid-execution
            conn1.close()                  # ambiguous disconnect
            conn2, _ = _client_conn(server.address)
            send_frame(conn2, solve)       # replay of the executing id
            # frames on one connection are handled in order: once this warm
            # (of a different operator) completes, the replay above has been
            # processed (event-driven sequencing — no sleeps)
            send_frame(conn2, ("warm", "raw-warm-3", B.fingerprint(), B))
            _read_until(conn2, "raw-warm-3")
            assert server._counters["replayed_running"] == 1
            release.set()
            result = _read_until(conn2, "raw-rid-3")
            conn2.close()
            stats = server.stats()
        assert result[0] == "result"
        assert result[2][0].converged
        assert len(executions) == 1        # never executed twice
        assert stats["dedup_hits"] >= 1


# ---------------------------------------------------------------------- #
# Reconnect and replay (RemoteShard client machinery)
# ---------------------------------------------------------------------- #
class TestReconnectReplay:
    def test_torn_link_reconnects_and_replays_inflight(self, pinned):
        A = _operator()
        with ShardServer(config=_config(), max_workers=1) as server:
            with RemoteShard(server.address, name="s0", backoff_base=0.01,
                             backoff_max=0.1) as shard:
                assert shard.wait_connected(10.0)
                slots, _ = shard.submit_batch(
                    A.fingerprint(), _rhs(A, 0).reshape(-1, 1),
                    setup_factory=lambda: A).result(timeout=60)
                assert slots[0].converged
                # partition: the link dies under the client; the submit
                # lands in the replay buffer and goes out after reconnect
                shard._kill_link()
                slots, _ = shard.submit_batch(
                    A.fingerprint(), _rhs(A, 1).reshape(-1, 1),
                    setup_factory=lambda: A).result(timeout=60)
                assert slots[0].converged
                stats = shard.stats()
        assert stats["reconnects"] >= 1

    def test_restarted_server_gets_operators_reattached(self, pinned):
        A = _operator()
        config = _config()
        factory_calls = []

        def factory():
            factory_calls.append(1)
            return A

        first = ShardServer(config=config, max_workers=1).start()
        host, port = first.address
        shard = RemoteShard((host, port), name="s0", connect_timeout=1.0,
                            backoff_base=0.02, backoff_max=0.2,
                            reconnect_attempts=1000)
        try:
            assert shard.wait_connected(10.0)
            slots, _ = shard.submit_batch(
                A.fingerprint(), _rhs(A, 0).reshape(-1, 1),
                setup_factory=factory).result(timeout=60)
            assert slots[0].converged and len(factory_calls) == 1
            # restart: a fresh server instance on the same port has a fresh
            # nonce and an empty operator table (rebinding must wait out
            # the old connections' FIN handshakes — bounded retry)
            first.close()
            deadline = time.monotonic() + 15.0
            while True:
                try:
                    second = ShardServer(host=host, port=port, config=config,
                                         max_workers=1).start()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            try:
                slots, _ = shard.submit_batch(
                    A.fingerprint(), _rhs(A, 1).reshape(-1, 1),
                    setup_factory=factory).result(timeout=60)
                assert slots[0].converged
                # the nonce change cleared _known: the setup shipped again
                assert len(factory_calls) >= 2
            finally:
                second.close()
        finally:
            shard.close()
            first.close()


# ---------------------------------------------------------------------- #
# Cluster gateway: routing, hedging, failover
# ---------------------------------------------------------------------- #
class TestClusterGateway:
    def test_mixed_ring_solves_bit_identical_to_serial(self, pinned):
        config = _config()
        ops = [_operator(8), _operator(10), _operator(12)]
        pairs = [(ops[i % 3], _rhs(ops[i % 3], i)) for i in range(12)]
        with BatchDispatcher(config, max_batch=1, max_workers=1,
                             overload=False) as ref:
            reference = [f.result() for f in
                         [ref.submit(op, b) for op, b in pairs]]
        with ShardServer(config=config, max_workers=1) as s0, \
                ShardServer(config=config, max_workers=1) as s1:
            cluster = ClusterConfig(
                members=(("alpha", "%s:%d" % s0.address),
                         ("beta", "%s:%d" % s1.address),
                         ("gamma", "local")),
                max_batch=1)
            with ClusterGateway(config=config, cluster=cluster,
                                max_workers=1) as gateway:
                results = gateway.solve_many(pairs)
                summary = gateway.stats.summary()
        assert all(r.converged for r in results)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.x, want.x)
        assert summary["requests"] == 12
        assert set(summary["cluster"]["members"]) == {"alpha", "beta",
                                                      "gamma"}
        assert summary["cluster"]["dead_members"] == []

    def test_input_validation_and_closed_typed(self, pinned):
        A = _operator()
        cluster = ClusterConfig(members=(("solo", "local"),))
        gateway = ClusterGateway(config=_config(), cluster=cluster,
                                 max_workers=1)
        try:
            with pytest.raises(InvalidInput):
                gateway.submit(A, np.ones(3))
            bad = _rhs(A).copy()
            bad[5] = np.nan
            with pytest.raises(InvalidInput):
                gateway.submit(A, bad)
        finally:
            gateway.close()
        with pytest.raises(DispatcherClosed):
            gateway.submit(A, _rhs(A))

    def test_hedge_fires_and_backup_wins(self, pinned):
        """A black-holed primary: the hedge timer ships the batch to the
        next-ranked member and its response resolves every future exactly
        once (hedges and hedge_wins tick)."""
        A = _operator()
        config = _config()
        cluster = ClusterConfig(members=(("alpha", "local"),
                                         ("beta", "local")),
                                hedge_ms=5.0)
        gateway = ClusterGateway(config=config, cluster=cluster,
                                 max_workers=1)
        try:
            primary_name = rank_members(A.fingerprint(),
                                        ["alpha", "beta"])[0]
            primary = gateway._members[primary_name]
            primary.submit_batch = \
                lambda *a, **k: Future()   # never resolves: a black hole
            future = gateway.submit(A, _rhs(A), deadline=60.0)
            gateway.flush()
            result = future.result(timeout=60)
            summary = gateway.stats.summary()
        finally:
            gateway.close()
        assert result.converged
        assert summary["cluster"]["hedges"] == 1
        assert summary["cluster"]["hedge_wins"] == 1

    def test_hedge_needs_deadline_and_two_healthy(self, pinned):
        A = _operator()
        cluster = ClusterConfig(members=(("alpha", "local"),
                                         ("beta", "local")),
                                hedge_ms=0.0)    # would fire instantly
        gateway = ClusterGateway(config=_config(), cluster=cluster,
                                 max_workers=1)
        try:
            future = gateway.submit(A, _rhs(A))   # no deadline: never hedged
            gateway.flush()
            assert future.result(timeout=60).converged
            assert gateway.stats.hedges == 0
        finally:
            gateway.close()

    def test_hedge_delay_derives_from_rtt(self):
        cluster = ClusterConfig(members=(("solo", "local"),),
                                hedge_percentile=95.0, hedge_factor=2.0,
                                hedge_min_samples=4)
        gateway = ClusterGateway(config=_config(), cluster=cluster,
                                 max_workers=1)
        try:
            class _FakeMember:
                def rtt_percentile(self, q, min_samples=1):
                    assert q == 95.0 and min_samples == 4
                    return 0.050

            class _ColdMember:
                def rtt_percentile(self, q, min_samples=1):
                    return None

            assert gateway._hedge_delay(_FakeMember()) == pytest.approx(0.1)
            assert gateway._hedge_delay(_ColdMember()) is None
        finally:
            gateway.close()

    def test_dead_member_fails_over_to_survivor(self, pinned):
        """A member that dies with batches in flight: ShardUnreachable
        re-dispatches to the next-ranked healthy member (failovers ticks)
        and the requests still complete bit-identically."""
        A = _operator()
        config = _config()
        with BatchDispatcher(config, max_batch=1, max_workers=1,
                             overload=False) as ref:
            reference = [ref.submit(A, _rhs(A, i)).result()
                         for i in range(4)]
        # victim: a remote member whose server is already gone — the shard
        # buffers, exhausts its reconnect budget mid-flight, and dies.
        # Name the members so the victim is the fingerprint's *primary*:
        # the failover path (not plain routing-around) completes the work.
        dead_port = _reserved_dead_port()
        victim, survivor = rank_members(A.fingerprint(), ["m0", "m1"])
        cluster = ClusterConfig(
            members=((victim, f"127.0.0.1:{dead_port}"),
                     (survivor, "local")),
            max_batch=1,
            max_retries=3, retry_backoff=0.02, connect_timeout=0.2,
            reconnect_attempts=5, backoff_base=0.05, backoff_max=0.4)
        gateway = ClusterGateway(config=config, cluster=cluster,
                                 max_workers=1)
        try:
            futures = [gateway.submit(A, _rhs(A, i)) for i in range(4)]
            gateway.flush()
            results = [f.result(timeout=120) for f in futures]
            summary = gateway.stats.summary()
        finally:
            gateway.close()
        assert all(r.converged for r in results)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.x, want.x)
        cl = summary["cluster"]
        assert cl["failovers"] >= 1
        assert victim in cl["dead_members"]

    def test_no_healthy_members_fails_typed(self):
        A = _operator()
        dead_port = _reserved_dead_port()
        cluster = ClusterConfig(
            members=(("ghost", f"127.0.0.1:{dead_port}"),),
            max_retries=1, retry_backoff=0.01, connect_timeout=0.2,
            reconnect_attempts=1, backoff_base=0.01, backoff_max=0.02)
        gateway = ClusterGateway(config=_config(), cluster=cluster)
        try:
            future = gateway.submit(A, _rhs(A))
            gateway.flush()
            with pytest.raises(ShardUnreachable):
                future.result(timeout=60)
        finally:
            gateway.close()

    def test_duplicate_member_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ClusterConfig(members=(("a", "local"), ("a", "local")))


# ---------------------------------------------------------------------- #
# Satellite 1: adaptive-weight ordering under max_workers > 1
# ---------------------------------------------------------------------- #
class TestAdaptiveWeightOrdering:
    def test_multiworker_adaptive_bit_identical_to_serial(self, pinned):
        """The PR 8 caveat, closed: per-fingerprint ordered execution makes
        adaptive Richardson weights deterministic under a multi-worker
        dispatcher — batch k always sees the weights state left by batch
        k-1, whatever the pool's thread interleaving."""
        A = _operator(12)
        config = F3RConfig(variant="fp32", m1=10, adaptive_weight=True)
        rhs_list = [_rhs(A, seed) for seed in range(10)]
        with BatchDispatcher(config, max_batch=1, max_workers=1,
                             overload=False) as serial:
            reference = [serial.submit(A, b).result() for b in rhs_list]
        with BatchDispatcher(config, max_batch=1, max_workers=4,
                             overload=False) as pooled:
            # all ten batches submitted at once: without ordering, four
            # threads race the shared solver's weight state
            futures = [pooled.submit(A, b) for b in rhs_list]
            results = [f.result() for f in futures]
        for got, want in zip(results, reference):
            assert got.converged and want.converged
            np.testing.assert_array_equal(got.x, want.x)


# ---------------------------------------------------------------------- #
# Satellite 2 + metrics rendering
# ---------------------------------------------------------------------- #
class TestMetricsEscaping:
    def test_hostile_label_values_escaped(self):
        hostile = 'fp"with\\quotes\nand newline'
        text = render_metrics({"entries": {hostile: 3}})
        line = next(l for l in text.splitlines()
                    if l.startswith("repro_entries{"))
        assert line == ('repro_entries{state="fp\\"with\\\\quotes\\n'
                        'and newline"} 3')
        # the exposition stays line-structured: no raw newline leaked into
        # the sample line, and the quoted value parses back to the original
        assert "\n" not in line
        import re
        match = re.match(r'repro_entries\{state="((?:[^"\\]|\\.)*)"\} 3',
                         line)
        assert match is not None
        unescaped = (match.group(1).replace("\\n", "\n")
                     .replace('\\"', '"').replace("\\\\", "\\"))
        assert unescaped == hostile

    def test_string_state_values_escaped(self):
        text = render_metrics({"state": 'BROWN"OUT'})
        assert 'repro_state{state="BROWN\\"OUT"} 1' in text

    def test_member_table_renders_as_labeled_families(self):
        summary = {"cluster": {
            "members": {
                'sh"ard\\1': {"reconnects": 2, "state": "up",
                              "rtt": {"p50_ms": 1.0}, "name": 'sh"ard\\1'},
                "beta": {"reconnects": 0, "state": "down"},
            },
            "failovers": 1,
        }}
        text = render_metrics(summary)
        assert ('repro_cluster_members_reconnects{member="sh\\"ard\\\\1"} 2'
                in text)
        assert ('repro_cluster_members_state{member="beta",state="down"} 1'
                in text)
        assert "repro_cluster_failovers 1" in text
        # nested sub-dicts inside a member entry are presentation detail
        assert "rtt" not in text

    def test_cluster_summary_renders_end_to_end(self, pinned):
        A = _operator()
        cluster = ClusterConfig(members=(("alpha", "local"),
                                         ("beta", "local")))
        with ClusterGateway(config=_config(), cluster=cluster,
                            max_workers=1) as gateway:
            future = gateway.submit(A, _rhs(A))
            gateway.flush()
            assert future.result(timeout=60).converged
            text = render_metrics(gateway.stats.summary())
        assert 'repro_cluster_members_state{member="alpha",state="up"} 1' \
            in text
        assert "# TYPE repro_cluster_failovers counter" in text
        assert "repro_requests 1" in text


# ---------------------------------------------------------------------- #
# Satellite 3: export surface
# ---------------------------------------------------------------------- #
class TestExportSurface:
    def test_remote_tier_types_exported_from_root(self):
        for name in ("RemoteShard", "ShardServer", "ShardUnreachable",
                     "ClusterConfig", "ClusterGateway",
                     "BrownoutTransition"):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_serve_surface_complete(self):
        from repro import serve
        for name in ("RemoteShard", "RemoteError", "ShardServer",
                     "ShardUnreachable", "ClusterConfig", "ClusterGateway",
                     "ClusterStats", "rank_members"):
            assert hasattr(serve, name), name
            assert name in serve.__all__, name

    def test_cluster_stats_is_dispatch_stats(self):
        stats = ClusterStats()
        assert stats.hedges == 0 and stats.requests == 0
        summary = stats.summary()
        assert summary["cluster"]["members"] == {}


# ---------------------------------------------------------------------- #
# Tier 2: the 2-replica cluster chaos hammer
# ---------------------------------------------------------------------- #
@pytest.mark.tier2
class TestClusterChaosHammer:
    def test_two_replica_cluster_survives_partition_chaos(self, monkeypatch,
                                                          tmp_path, pinned):
        """The acceptance gate: two spawned replica servers (one with kill
        injection) plus a local member, under seeded client-side disconnect
        + drop + dup + delay.  Every request ends typed, completions are
        bit-identical to an unfaulted serial reference, and the partition
        machinery (reconnects, hedges, failovers) all fired."""
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path / "artifacts"))

        config = F3RConfig(variant="fp32", m1=10, adaptive_weight=False)
        ops = [_operator(8), _operator(10)]
        pairs = [(ops[i % 2], _rhs(ops[i % 2], i)) for i in range(60)]

        # unfaulted serial reference, before any plan is installed
        with BatchDispatcher(config, max_batch=1, max_workers=1,
                             overload=False) as ref:
            reference = [f.result() for f in
                         [ref.submit(op, b) for op, b in pairs]]

        # the kill-injected replica (real process death mid-solve) must be
        # the fingerprints' *primary* so the death forces failovers: name
        # the members by the rendezvous ranking of the hot fingerprint
        names = ["alpha", "beta", "gamma"]
        killer = rank_members(ops[0].fingerprint(), names)[0]
        others = [n for n in names if n != killer]
        # seed=31, kill_rate=0.1 at site remote.server: first kill fires on
        # the 7th solve frame (precomputed; deterministic per Philox)
        server_net = "drop_rate=0.04,dup_rate=0.04,disconnect_rate=0.02"
        proc_a, addr_a = spawn_server(
            config=config, max_workers=1, heartbeat_interval=0.1,
            artifacts_dir=str(tmp_path / "artifacts"),
            fault_spec=f"seed=31,rate=0,kill_rate=0.1,{server_net}")
        proc_b, addr_b = spawn_server(
            config=config, max_workers=1, heartbeat_interval=0.1,
            artifacts_dir=str(tmp_path / "artifacts"),
            fault_spec=f"seed=32,rate=0,{server_net}")

        plan = FaultPlan(seed=33, rate=0.0, drop_rate=0.06, dup_rate=0.05,
                         disconnect_rate=0.03, net_delay_ms=3.0)
        completed, expired, failed = {}, [], {}
        try:
            with inject(plan):
                cluster = ClusterConfig(
                    members=((killer, "%s:%d" % tuple(addr_a)),
                             (others[0], "%s:%d" % tuple(addr_b)),
                             (others[1], "local")),
                    max_batch=1, max_retries=6, retry_backoff=0.05,
                    hedge_ms=150.0, heartbeat_interval=0.1, miss_limit=3,
                    resend_timeout=0.4, backoff_base=0.02, backoff_max=0.3,
                    reconnect_attempts=3, connect_timeout=1.0)
                gateway = ClusterGateway(config=config, cluster=cluster,
                                         max_workers=1)
                try:
                    resolved = []
                    futures = {}
                    for i, (op, b) in enumerate(pairs):
                        deadline = 60.0 if i % 2 == 0 else None
                        futures[i] = gateway.submit(op, b, deadline=deadline)
                        futures[i].add_done_callback(
                            lambda f: resolved.append(1))
                        if i % 7 == 6:
                            gateway.flush()
                    gateway.flush()
                    gateway.drain()
                    for i, future in futures.items():
                        exc = future.exception()
                        if exc is None:
                            completed[i] = future.result()
                        elif isinstance(exc, DeadlineExceeded):
                            expired.append(i)
                        elif isinstance(exc, (ShardUnreachable, WorkerError,
                                              AdmissionRefused)):
                            failed[i] = exc
                        else:
                            raise AssertionError(
                                f"request {i} failed untyped: {exc!r}")
                    summary = gateway.stats.summary()
                finally:
                    gateway.close()
        finally:
            for proc in (proc_a, proc_b):
                if proc.is_alive():
                    proc.terminate()
                proc.join(10)

        # exactly-once completion accounting: every future resolved exactly
        # once (Future semantics + one done-callback firing each), and every
        # outcome is one of the typed buckets
        assert len(resolved) == 60
        assert len(completed) + len(expired) + len(failed) == 60
        assert len(completed) >= 40, (len(completed), len(expired),
                                      dict(list(failed.items())[:3]))
        # bit-identity against the unfaulted serial reference
        for i, result in completed.items():
            assert result.converged
            np.testing.assert_array_equal(result.x, reference[i].x)
        # the partition machinery all actually fired
        cl = summary["cluster"]
        assert cl["reconnects"] >= 1, cl
        assert cl["hedges"] >= 1, cl
        assert cl["failovers"] >= 1, cl
        assert not proc_a.is_alive()       # the kill injection landed
        # the seeded chaos is auditable from the plan's record log
        assert any(r.site == "net.client" for r in plan.records)
        # and the whole thing renders
        text = render_metrics(summary)
        assert "repro_cluster_failovers" in text


# ---------------------------------------------------------------------- #
# Satellite 6: the REPRO_FAULTS-driven network chaos smoke
# ---------------------------------------------------------------------- #
@pytest.mark.tier2
@pytest.mark.skipif(not os.environ.get("REPRO_FAULTS"),
                    reason="needs a REPRO_FAULTS network-fault plan "
                           "(make test-chaos provides one)")
class TestEnvFaultSmoke:
    def test_env_plan_drives_remote_smoke(self):
        """`make test-chaos` runs this with REPRO_FAULTS set: the env plan
        injects frame faults on a real localhost link and every request
        still completes."""
        from repro.faults import active_plan
        plan = active_plan()
        assert plan is not None
        config = _config()
        A = _operator()
        with ShardServer(config=config, max_workers=1,
                         heartbeat_interval=0.1) as server:
            with RemoteShard(server.address, name="s0", resend_timeout=0.3,
                             backoff_base=0.02, backoff_max=0.2,
                             heartbeat_interval=0.1, miss_limit=3) as shard:
                futures = [shard.submit_batch(
                    A.fingerprint(), _rhs(A, seed).reshape(-1, 1),
                    setup_factory=lambda: A) for seed in range(10)]
                for future in futures:
                    slots, _ = future.result(timeout=120)
                    assert len(slots) == 1
                    assert getattr(slots[0], "converged", False), slots
        assert any(r.site.startswith("net.") for r in plan.records), \
            "the env plan's network rates never fired"
