"""Remote shard transport: the batch protocol over TCP, partition-tolerant.

:class:`ShardServer` serves a :class:`~repro.serve.executor.ThreadMember`
behind a socket; :class:`RemoteShard` is the client-side member a
:class:`~repro.serve.cluster.ClusterGateway` routes batches onto.  What
this module owns is robustness across the socket:

* **Length-prefixed frames** — every message is ``magic | u32 length |
  pickled tuple``: ``("solve", req_id, fingerprint, setup, rhs_block,
  deadlines, degrade)`` down, ``("result", req_id, slots, snapshot)`` /
  ``("error", req_id, kind, type_name, message)`` up.
* **Heartbeats with miss-count detection** — both ends emit ``("hb",)``
  every ``heartbeat_interval``; a link silent for ``miss_limit`` intervals
  is declared dead and torn down, which converts a silent partition into
  the same observable event as a closed socket.
* **Reconnect with jittered exponential backoff** — the client owns link
  recovery: backoff doubles per attempt up to ``backoff_max`` with
  deterministic per-attempt jitter, and after ``reconnect_attempts``
  consecutive failures the shard is declared *down*: in-flight futures fail
  typed (:class:`ShardUnreachable`) so the cluster can fail over, while a
  slow background probe keeps trying — a shard that comes back is revived.
* **Bounded inflight-replay buffer** — every unacknowledged request stays
  in a bounded buffer (``max_inflight``; admission beyond it fails typed)
  and is replayed after a reconnect and re-sent after ``resend_timeout``
  of silence, which makes dropped frames and ambiguous disconnects safe.
* **Idempotent request ids** — the server keeps a bounded LRU of completed
  responses plus the set of currently-executing ids.  A replayed request
  that already completed is answered from the cache (never re-executed);
  one replayed *while executing* just re-targets the reply at the newest
  connection, so an ambiguous disconnect resolves to exactly one
  completion.
* **Deterministic network fault injection** — every frame send consults
  :func:`repro.faults.maybe_net` (sites ``net.client`` / ``net.server``):
  seeded drops, duplicated deliveries, injected per-message delay, and
  abrupt disconnects replay exactly from ``REPRO_FAULTS``.

Deadlines cross the wire as wall-clock absolutes; the executor expires
overdue columns without solving them.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from contextlib import nullcontext

import numpy as np

from .. import faults
from .executor import RemoteError, SetupExecutor, ThreadMember, WorkerError
from .frontdoor import AdmissionRefused, _resolve_once

__all__ = [
    "RemoteShard",
    "ShardServer",
    "ShardUnreachable",
    "recv_frame",
    "send_frame",
    "spawn_server",
]

_MAGIC = b"RPS1"
_HEADER = struct.Struct(">I")
_MAX_FRAME = 1 << 30


class ShardUnreachable(RuntimeError):
    """The remote shard cannot be reached (reconnect attempts exhausted)."""

    def __init__(self, name: str, reason: str) -> None:
        super().__init__(f"shard {name!r} unreachable: {reason}")
        self.shard = name
        self.reason = reason


# ------------------------------------------------------------------ #
# Frame codec
# ------------------------------------------------------------------ #
def send_frame(sock: socket.socket, obj, site: str | None = None,
               lock: threading.Lock | None = None) -> None:
    """Serialize and send one frame, applying injected network faults.

    With an active fault plan and a ``site``, the frame may be dropped
    (silently not sent), duplicated (sent twice), delayed, or the link torn
    down mid-send (socket closed + :class:`ConnectionResetError`) — all
    deterministic per ``(seed, site, call-count)``.
    """
    event, delay = (faults.maybe_net(site) if site is not None
                    else (None, 0.0))
    if delay > 0.0:
        time.sleep(delay)
    if event == "drop":
        return
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    frame = _MAGIC + _HEADER.pack(len(payload)) + payload
    if event == "disconnect":
        try:
            sock.close()
        finally:
            raise ConnectionResetError(f"injected disconnect at {site}")
    with lock if lock is not None else nullcontext():
        sock.sendall(frame)
        if event == "dup":
            sock.sendall(frame)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket):
    """Receive one length-prefixed frame and unpickle its payload."""
    header = _recv_exact(sock, len(_MAGIC) + _HEADER.size)
    if header[:len(_MAGIC)] != _MAGIC:
        raise ConnectionError(f"bad frame magic {header[:len(_MAGIC)]!r}")
    (length,) = _HEADER.unpack(header[len(_MAGIC):])
    if length > _MAX_FRAME:
        raise ConnectionError(f"frame length {length} exceeds cap")
    return pickle.loads(_recv_exact(sock, length))


# ------------------------------------------------------------------ #
# Server
# ------------------------------------------------------------------ #
class _Conn:
    """One accepted client connection (socket + its send lock)."""

    __slots__ = ("sock", "lock", "peer", "alive")

    def __init__(self, sock: socket.socket, peer) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.peer = peer
        self.alive = True

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass


class ShardServer:
    """Serves the batch protocol over TCP on top of a thread member.

    ``config``, ``preconditioner``, ``nblocks``, ``alpha``, ``backend``,
    ``cache_size`` and ``max_workers`` configure the served
    :class:`~repro.serve.executor.ThreadMember` (as on
    :class:`~repro.serve.dispatcher.BatchDispatcher`); each protocol batch
    runs on it as sent, with its deadlines and ``degrade`` flags.  The
    request policy — retry, breaker, brownout — is the calling ring's.  A
    shipped operator is kept only while its setup is cached: when the
    executor's LRU evicts the setup, the operator goes too, and a later
    request for it is answered ``stale`` so the client reships it.
    Transport-specific knobs:

    heartbeat_interval:
        Seconds between ``("hb",)`` frames to every live connection.
    client_timeout:
        A connection silent this long is closed (default: six heartbeat
        intervals) — the client reconnects and replays.
    dedup_cache:
        Completed responses kept for request-id deduplication (bounded
        LRU).  Sized to comfortably exceed any client's ``max_inflight``.
    fault_spec:
        Optional ``REPRO_FAULTS`` grammar string installed at construction
        — how a *spawned* server process receives its seeded fault plan.
    artifacts_dir:
        Optional persistent artifact store path (the shared
        ``REPRO_ARTIFACTS`` store failover warm-up reads from).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 config=None, preconditioner="auto",
                 nblocks: int | None = None, alpha: float = 1.0,
                 backend: str | None = None, cache_size: int = 8,
                 max_workers: int = 2, heartbeat_interval: float = 0.5,
                 client_timeout: float | None = None,
                 dedup_cache: int = 1024, name: str | None = None,
                 fault_spec: str | None = None,
                 artifacts_dir: str | None = None) -> None:
        if artifacts_dir is not None:
            from ..cache import set_artifacts_dir

            set_artifacts_dir(artifacts_dir)
        if fault_spec is not None:
            faults.install_from_env(fault_spec)
        self.heartbeat_interval = float(heartbeat_interval)
        self.client_timeout = (float(client_timeout) if client_timeout
                               is not None else 6.0 * self.heartbeat_interval)
        self.dedup_cache = int(dedup_cache)
        # an operator lives as long as its setup: an LRU eviction drops
        # it too, and the client reships it on the "stale" reply
        self._member = ThreadMember("server", SetupExecutor(
            config, preconditioner, nblocks, alpha, backend, cache_size,
            on_evict=self._drop_operator), max_workers)
        self._host = host
        self._requested_port = int(port)
        self._listener: socket.socket | None = None
        self._nonce = os.urandom(8).hex()
        self._lock = threading.Lock()
        self._conns: list[_Conn] = []
        self._operators: dict[str, object] = {}
        self._done: OrderedDict[str, tuple] = OrderedDict()
        self._running: dict[str, _Conn] = {}
        self._counters = {
            "requests": 0, "batches": 0, "dedup_hits": 0,
            "replayed_running": 0, "stale_misses": 0, "connections": 0,
        }
        self._closed = False
        self._threads: list[threading.Thread] = []
        self.name = name

    # -------------------------------------------------------------- #
    def start(self) -> "ShardServer":
        """Bind, listen, and start the accept/heartbeat threads."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._requested_port))
            listener.listen(16)
        except BaseException:
            listener.close()
            raise
        self._listener = listener
        if self.name is None:
            self.name = "%s:%d" % listener.getsockname()[:2]
        for target, tag in ((self._accept_loop, "accept"),
                            (self._heartbeat_loop, "hb")):
            thread = threading.Thread(target=target, daemon=True,
                                      name=f"repro-shard-{tag}")
            thread.start()
            self._threads.append(thread)
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[:2]

    def __enter__(self) -> "ShardServer":
        return self.start() if self._listener is None else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- #
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return          # listener closed
            sock.settimeout(self.client_timeout)
            conn = _Conn(sock, peer)
            with self._lock:
                self._conns.append(conn)
                self._counters["connections"] += 1
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True, name="repro-shard-conn").start()

    def _heartbeat_loop(self) -> None:
        while not self._closed:
            time.sleep(self.heartbeat_interval)
            with self._lock:
                conns = [c for c in self._conns if c.alive]
            for conn in conns:
                self._send(conn, ("hb",))

    def _serve_conn(self, conn: _Conn) -> None:
        try:
            hello = recv_frame(conn.sock)
            if not (isinstance(hello, tuple) and hello[0] == "hello"):
                raise ConnectionError(f"expected hello, got {hello!r}")
            send_frame(conn.sock, ("hello", self._nonce, {"name": self.name}),
                       lock=conn.lock)
            while not self._closed:
                frame = recv_frame(conn.sock)
                self._handle(conn, frame)
        except (ConnectionError, OSError, EOFError, pickle.PickleError,
                socket.timeout):
            pass
        finally:
            conn.close()
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    # -------------------------------------------------------------- #
    def _handle(self, conn: _Conn, frame) -> None:
        kind = frame[0]
        if kind == "hb":
            return
        if kind == "solve":
            _, rid, fp, setup, rhs_block, deadlines, degrade = frame
            self._handle_solve(conn, rid, fp, setup, rhs_block,
                               deadlines, degrade)
        elif kind == "warm":
            _, rid, fp, setup = frame
            self._handle_warm(conn, rid, fp, setup)
        elif kind == "evict":
            self._handle_evict(frame[1])
        else:
            raise ConnectionError(f"unknown frame kind {kind!r}")

    def _replay_check(self, conn: _Conn, rid: str) -> bool:
        """Serve a replayed request id from dedup state.  True = handled."""
        with self._lock:
            cached = self._done.get(rid)
            if cached is not None:
                self._done.move_to_end(rid)
                self._counters["dedup_hits"] += 1
            elif rid in self._running:
                # replayed while executing: answer the newest connection
                # when the batch completes, never execute twice
                self._running[rid] = conn
                self._counters["dedup_hits"] += 1
                self._counters["replayed_running"] += 1
                return True
        if cached is not None:
            self._send(conn, cached)
            return True
        return False

    def _handle_solve(self, conn: _Conn, rid: str, fp: str, setup,
                      rhs_block: np.ndarray, deadlines, degrade) -> None:
        faults.maybe_kill_process("remote.server")
        if self._replay_check(conn, rid):
            return
        with self._lock:
            if setup is not None:
                self._operators[fp] = setup
            operator = self._operators.get(fp)
            if operator is None:
                self._counters["stale_misses"] += 1
            else:
                self._counters["requests"] += rhs_block.shape[1]
                self._counters["batches"] += 1
                self._running[rid] = conn
        if operator is None:
            # NOT cached in the dedup LRU: once the client re-sends the
            # setup, the same id must execute
            self._send(conn, ("error", rid, "stale", "KeyError",
                              f"unknown fingerprint {fp!r}"))
            return
        self._relay(rid, "solve", lambda: self._member.submit_batch(
            fp, rhs_block, lambda: operator, deadlines, degrade))

    def _handle_warm(self, conn: _Conn, rid: str, fp: str, setup) -> None:
        if self._replay_check(conn, rid):
            return
        with self._lock:
            self._operators[fp] = setup
            self._running[rid] = conn
        self._relay(rid, "setup",
                    lambda: self._member.submit_warm(fp, lambda: setup))

    def _relay(self, rid: str, kind: str, submit) -> None:
        """Complete ``rid`` with the member future's slots, or with a
        ``kind`` error when it fails (or cannot start)."""
        def done(future: Future) -> None:
            exc = future.exception()
            if exc is None:
                slots, _ = future.result()
                self._complete(rid, ("result", rid, slots, self._snapshot()))
            else:
                self._complete(rid, ("error", rid, kind, type(exc).__name__,
                                     str(exc)))

        try:
            future = submit()
        except Exception as exc:   # noqa: BLE001 - a closed member
            future = Future()
            future.set_exception(exc)
        future.add_done_callback(done)

    def _handle_evict(self, fp: str) -> None:
        self._member.evict(fp)

    def _drop_operator(self, fp: str) -> None:
        with self._lock:
            self._operators.pop(fp, None)

    def _complete(self, rid: str, response: tuple) -> None:
        """Cache the finished response for dedup, then deliver it."""
        with self._lock:
            conn = self._running.pop(rid, None)
            self._done[rid] = response
            self._done.move_to_end(rid)
            while len(self._done) > self.dedup_cache:
                self._done.popitem(last=False)
        if conn is not None:
            self._send(conn, response)

    def _send(self, conn: _Conn, frame: tuple) -> None:
        """Best-effort delivery; a failed send closes the connection and
        leaves the response in the dedup cache for the client's replay."""
        if not conn.alive:
            return
        try:
            send_frame(conn.sock, frame, site="net.server", lock=conn.lock)
        except (OSError, ConnectionError):
            conn.close()

    # -------------------------------------------------------------- #
    def _snapshot(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
        return {**self._member.snapshot(), **counters, "name": self.name}

    def stats(self) -> dict:
        return self._snapshot()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            conn.close()
        self._member.close()


# ------------------------------------------------------------------ #
# Client
# ------------------------------------------------------------------ #
class _Inflight:
    __slots__ = ("rid", "kind", "fp", "rhs_block", "deadlines", "degrade",
                 "setup_factory", "future", "first_sent", "last_sent", "seq")

    def __init__(self, rid: str, kind: str, fp: str, setup_factory,
                 rhs_block=None, deadlines=None, degrade=None,
                 seq: int = 0) -> None:
        self.rid = rid
        self.kind = kind                  # "solve" | "warm"
        self.fp = fp
        self.setup_factory = setup_factory
        self.rhs_block = rhs_block
        self.deadlines = deadlines
        self.degrade = degrade
        self.future: Future = Future()
        self.first_sent = time.monotonic()
        self.last_sent = self.first_sent
        self.seq = seq


def _parse_address(address) -> tuple[str, int]:
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        return host or "127.0.0.1", int(port)
    host, port = address
    return host, int(port)


class RemoteShard:
    """Client-side transport handle for one remote shard server.

    Speaks the ring's member contract at batch granularity —
    :meth:`submit_batch` returns a future resolving to ``(slots,
    snapshot)`` where each slot is a :class:`~repro.solvers.SolveResult`,
    an :class:`~repro.serve.executor.ExpiredRequest`, or a
    :class:`RemoteError`
    — and owns every link-level concern (heartbeats, reconnect with
    jittered exponential backoff, bounded inflight replay, resend after
    silence, request-id dedup cooperation).  See the module docstring for
    the protocol-level guarantees.

    ``setup_factory`` is called (at frame-build time) only when the current
    server session does not know the fingerprint yet — including after a
    reconnect landed on a *restarted* server (fresh nonce), where every
    replayed frame re-attaches its operator.
    """

    def __init__(self, address, name: str | None = None,
                 connect_timeout: float = 5.0,
                 heartbeat_interval: float = 0.5, miss_limit: int = 3,
                 max_inflight: int = 128, resend_timeout: float = 1.0,
                 backoff_base: float = 0.05, backoff_max: float = 2.0,
                 reconnect_attempts: int = 8,
                 probe_interval: float | None = None) -> None:
        self._host, self._port = _parse_address(address)
        self.name = name or f"{self._host}:{self._port}"
        self.connect_timeout = float(connect_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.miss_limit = int(miss_limit)
        self.max_inflight = int(max_inflight)
        self.resend_timeout = float(resend_timeout)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.reconnect_attempts = int(reconnect_attempts)
        self.probe_interval = (float(probe_interval) if probe_interval
                               is not None else max(backoff_max, 0.5))
        self._nonce = os.urandom(4).hex()
        self._seq = 0
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._server_nonce: str | None = None
        self._known: set[str] = set()
        self._inflight: OrderedDict[str, _Inflight] = OrderedDict()
        self._connected = threading.Event()
        self._last_rx = time.monotonic()
        self._dead = False
        self._closed = False
        self._rtts: deque[float] = deque(maxlen=128)
        self._last_snapshot: dict = {}
        self._counters = {
            "reconnects": 0, "resends": 0, "replays": 0, "late_results": 0,
            "heartbeat_misses": 0, "stale_recoveries": 0,
        }
        try:
            self._connect_once()
        except (OSError, ConnectionError):
            pass                          # the rx thread keeps trying
        self._threads = [
            threading.Thread(target=self._rx_loop, daemon=True,
                             name=f"repro-remote-rx-{self.name}"),
            threading.Thread(target=self._hb_loop, daemon=True,
                             name=f"repro-remote-hb-{self.name}"),
        ]
        for thread in self._threads:
            thread.start()

    # -------------------------------------------------------------- #
    # Link management
    # -------------------------------------------------------------- #
    def _connect_once(self) -> None:
        sock = socket.create_connection((self._host, self._port),
                                        timeout=self.connect_timeout)
        try:
            send_frame(sock, ("hello", f"{self.name}/{self._nonce}"))
            reply = recv_frame(sock)
            if not (isinstance(reply, tuple) and reply[0] == "hello"):
                raise ConnectionError(f"bad handshake reply {reply!r}")
            nonce = reply[1]
        except BaseException:
            sock.close()
            raise
        sock.settimeout(None)
        with self._lock:
            if nonce != self._server_nonce:
                # a *different* server instance answered (restart / failback
                # to a fresh replica): its dedup and operator state is empty
                self._server_nonce = nonce
                self._known.clear()
            self._sock = sock
            self._last_rx = time.monotonic()
        self._connected.set()

    def _kill_link(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        self._connected.clear()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _mark_dead(self) -> None:
        with self._lock:
            if self._dead:
                return
            self._dead = True
            entries = list(self._inflight.values())
            self._inflight.clear()
        exc = ShardUnreachable(
            self.name, f"{self.reconnect_attempts} reconnect attempts failed")
        for entry in entries:
            _resolve_once(entry.future, exc=exc)

    def _jitter(self, attempt: int) -> float:
        # deterministic per (shard, attempt): spreads a thundering herd of
        # reconnecting clients without perturbing seeded replays
        import zlib

        roll = zlib.crc32(f"{self.name}:{self._nonce}:{attempt}".encode())
        return 0.5 + (roll % 1024) / 1024.0

    def _rx_loop(self) -> None:
        attempt = 0
        while not self._closed:
            sock = self._sock
            if sock is None:
                attempt += 1
                try:
                    self._connect_once()
                except (OSError, ConnectionError):
                    if attempt >= self.reconnect_attempts:
                        self._mark_dead()
                        delay = self.probe_interval
                    else:
                        delay = min(self.backoff_max,
                                    self.backoff_base * (2 ** (attempt - 1)))
                        delay *= self._jitter(attempt)
                    time.sleep(delay)
                    continue
                with self._lock:
                    self._dead = False     # fresh traffic will find us up
                    self._counters["reconnects"] += 1
                attempt = 0
                self._replay_inflight()
                continue
            try:
                frame = recv_frame(sock)
            except (OSError, ConnectionError, EOFError, pickle.PickleError):
                if self._closed:
                    return
                self._kill_link()
                continue
            with self._lock:
                self._last_rx = time.monotonic()
            self._dispatch_frame(frame)

    def _hb_loop(self) -> None:
        while not self._closed:
            time.sleep(self.heartbeat_interval)
            sock = self._sock
            if sock is None:
                continue
            silent = time.monotonic() - self._last_rx
            if silent > self.miss_limit * self.heartbeat_interval:
                # miss-count trip: a silent partition becomes a dead link
                with self._lock:
                    self._counters["heartbeat_misses"] += 1
                self._kill_link()
                continue
            try:
                send_frame(sock, ("hb",), site="net.client",
                           lock=self._send_lock)
            except (OSError, ConnectionError):
                self._kill_link()
                continue
            self._resend_sweep()

    def _resend_sweep(self) -> None:
        """Re-send inflight frames unanswered past ``resend_timeout`` —
        the recovery path for silently dropped frames on a healthy link."""
        now = time.monotonic()
        with self._lock:
            stale = [e for e in self._inflight.values()
                     if now - e.last_sent > self.resend_timeout]
        for entry in stale:
            with self._lock:
                self._counters["resends"] += 1
            self._send_entry(entry)

    def _replay_inflight(self) -> None:
        with self._lock:
            entries = sorted(self._inflight.values(), key=lambda e: e.seq)
            self._counters["replays"] += len(entries)
        for entry in entries:
            self._send_entry(entry)

    # -------------------------------------------------------------- #
    # Frame handling
    # -------------------------------------------------------------- #
    def _dispatch_frame(self, frame) -> None:
        kind = frame[0]
        if kind == "hb":
            return
        if kind == "result":
            _, rid, slots, snapshot = frame
            with self._lock:
                entry = self._inflight.pop(rid, None)
                if entry is None:
                    # a duplicated delivery or a hedge-lost reply: the
                    # request already completed — never a second completion
                    self._counters["late_results"] += 1
                    return
                self._rtts.append(time.monotonic() - entry.first_sent)
                self._last_snapshot = snapshot or {}
            _resolve_once(entry.future, result=(slots, snapshot))
        elif kind == "error":
            _, rid, err_kind, type_name, message = frame
            if err_kind == "stale":
                # the server session lost (or never had) this fingerprint's
                # setup: re-send with the operator attached
                with self._lock:
                    entry = self._inflight.get(rid)
                    if entry is None:
                        self._counters["late_results"] += 1
                        return
                    self._known.discard(entry.fp)
                    self._counters["stale_recoveries"] += 1
                self._send_entry(entry)
                return
            with self._lock:
                entry = self._inflight.pop(rid, None)
            if entry is not None:
                _resolve_once(entry.future,
                              exc=WorkerError(err_kind, type_name, message))

    def _send_entry(self, entry: _Inflight) -> None:
        sock = self._sock
        if sock is None:
            return                        # buffered; replayed on reconnect
        with self._lock:
            attach_setup = entry.fp not in self._known
        setup = entry.setup_factory() if attach_setup else None
        if entry.kind == "warm":
            frame = ("warm", entry.rid, entry.fp,
                     setup if setup is not None else entry.setup_factory())
        else:
            frame = ("solve", entry.rid, entry.fp, setup, entry.rhs_block,
                     entry.deadlines, entry.degrade)
        try:
            send_frame(sock, frame, site="net.client", lock=self._send_lock)
        except (OSError, ConnectionError):
            self._kill_link()
            return
        entry.last_sent = time.monotonic()
        if attach_setup:
            with self._lock:
                self._known.add(entry.fp)

    # -------------------------------------------------------------- #
    # Submission surface
    # -------------------------------------------------------------- #
    def _admit(self, kind: str, fp: str, setup_factory, rhs_block=None,
               deadlines=None, degrade=None) -> _Inflight:
        with self._lock:
            if self._closed:
                raise ShardUnreachable(self.name, "client closed")
            if self._dead:
                raise ShardUnreachable(
                    self.name,
                    f"down after {self.reconnect_attempts} reconnect attempts")
            if len(self._inflight) >= self.max_inflight:
                raise AdmissionRefused(
                    f"shard {self.name!r} inflight-replay buffer full "
                    f"({self.max_inflight})")
            self._seq += 1
            rid = f"{self._nonce}-{self._seq}"
            entry = _Inflight(rid, kind, fp, setup_factory,
                              rhs_block=rhs_block, deadlines=deadlines,
                              degrade=degrade, seq=self._seq)
            self._inflight[rid] = entry
        return entry

    def submit_batch(self, fingerprint: str, rhs_block: np.ndarray,
                     setup_factory, deadlines=None, degrade=None) -> Future:
        """Ship one batch; future resolves to ``(slots, snapshot)``.

        ``deadlines`` are wall-clock absolutes (``time.time()`` domain) or
        ``None`` per column; ``degrade`` is an optional per-column
        degradable flag list.
        """
        entry = self._admit("solve", fingerprint, setup_factory,
                            rhs_block=rhs_block, deadlines=deadlines,
                            degrade=degrade)
        self._send_entry(entry)
        return entry.future

    def submit_warm(self, fingerprint: str, setup_factory) -> Future:
        """Build the fingerprint's setup server-side before traffic."""
        entry = self._admit("warm", fingerprint, setup_factory)
        self._send_entry(entry)
        return entry.future

    def evict(self, fingerprint: str) -> None:
        """Best-effort server-side cache eviction."""
        sock = self._sock
        if sock is None:
            return
        try:
            send_frame(sock, ("evict", fingerprint), site="net.client",
                       lock=self._send_lock)
        except (OSError, ConnectionError):
            self._kill_link()

    # -------------------------------------------------------------- #
    @property
    def healthy(self) -> bool:
        return not self._dead and not self._closed

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def wait_connected(self, timeout: float | None = None) -> bool:
        return self._connected.wait(timeout)

    def rtt_percentile(self, q: float,
                       min_samples: int = 1) -> float | None:
        """Observed round-trip percentile in seconds (``None`` until at
        least ``min_samples`` round trips have been measured)."""
        with self._lock:
            samples = list(self._rtts)
        if len(samples) < max(1, min_samples):
            return None
        return float(np.percentile(np.asarray(samples), q))

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            samples = list(self._rtts)
            state = ("closed" if self._closed else
                     "down" if self._dead else
                     "up" if self._sock is not None else "connecting")
            inflight = len(self._inflight)
            snapshot = dict(self._last_snapshot)
        rtt = {"samples": len(samples)}
        if samples:
            arr = np.asarray(samples) * 1e3
            rtt["p50_ms"] = round(float(np.percentile(arr, 50)), 3)
            rtt["p95_ms"] = round(float(np.percentile(arr, 95)), 3)
        counters.update(name=self.name, kind="remote",
                        address=f"{self._host}:{self._port}",
                        state=state, inflight=inflight, rtt=rtt,
                        server=snapshot)
        return counters

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._inflight.values())
            self._inflight.clear()
        self._kill_link()
        for entry in entries:
            _resolve_once(entry.future,
                          exc=ShardUnreachable(self.name, "client closed"))

    def __enter__(self) -> "RemoteShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RemoteShard({self.name!r}, "
                f"state={self.stats()['state']!r})")


# ------------------------------------------------------------------ #
# Subprocess servers (chaos tests, examples)
# ------------------------------------------------------------------ #
def _server_process_main(pipe, kwargs: dict) -> None:  # pragma: no cover
    server = ShardServer(**kwargs).start()
    pipe.send(server.address)
    pipe.close()
    threading.Event().wait()              # serve until the process is killed


def spawn_server(timeout: float = 60.0, **kwargs):
    """Start a :class:`ShardServer` in a fresh spawned process.

    Returns ``(process, (host, port))``.  The process is a daemon serving
    until terminated.  Servers spawned on localhost are how a ring reaches
    several cores past the GIL, and the real process that kill injection
    and failover tests need (an in-process server cannot die
    independently).
    """
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    parent, child = ctx.Pipe()
    process = ctx.Process(target=_server_process_main, args=(child, kwargs),
                          daemon=True)
    process.start()
    child.close()
    if not parent.poll(timeout):
        process.terminate()
        raise RuntimeError("spawned shard server did not report its address")
    address = parent.recv()
    parent.close()
    return process, address
