"""Remote shard tier: worker daemons over TCP, speaking the ring wire
format.

This is the distributed half of the shard runtime: the router connects
to N worker endpoints (``--shard-backend remote --shard-workers
host:port,...``), and every batch crosses the socket as one frame in
the WAL's CRC32 record format — the exact bytes the shared-memory ring
transport carries, produced by the shared codec in
:mod:`repro.sharding.wire`.

The backend preserves everything the local backends guarantee:

* **Deterministic merge.**  Workers tag results with the same
  ``(seq, rank, kind, end, idx)`` coordinates, so the router's
  seq-aligned merge emits output bit-identical to single-process —
  including watermark-released trailing-negation matches.
* **Credit-based backpressure.**  The local bounded queue becomes a
  per-connection credit count: at most ``queue_capacity`` unacked
  batches may be in flight per worker; an exhausted connection raises
  ``queue.Full`` exactly like a full bounded queue, so the base
  stall/hang ladder is reused unchanged.
* **Heartbeats.**  An idle coordinator pings each worker; a missing
  pong within the hang budget fails the shard over through the same
  :class:`~repro.resilience.ShardSupervisor` breaker ladder as a local
  hang.  Pong round-trips feed the per-connection RTT metrics.
* **Reconnect with journal replay.**  Every batch is journaled; a
  worker death (socket EOF, send error, corrupt frame, heartbeat
  timeout) tears the connection down and reconnects — on a jittered
  exponential backoff ladder (:func:`repro.resilience.retry
  .retry_call`) bounded by the connect budget — with a bumped
  incarnation, replaying the journal into the fresh worker core;
  duplicate responses are suppressed by the coordinator's outstanding
  set, so results stay exactly-once.  A link that stays down past the
  budget degrades the shard as *partitioned*: the same breaker ladder
  and lost-window accounting as a crash, surfaced as ``partition``
  faults and ``complete=False`` results.  Endpoints on a local host
  that nothing listens on are *owned*: the coordinator spawns ``repro
  worker`` subprocesses for them and respawns on death (supervised
  respawn).  Endpoints something already listens on are *external*:
  worker loss is handled by reconnecting until the daemon re-accepts
  (passive re-accept), never by spawning.

A worker daemon (``repro worker --port P --shard-secret ...``) serves
one coordinator session at a time and rebuilds a fresh
:class:`~repro.sharding.worker.ShardWorkerCore` from the ``spec``
frame of every new session — mandatory for replay correctness: a stale
core would double-produce.

**Security model.**  Every session starts with a mutual HMAC-SHA256
challenge–response handshake (:func:`repro.sharding.wire.auth_proof`)
keyed by a shared secret that both sides load out-of-band
(``--shard-secret``, literal / ``env:NAME`` / ``file:PATH``), plus
explicit protocol-version negotiation.  The coordinator proves first,
so an unauthenticated peer learns nothing but a nonce; a wrong secret
or version mismatch is answered with a typed ``reject`` and the
connection is closed before any spec frame is decoded.  The only
pickle left on the wire is the post-auth ``WorkerSpec`` frame, decoded
through a closed class allowlist — no frame either side reads can make
it deserialize arbitrary code.  What this does *not* provide:
transport encryption or integrity against an active man-in-the-middle
(frames are CRC-checked, not MACed).  Run the tier over a trusted or
tunneled network when the links themselves are hostile; the handshake
protects against untrusted *peers*, not untrusted *wires*.

For fault testing, the ``net.*`` chaos sites wrap either side's socket
in a deterministic fault injector (:class:`ChaosSocket`): delayed and
trickled delivery, flipped bytes (caught by the CRC framing), severed
connections, and timed partitions, all seeded per scope and
incarnation so chaos runs converge byte-identically after reconnect
and journal replay.
"""

from __future__ import annotations

import contextlib
import hmac
import os
import queue as queue_module
import select
import socket
import subprocess
import sys
import time
import traceback

from repro.errors import SaseError
from repro.resilience.chaos import ChaosConfig, FaultInjector
from repro.resilience.retry import retry_call
from repro.sharding.backends import _STOP_JOIN_TIMEOUT, \
    _WAIT_PARK_MAX, _BoundedChannelBackend
from repro.sharding.wire import MAX_RECORD_BYTES, PROTOCOL_VERSION, \
    FrameBuffer, Unencodable, WireCorrupt, auth_proof, decode_request, \
    decode_response, encode_request, encode_response, pack_message, \
    pack_spec, unpack_payload
from repro.sharding.worker import ShardWorkerCore, _build_injector, \
    _inject_worker_fault

_LOCAL_HOSTS = frozenset({"127.0.0.1", "localhost", "::1"})
_RECV_BYTES = 1 << 16
#: One TCP connect attempt / whole-reconnect-ladder cap.
_CONNECT_TIMEOUT = 1.0
_CONNECT_BUDGET = 15.0
#: Reconnect backoff ladder: full jitter over an exponential cap
#: (5 ms, 10 ms, ... capped at 250 ms) until the budget runs out.
_CONNECT_BASE_DELAY = 0.005
_CONNECT_MAX_DELAY = 0.25
#: A sendall stalled this long means the worker stopped reading with
#: only ``queue_capacity`` small batches in flight: treat as wedged.
_SEND_TIMEOUT = 5.0
#: select() granularity while blocked waiting for credits to free.
_CREDIT_TICK = 0.005
#: Idle gap after which the coordinator pings a connection, and the
#: pong deadline when no supervisor supplies a hang budget.
_HEARTBEAT_INTERVAL = 0.5
_HEARTBEAT_TIMEOUT = 10.0
#: Handshake hardening: a peer gets this long and this many buffered
#: bytes to authenticate; until it does, no frame larger than a
#: handshake message is even buffered.
_HANDSHAKE_TIMEOUT = 5.0
_HANDSHAKE_MAX_BYTES = 4096
_NONCE_BYTES = 16
#: Environment variable owned coordinator-spawned workers read their
#: secret from (never the command line: argv is world-readable).
_SECRET_ENV = "SASE_SHARD_SECRET"

#: Exceptions that mean "this handshake died, not this configuration":
#: timeouts, resets, torn frames, marshal garbage.  Anything else
#: (a typed reject, a bad proof) is deterministic and must not retry.
_HANDSHAKE_TRANSIENT = (OSError, EOFError, WireCorrupt, ValueError,
                        TypeError, IndexError)


# -- endpoint parsing ---------------------------------------------------------

def parse_endpoint(text: str) -> tuple[str, int]:
    """``host:port`` → ``(host, port)``; :class:`SaseError` on garbage."""
    host, sep, port_text = text.strip().rpartition(":")
    if not sep or not host:
        raise SaseError(
            f"worker endpoint {text.strip()!r} is not host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise SaseError(
            f"worker endpoint {text.strip()!r} has a non-numeric "
            f"port") from None
    if not 1 <= port <= 65535:
        raise SaseError(
            f"worker endpoint {text.strip()!r}: port must be 1-65535")
    return host, port


def parse_endpoints(spec: str) -> tuple[str, ...]:
    """Validate a comma-separated ``--shard-workers`` list eagerly —
    before anything is spawned or connected — and return the
    normalized ``host:port`` strings."""
    if not spec or not spec.strip():
        raise SaseError("--shard-workers needs at least one host:port")
    endpoints = []
    for part in spec.split(","):
        if not part.strip():
            raise SaseError(
                f"empty worker endpoint in {spec!r}")
        host, port = parse_endpoint(part)
        endpoints.append(f"{host}:{port}")
    return tuple(endpoints)


def _is_local(host: str) -> bool:
    return host in _LOCAL_HOSTS


# -- shared secret ------------------------------------------------------------

def resolve_secret(spec: str | None) -> bytes:
    """Resolve a ``--shard-secret`` spec to key bytes, eagerly.

    Three forms: a literal (fine for tests, visible in argv),
    ``env:NAME`` (read from the environment), ``file:PATH`` (read from
    a file, surrounding whitespace stripped — the recommended way to
    distribute the secret).  Empty or unresolvable specs raise
    :class:`SaseError` so misconfiguration fails before anything is
    spawned or connected."""
    if spec is None or not spec.strip():
        raise SaseError("--shard-secret must not be empty")
    if spec.startswith("env:"):
        name = spec[4:]
        value = os.environ.get(name, "")
        if not value:
            raise SaseError(
                f"--shard-secret env:{name}: environment variable is "
                f"unset or empty")
        return value.encode("utf-8", "surrogateescape")
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            with open(path, "rb") as handle:
                data = handle.read().strip()
        except OSError as error:
            raise SaseError(
                f"--shard-secret file:{path}: {error}") from None
        if not data:
            raise SaseError(f"--shard-secret file:{path}: file is empty")
        return data
    return spec.encode("utf-8", "surrogateescape")


# -- network chaos ------------------------------------------------------------

class ChaosSocket:
    """Deterministic fault-injecting wrapper around a connected socket.

    Applies the armed ``net.*`` sites of a :class:`FaultInjector` to
    the send and receive paths; everything else (``fileno`` for
    ``select``, ``settimeout``, ``close``...) delegates to the wrapped
    socket, so both the coordinator's :class:`RemoteConnection` and the
    worker daemon's session loop can use one transparently.  Injected
    failures surface as ordinary ``OSError`` / torn frames, so they
    exercise exactly the recovery paths a real flaky network would.
    """

    __slots__ = ("_sock", "_injector", "_on_partition")

    def __init__(self, sock, injector: FaultInjector, on_partition=None):
        self._sock = sock
        self._injector = injector
        self._on_partition = on_partition

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def _sever(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.close()

    def sendall(self, data):
        injector = self._injector
        if injector.trip("net.delay"):
            time.sleep(injector.param("net.delay", 0.002))
        if injector.trip("net.partition"):
            hold = injector.param("net.partition", 0.5)
            self._sever()
            if self._on_partition is not None:
                self._on_partition(hold)
            raise OSError(
                f"chaos[{injector.scope}]: injected net.partition")
        if injector.trip("net.drop_conn"):
            self._sever()
            raise OSError(
                f"chaos[{injector.scope}]: injected net.drop_conn")
        if injector.trip("net.corrupt"):
            # Flip one byte mid-frame: the CRC32 framing must catch it
            # and fail the connection over, never decode garbage.
            mangled = bytearray(data)
            if mangled:
                mangled[injector.rng.randrange(len(mangled))] ^= 0xFF
            data = bytes(mangled)
        return self._sock.sendall(data)

    def recv(self, bufsize):
        injector = self._injector
        if injector.trip("net.slow_read"):
            time.sleep(injector.param("net.slow_read", 0.001))
            bufsize = min(bufsize, 256)
        return self._sock.recv(bufsize)


# -- worker daemon ------------------------------------------------------------

class WorkerDaemon:
    """The ``repro worker`` server: accepts one coordinator session at
    a time and runs the shard worker loop over the framed socket.

    Every accepted connection must complete the authenticated
    handshake before anything else: until it does, the peer is served
    with a short timeout and a tiny frame cap, and a failed or garbled
    handshake drops the connection without ever decoding a spec frame.
    The session proper then starts from nothing: the coordinator's
    ``("spec", shard, spec, incarnation)`` frame builds a fresh
    :class:`ShardWorkerCore`, so a reconnect after a coordinator-side
    failover always replays into clean state.  When a session ends
    (``stop``, disconnect, or a reported error) the daemon loops back
    to ``accept`` — that re-accept is what the coordinator's passive
    reconnect relies on — unless constructed with ``once=True``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 once: bool = False, secret: bytes = b"",
                 chaos: str | None = None, chaos_seed: int = 0):
        if not secret:
            raise SaseError("worker daemon needs a shared secret "
                            "(--shard-secret)")
        self.host = host
        self.port = port
        self.once = once
        self._secret = secret
        self._chaos = ChaosConfig.parse(chaos, chaos_seed) \
            if chaos else None
        self._listener: socket.socket | None = None
        self._sessions = 0
        #: Connections dropped for a failed proof (observable by tests
        #: and operators; the coordinator counts its own side).
        self.auth_failures = 0

    def bind(self) -> int:
        """Bind and listen; returns the bound port (for ``port=0``)."""
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        listener = socket.socket(family, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(4)
        self.port = listener.getsockname()[1]
        self._listener = listener
        return self.port

    def serve(self) -> None:
        """Accept-and-serve until :meth:`shutdown` (or forever)."""
        if self._listener is None:
            self.bind()
        listener = self._listener
        try:
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return  # listener closed by shutdown()
                try:
                    self._serve_connection(conn)
                finally:
                    with contextlib.suppress(OSError):
                        conn.close()
                if self.once:
                    return
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Close the listener; an in-flight ``serve`` returns at its
        next ``accept``.  Safe to call from another thread."""
        listener, self._listener = self._listener, None
        if listener is not None:
            with contextlib.suppress(OSError):
                listener.close()

    def _read_handshake(self, conn: socket.socket,
                        buffer: FrameBuffer) -> tuple:
        """One blocking handshake message.  The coordinator never
        pipelines during the handshake, so more than one frame per
        read is a protocol violation, not a race."""
        while True:
            data = conn.recv(_RECV_BYTES)
            if not data:
                raise EOFError("peer closed during handshake")
            payloads = buffer.feed(data)
            if not payloads:
                continue
            if len(payloads) > 1:
                raise WireCorrupt("pipelined handshake frames")
            return unpack_payload(payloads[0], decode_request)

    def _handshake(self, conn: socket.socket,
                   buffer: FrameBuffer) -> bool:
        """Version negotiation + mutual proof.  True to start the
        session; False (after a best-effort typed ``reject`` where one
        applies) to drop the connection and re-accept."""

        def reply(message: tuple) -> None:
            conn.sendall(pack_message(message, encode_response))

        def reject(code: str, detail: str) -> bool:
            with contextlib.suppress(OSError):
                reply(("reject", code, detail))
            return False

        conn.settimeout(_HANDSHAKE_TIMEOUT)
        try:
            hello = self._read_handshake(conn, buffer)
            if not (isinstance(hello, tuple) and len(hello) == 3
                    and hello[0] == "hello"):
                return reject("protocol", "expected hello")
            version, coord_nonce = hello[1], hello[2]
            if version != PROTOCOL_VERSION:
                return reject(
                    "version",
                    f"worker speaks shard protocol {PROTOCOL_VERSION}, "
                    f"peer sent {version!r}")
            if not isinstance(coord_nonce, bytes) \
                    or len(coord_nonce) < _NONCE_BYTES:
                return reject("protocol", "bad hello nonce")
            worker_nonce = os.urandom(_NONCE_BYTES)
            reply(("challenge", PROTOCOL_VERSION, worker_nonce))
            auth = self._read_handshake(conn, buffer)
            if not (isinstance(auth, tuple) and len(auth) == 2
                    and auth[0] == "auth"):
                return reject("protocol", "expected auth proof")
            expected = auth_proof(self._secret, b"coordinator",
                                  coord_nonce, worker_nonce)
            if not (isinstance(auth[1], bytes)
                    and hmac.compare_digest(auth[1], expected)):
                self.auth_failures += 1
                return reject("auth", "coordinator proof does not "
                                      "match the shared secret")
            reply(("welcome", auth_proof(self._secret, b"worker",
                                         coord_nonce, worker_nonce)))
        except _HANDSHAKE_TRANSIENT:
            return False  # garbage, timeout, or torn link: drop
        conn.settimeout(None)
        buffer.max_frame = MAX_RECORD_BYTES
        return True

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sessions += 1
        buffer = FrameBuffer(_HANDSHAKE_MAX_BYTES)
        if not self._handshake(conn, buffer):
            return
        sock = conn
        if self._chaos is not None and self._chaos.armed("net."):
            # Armed only after the handshake, so an injected fault can
            # never masquerade as an authentication failure.
            sock = ChaosSocket(conn, FaultInjector(
                self._chaos, scope=f"net-worker-{self.port}",
                incarnation=self._sessions - 1))
        core: ShardWorkerCore | None = None
        injector = None
        shard_id = -1
        context: tuple | None = None

        def put(message: tuple) -> None:
            sock.sendall(pack_message(message, encode_response))

        try:
            while True:
                data = sock.recv(_RECV_BYTES)
                if not data:
                    return  # coordinator went away; re-accept
                for payload in buffer.feed(data):
                    message = unpack_payload(payload, decode_request,
                                             allow_spec=True)
                    opcode = message[0]
                    context = None
                    if opcode == "batch":
                        _, batch_id, entries = message
                        context = ("batch", batch_id)
                        if injector is not None:
                            _inject_worker_fault(injector, "process")
                        tagged, delta, spans = \
                            core.process_batch(entries)
                        put(("batch", shard_id, batch_id, tagged,
                             delta, spans))
                    elif opcode == "flush":
                        _, flush_id = message
                        context = ("flush", flush_id)
                        tagged, delta, spans = core.flush()
                        put(("flush", shard_id, flush_id, tagged,
                             delta, spans))
                    elif opcode == "ping":
                        put(("pong", shard_id, message[1]))
                    elif opcode == "spec":
                        _, shard_id, spec, incarnation = message
                        core = ShardWorkerCore(shard_id, spec)
                        injector = _build_injector(shard_id, spec,
                                                   incarnation)
                    elif opcode == "stop":
                        return
        except (OSError, WireCorrupt, EOFError):
            return  # connection-fatal: drop and re-accept
        except Exception:
            # Report like process_worker_main, then end the session —
            # the coordinator retires the named request's bookkeeping,
            # raises, and a fresh session starts from a fresh core.
            with contextlib.suppress(OSError, Unencodable):
                put(("error", shard_id, context,
                     traceback.format_exc()))


def run_worker(host: str, port: int, once: bool = False, out=None,
               secret: bytes = b"", chaos: str | None = None,
               chaos_seed: int = 0) -> None:
    """CLI entry: bind, announce readiness, serve."""
    daemon = WorkerDaemon(host, port, once=once, secret=secret,
                          chaos=chaos, chaos_seed=chaos_seed)
    bound = daemon.bind()
    if out is not None:
        print(f"worker listening on {host}:{bound}", file=out,
              flush=True)
    daemon.serve()


# -- coordinator side ---------------------------------------------------------

class _ConnectionLost(Exception):
    """A send hit a dead socket; the caller fails the shard over."""


class RemoteConnection:
    """One coordinator→worker TCP session plus its credit and
    heartbeat state.  Starts with the handshake frame cap; the
    coordinator raises it once the peer has proven itself."""

    __slots__ = ("sock", "buffer", "dead", "inflight", "last_recv",
                 "ping_token", "ping_sent_at", "_next_token")

    def __init__(self, sock):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_SEND_TIMEOUT)
        self.sock = sock
        self.buffer = FrameBuffer(_HANDSHAKE_MAX_BYTES)
        self.dead = False
        self.inflight = 0          # unacked batch/flush credits in use
        self.last_recv = time.monotonic()
        self.ping_token: int | None = None
        self.ping_sent_at: float | None = None
        self._next_token = 0

    def _sendall(self, data: bytes, metrics=None) -> None:
        try:
            self.sock.sendall(data)
        except OSError as error:
            self.dead = True
            raise _ConnectionLost(str(error)) from None
        if metrics is not None:
            metrics.remote_bytes_sent += len(data)

    def send(self, message: tuple, metrics=None) -> None:
        """Frame and send one message; marks the connection dead (and
        raises :class:`_ConnectionLost`) on any socket failure —
        including a stalled ``sendall``, which with the credit bound in
        place means the worker stopped reading."""
        self._sendall(pack_message(message, encode_request), metrics)

    def send_spec(self, message: tuple, metrics=None) -> None:
        """Send the one restricted-pickle frame of the protocol: the
        post-auth ``("spec", ...)`` worker-core handshake."""
        self._sendall(pack_spec(message), metrics)

    def receive(self, metrics=None) -> list[tuple]:
        """Decode every message currently readable (non-blocking).
        Socket errors, EOF, and corrupt frames mark the connection
        dead; the partial tail of a torn session dies with it."""
        messages: list[tuple] = []
        while not self.dead:
            try:
                readable, _, _ = select.select([self.sock], [], [], 0)
            except (OSError, ValueError):
                self.dead = True
                break
            if not readable:
                break
            try:
                data = self.sock.recv(_RECV_BYTES)
            except OSError:
                self.dead = True
                break
            if not data:
                self.dead = True
                break
            self.last_recv = time.monotonic()
            if metrics is not None:
                metrics.remote_bytes_received += len(data)
            try:
                payloads = self.buffer.feed(data)
                messages.extend(
                    unpack_payload(payload, decode_response)
                    for payload in payloads)
            except WireCorrupt:
                self.dead = True
                break
        return messages

    def receive_one(self, timeout: float) -> tuple:
        """Block up to *timeout* seconds for exactly one message —
        the handshake's lockstep read.  Raises ``OSError`` on timeout,
        ``EOFError`` on close, :class:`WireCorrupt` on garbage or
        pipelined frames (the peer must not send ahead here)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OSError("handshake timed out")
            readable, _, _ = select.select([self.sock], [], [],
                                           remaining)
            if not readable:
                raise OSError("handshake timed out")
            data = self.sock.recv(_RECV_BYTES)
            if not data:
                raise EOFError("peer closed during handshake")
            payloads = self.buffer.feed(data)
            if not payloads:
                continue
            if len(payloads) > 1:
                raise WireCorrupt("pipelined handshake frames")
            return unpack_payload(payloads[0], decode_response)

    def next_ping_token(self) -> int:
        self._next_token += 1
        return self._next_token

    def close(self) -> None:
        self.dead = True
        with contextlib.suppress(OSError):
            self.sock.close()


def _worker_command(host: str, port: int) -> list[str]:
    # The secret travels via the environment (argv is world-readable).
    return [sys.executable, "-m", "repro", "worker",
            "--host", host, "--port", str(port),
            "--shard-secret", f"env:{_SECRET_ENV}"]


def _spawn_env(secret: bytes) -> dict[str, str]:
    # The spawned daemon must import repro whether or not the parent
    # was launched with PYTHONPATH set: prepend this tree's src root.
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing \
        else src_root + os.pathsep + existing
    env[_SECRET_ENV] = secret.decode("utf-8", "surrogateescape")
    return env


class RemoteBackend(_BoundedChannelBackend):
    """The shard backend over TCP worker endpoints.

    Everything above the socket is inherited from
    :class:`_BoundedChannelBackend` — journal, incarnations, restart,
    breaker ladder and duplicate suppression; only the channel differs.
    The bounded queue becomes a per-connection credit count, worker
    death becomes a dead connection, and restart becomes
    reconnect-plus-handshake (spawning a fresh ``repro worker``
    subprocess first when the endpoint is a local one we supervise).
    A shard whose link stays down past the connect budget fails over
    as *partitioned* rather than crashed.
    """

    _always_journal = True
    #: Chaos scoping: remote workers are processes (``worker.crash``
    #: must exit, not raise).
    _transport = "process"

    heartbeat_interval = _HEARTBEAT_INTERVAL
    connect_budget = _CONNECT_BUDGET

    def __init__(self, shards, spec, metrics, queue_capacity,
                 response_timeout, workers=(), secret=None):
        super().__init__(shards, spec, metrics, queue_capacity,
                         response_timeout)
        if len(workers) != shards:
            raise SaseError(
                f"the remote backend needs exactly one worker "
                f"endpoint per shard ({shards} shard(s), "
                f"{len(workers)} endpoint(s))")
        self._endpoints = [parse_endpoint(text) for text in workers]
        self._secret = resolve_secret(secret)
        chaos = ChaosConfig.parse(spec.chaos, spec.chaos_seed) \
            if spec.chaos else None
        self._net_chaos = chaos \
            if chaos is not None and chaos.armed("net.") else None

    # -- transport hooks --------------------------------------------------

    def start(self):
        try:
            super().start()
        except SaseError:
            # Unsupervised startup failure (unreachable endpoint,
            # rejected handshake): don't leak owned worker processes.
            with contextlib.suppress(Exception):
                self.stop()
            raise

    def _start_transport(self):
        self._connections = [None] * self.shards
        self._processes = [None] * self.shards
        self._owned = [False] * self.shards
        self._connected_once = [False] * self.shards
        self._partition_until = [0.0] * self.shards
        self._backlog: list[tuple] = []

    def _spawn(self, shard):
        """(Re)establish the shard's session: connect and authenticate
        — spawning a local daemon if the endpoint is ours to supervise
        — then send the spec frame for a fresh worker core."""
        conn = self._try_connect(shard)
        shard_metrics = self.metrics.shard(shard)
        if conn is None:
            self._connections[shard] = None
            if self.supervisor is None:
                host, port = self._endpoints[shard]
                raise SaseError(
                    f"shard {shard}: remote worker {host}:{port} "
                    f"is unreachable")
            return  # supervised: the breaker ladder decides
        if self._connected_once[shard]:
            shard_metrics.remote_reconnects += 1
        self._connected_once[shard] = True
        if self._net_chaos is not None:
            # Armed only after the handshake: injected faults exercise
            # the reconnect/replay ladder, never the auth path.
            def on_partition(hold, shard=shard):
                self._partition_until[shard] = \
                    time.monotonic() + hold
            conn.sock = ChaosSocket(
                conn.sock,
                FaultInjector(self._net_chaos, scope=f"net-{shard}",
                              incarnation=self._incarnations[shard]),
                on_partition=on_partition)
        self._connections[shard] = conn
        with contextlib.suppress(_ConnectionLost):
            # A spec send that dies on the wire is a dead
            # connection; the alive()/on_dead ladder picks it up.
            conn.send_spec(("spec", shard, self.spec,
                            self._incarnations[shard]), shard_metrics)

    def _handshake(self, conn, shard):
        """Coordinator side of the mutual handshake.  Returns normally
        on success; raises :class:`SaseError` on a typed reject or a
        failed worker proof (deterministic misconfiguration — do not
        retry), or a transient exception for the backoff ladder."""
        host, port = self._endpoints[shard]
        shard_metrics = self.metrics.shard(shard)

        def rejected(message):
            if isinstance(message, tuple) and message \
                    and message[0] == "reject":
                code = message[1] if len(message) > 1 else "protocol"
                detail = message[2] if len(message) > 2 else ""
                shard_metrics.remote_auth_failures += 1
                raise SaseError(
                    f"shard {shard}: worker {host}:{port} rejected "
                    f"the handshake ({code}): {detail}")

        coord_nonce = os.urandom(_NONCE_BYTES)
        conn.send(("hello", PROTOCOL_VERSION, coord_nonce))
        challenge = conn.receive_one(_HANDSHAKE_TIMEOUT)
        rejected(challenge)
        if not (isinstance(challenge, tuple) and len(challenge) == 3
                and challenge[0] == "challenge"
                and isinstance(challenge[2], bytes)):
            raise WireCorrupt("handshake: expected challenge")
        worker_nonce = challenge[2]
        conn.send(("auth", auth_proof(self._secret, b"coordinator",
                                      coord_nonce, worker_nonce)))
        welcome = conn.receive_one(_HANDSHAKE_TIMEOUT)
        rejected(welcome)
        if not (isinstance(welcome, tuple) and len(welcome) == 2
                and welcome[0] == "welcome"):
            raise WireCorrupt("handshake: expected welcome")
        expected = auth_proof(self._secret, b"worker", coord_nonce,
                              worker_nonce)
        if not (isinstance(welcome[1], bytes)
                and hmac.compare_digest(welcome[1], expected)):
            shard_metrics.remote_auth_failures += 1
            raise SaseError(
                f"shard {shard}: worker {host}:{port} failed "
                f"authentication (shared-secret mismatch?)")
        conn.buffer.max_frame = MAX_RECORD_BYTES

    def _try_connect(self, shard):
        """Connect + authenticate on a jittered exponential backoff
        ladder bounded by the connect budget; None when the budget runs
        out (the shard degrades as partitioned)."""
        host, port = self._endpoints[shard]
        local = _is_local(host)
        shard_metrics = self.metrics.shard(shard)

        def attempt():
            if time.monotonic() < self._partition_until[shard]:
                raise OSError("partitioned (chaos hold)")
            try:
                sock = socket.create_connection(
                    (host, port), timeout=_CONNECT_TIMEOUT)
            except OSError:
                # Transient: nothing listening (yet).  Spawn the
                # daemon if this endpoint is ours to supervise: owned
                # already, or local with nothing listening at first
                # start.  An external daemon that went away is waited
                # for, never replaced.
                if local and (self._owned[shard]
                              or not self._connected_once[shard]) \
                        and not self._process_alive(shard):
                    self._spawn_local_worker(shard)
                raise
            conn = RemoteConnection(sock)
            try:
                self._handshake(conn, shard)
            except _ConnectionLost as error:
                conn.close()
                raise OSError(str(error)) from None
            except _HANDSHAKE_TRANSIENT as error:
                conn.close()
                raise OSError(f"handshake failed: {error}") from None
            except SaseError:
                conn.close()
                raise
            return conn

        def on_backoff(delay):
            shard_metrics.reconnect_backoff_ms += delay * 1000.0

        try:
            return retry_call(
                attempt, retry_on=(OSError,), attempts=1 << 16,
                base_delay=_CONNECT_BASE_DELAY,
                max_delay=_CONNECT_MAX_DELAY,
                deadline=min(self.response_timeout,
                             self.connect_budget),
                on_backoff=on_backoff)
        except OSError:
            return None

    def _spawn_local_worker(self, shard):
        host, port = self._endpoints[shard]
        self._reap_process(shard)
        self._processes[shard] = subprocess.Popen(
            _worker_command(host, port),
            env=_spawn_env(self._secret),
            stdout=subprocess.DEVNULL)
        self._owned[shard] = True

    def _process_alive(self, shard):
        process = self._processes[shard]
        return process is not None and process.poll() is None

    def _reap_process(self, shard):
        process = self._processes[shard]
        self._processes[shard] = None
        if process is None:
            return
        with contextlib.suppress(Exception):
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=1.0)

    def _alive(self, shard):
        conn = self._connections[shard]
        return conn is not None and not conn.dead

    def _terminate(self, shard):
        conn = self._connections[shard]
        self._connections[shard] = None
        if conn is not None:
            conn.close()
        if self._owned[shard]:
            # Owned daemons restart as fresh processes, exactly
            # like the process backend's workers; external daemons
            # are never ours to kill — they re-accept.
            self._reap_process(shard)

    def _fail_worker(self, shard, reason):
        # A "crash" with no session at all is a partition: the link
        # outlived the reconnect budget.  Same breaker ladder, but
        # named for what operators must actually go fix.
        if reason == "crash" and self._connections[shard] is None \
                and self._connected_once[shard]:
            reason = "partition"
            self.metrics.shard(shard).remote_partitions += 1
        super()._fail_worker(shard, reason)

    # -- channel ----------------------------------------------------------

    def _channel_put(self, shard, message, timeout):
        conn = self._connections[shard]
        if conn is None or conn.dead:
            # Routed into the blocking loop, whose alive() check
            # converts this into the crash/restart path.
            raise queue_module.Full
        if message[0] in ("batch", "flush") \
                and conn.inflight >= self.queue_capacity:
            self._await_credit(conn, shard, timeout)
        try:
            conn.send(message, self.metrics.shard(shard))
        except _ConnectionLost:
            raise queue_module.Full from None
        except Unencodable as error:
            raise SaseError(
                f"shard {shard}: {error} (the remote wire carries "
                f"only marshal-expressible values)") from None
        if message[0] in ("batch", "flush"):
            conn.inflight += 1
            self.metrics.shard(shard).remote_inflight = \
                conn.inflight

    def _await_credit(self, conn, shard, timeout):
        """Block (up to *timeout*) until a credit frees.  Credits
        free only when responses are read, so this loop drains into
        the backlog — the next poll() returns anything it caught."""
        self._drain_into_backlog()
        if conn.inflight < self.queue_capacity:
            return
        if timeout is None:
            raise queue_module.Full
        deadline = time.monotonic() + timeout
        while conn.inflight >= self.queue_capacity:
            if conn.dead or time.monotonic() > deadline:
                raise queue_module.Full
            with contextlib.suppress(OSError, ValueError):
                select.select([conn.sock], [], [], _CREDIT_TICK)
            self._drain_into_backlog()

    def _receive_all(self):
        """Read every connection; handle pongs and credits at the
        protocol layer, return the raw request responses."""
        raw = []
        for shard in range(self.shards):
            conn = self._connections[shard]
            if conn is None or shard in self._lost:
                continue
            for message in conn.receive(self.metrics.shard(shard)):
                opcode = message[0]
                if opcode == "pong":
                    self._note_pong(shard, conn, message)
                    continue
                if opcode in ("batch", "flush", "error") \
                        and conn.inflight > 0:
                    conn.inflight -= 1
                    self.metrics.shard(shard).remote_inflight = \
                        conn.inflight
                raw.append(message)
        return raw

    def _drain_into_backlog(self):
        self._backlog.extend(self._receive_all())

    def _drain_responses(self):
        self._heartbeat_tick()
        raw = self._backlog + self._receive_all()
        self._backlog = []
        responses = []
        for index, message in enumerate(raw):
            try:
                accepted = self._accept(message)
            except SaseError:
                # Keep the rest for the next poll (the ring backend
                # requeues on its channel for the same reason).
                self._backlog = raw[index + 1:] + self._backlog
                raise
            if accepted is not None:
                responses.append(accepted)
        return responses

    # -- heartbeats -------------------------------------------------------

    def _heartbeat_timeout(self):
        if self.supervisor is not None:
            return self.supervisor.hang_timeout
        return min(self.response_timeout, _HEARTBEAT_TIMEOUT)

    def _heartbeat_tick(self):
        if self._stopping:
            return
        now = time.monotonic()
        for shard in range(self.shards):
            conn = self._connections[shard]
            if conn is None or conn.dead or shard in self._lost:
                continue
            if conn.ping_sent_at is not None:
                if now - conn.ping_sent_at > \
                        self._heartbeat_timeout():
                    # TCP is up but the worker stopped answering:
                    # a hang, fed to the breaker ladder as one.
                    self._fail_worker(shard, "hang")
                continue
            if now - conn.last_recv < self.heartbeat_interval:
                continue
            conn.ping_token = conn.next_ping_token()
            conn.ping_sent_at = now
            with contextlib.suppress(_ConnectionLost):
                conn.send(("ping", conn.ping_token),
                          self.metrics.shard(shard))

    def _note_pong(self, shard, conn, message):
        if message[2] != conn.ping_token \
                or conn.ping_sent_at is None:
            return  # stale pong from before a failover
        shard_metrics = self.metrics.shard(shard)
        shard_metrics.remote_heartbeats += 1
        shard_metrics.observe_rtt(
            time.monotonic() - conn.ping_sent_at)
        conn.ping_sent_at = None
        conn.ping_token = None

    # -- wait loop --------------------------------------------------------

    def _idle_wait(self, waiter):
        self._heartbeat_tick()
        socks = [conn.sock
                 for shard, conn in enumerate(self._connections)
                 if conn is not None and not conn.dead
                 and shard not in self._lost]
        if not socks:
            waiter.wait()
            return
        self.park_waits += 1
        with contextlib.suppress(OSError, ValueError):
            select.select(socks, [], [], _WAIT_PARK_MAX)

    # -- lifecycle --------------------------------------------------------

    def _shutdown_transport(self):
        for shard in range(self.shards):
            conn = self._connections[shard]
            self._connections[shard] = None
            if conn is not None:
                conn.close()
        deadline = time.monotonic() + _STOP_JOIN_TIMEOUT
        for shard in range(self.shards):
            process = self._processes[shard]
            if process is None or not self._owned[shard]:
                continue
            with contextlib.suppress(Exception):
                process.wait(timeout=max(
                    0.05, deadline - time.monotonic()))
        for shard in range(self.shards):
            if self._owned[shard]:
                self._reap_process(shard)

    def worker_pids(self):
        return {shard: process.pid
                for shard, process in enumerate(self._processes)
                if process is not None and process.poll() is None}
