"""The distributed shard tier: TCP workers behind the remote backend.

Differential guarantee first: for 1/2/4 localhost workers and the
pair/kleene/trailing-negation query mix, the remote backend's ordered
output must be bit-identical to the single-process runtime — including
watermark-released trailing-negation matches.  Then the failure
ladder: a SIGKILLed owned worker must respawn and replay its journal
without losing or duplicating a result, an external daemon must
survive coordinator sessions back to back (fresh core per accept), and
seeded ``net.*`` chaos runs (delay, drop, corrupt, partition, trickle)
must converge to the clean output after reconnect + journal replay —
with a partition that outlives the reconnect budget degrading the
shard explicitly (``complete=False``) instead of wedging.  The
handshake layer is adversarial-tested directly: version mismatch and
wrong secret get typed rejects before any spec frame is decoded,
pre-auth garbage is dropped, and nothing on the wire can reach a
general ``pickle.loads``.  The wire layer (stream framing, restricted
spec lane, corruption detection, frame-length caps) is covered at
unit level.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import socket
import threading
import time

import pytest

from repro.errors import SaseError
from repro.persist.records import frame
from repro.resilience import ResilienceConfig
from repro.resilience.retry import retry_call
from repro.sharding import ShardingConfig
from repro.sharding.remote import RemoteBackend, WorkerDaemon, \
    parse_endpoint, parse_endpoints, resolve_secret
from repro.sharding.wire import PROTOCOL_VERSION, TAG_SPEC, \
    FrameBuffer, Unencodable, WireCorrupt, decode_request, \
    decode_response, encode_request, pack_message, pack_spec, \
    unpack_payload
from repro.system import ComplexEventProcessor
from repro.workloads.synthetic import SyntheticConfig, SyntheticStream, \
    seq_query

KLEENE_QUERY = ("EVENT SEQ(A a, B+ b, C c)\n"
                "WHERE a.id = b.id AND a.id = c.id\n"
                "WITHIN 5 seconds\nRETURN a.id")

#: Shared secret for the whole suite (workers and coordinators alike).
SECRET = "remote-suite-secret"


@pytest.fixture(scope="module")
def stream() -> SyntheticStream:
    return SyntheticStream.generate(SyntheticConfig(
        n_events=400, n_types=4, id_domain=8, seed=11))


def fingerprint(results):
    return [(name, result.start, result.end,
             tuple(sorted(result.attributes.items())))
            for name, result in results]


def build(registry, sharding, resilience=None):
    processor = ComplexEventProcessor(registry, sharding=sharding,
                                      resilience=resilience)
    processor.register("pair",
                       seq_query(2, window=5.0, partitioned=True))
    processor.register("kleene", KLEENE_QUERY)
    # negation_at == length: trailing negation, released by watermarks.
    processor.register("negtrail",
                       seq_query(2, window=5.0, partitioned=True,
                                 negation_at=2))
    return processor


def run(registry, events, sharding, kill_at=None, kill_shard=0,
        resilience=None):
    processor = build(registry, sharding, resilience=resilience)
    produced = []
    for index, event in enumerate(events):
        produced.extend(processor.feed(event))
        if kill_at is not None and index == kill_at:
            pids = processor._router.worker_pids()
            os.kill(pids[kill_shard], signal.SIGKILL)
    produced.extend(processor.flush())
    return fingerprint(produced), processor.metrics


@pytest.fixture(scope="module")
def baseline(stream):
    result, _ = run(stream.registry, stream.events, None)
    return result


def start_daemons(count, secret=SECRET, **daemon_options):
    """In-thread worker daemons on ephemeral ports (external workers:
    the coordinator never owns or spawns them)."""
    daemons = []
    for _ in range(count):
        daemon = WorkerDaemon("127.0.0.1", 0, secret=secret.encode(),
                              **daemon_options)
        daemon.bind()
        threading.Thread(target=daemon.serve, daemon=True).start()
        daemons.append(daemon)
    return daemons


def remote_config(daemons, **overrides):
    options = dict(shards=len(daemons), backend="remote",
                   batch_size=16, queue_capacity=4,
                   response_timeout=30.0, secret=SECRET,
                   workers=tuple(f"127.0.0.1:{daemon.port}"
                                 for daemon in daemons))
    options.update(overrides)
    return ShardingConfig(**options)


def free_ports(count):
    """Ports that are free right now — endpoints for owned (spawned)
    workers."""
    sockets, ports = [], []
    for _ in range(count):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        sockets.append(listener)
        ports.append(listener.getsockname()[1])
    for listener in sockets:
        listener.close()
    return ports


class TestRemoteDifferential:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_output_identical_to_single_process(self, stream, baseline,
                                                shards):
        daemons = start_daemons(shards)
        try:
            result, metrics = run(stream.registry, stream.events,
                                  remote_config(daemons))
        finally:
            for daemon in daemons:
                daemon.shutdown()
        assert result == baseline
        sent = sum(shard.remote_bytes_sent
                   for shard in metrics.shards.values())
        received = sum(shard.remote_bytes_received
                       for shard in metrics.shards.values())
        assert sent > 0 and received > 0

    def test_daemon_reaccepts_sessions_with_fresh_state(self, stream,
                                                        baseline):
        # Two full coordinator sessions against the same daemons: the
        # re-accept path must rebuild a clean worker core each time, or
        # the second run would double-produce.
        daemons = start_daemons(2)
        try:
            first, _ = run(stream.registry, stream.events,
                           remote_config(daemons))
            second, _ = run(stream.registry, stream.events,
                            remote_config(daemons))
        finally:
            for daemon in daemons:
                daemon.shutdown()
        assert first == baseline
        assert second == baseline


class TestRemoteFailover:
    def test_sigkill_owned_worker_replays_journal(self, stream,
                                                  baseline):
        # Nothing listens on these ports, so the coordinator spawns
        # (and supervises) 'repro worker' subprocesses for them — and
        # hands them the shared secret through the environment.
        workers = tuple(f"127.0.0.1:{port}" for port in free_ports(2))
        sharding = ShardingConfig(shards=2, backend="remote",
                                  batch_size=16, queue_capacity=4,
                                  response_timeout=30.0,
                                  workers=workers, secret=SECRET)
        recovered, metrics = run(stream.registry, stream.events,
                                 sharding, kill_at=200)
        assert recovered == baseline
        restarts = sum(shard.worker_restarts
                       for shard in metrics.shards.values())
        replayed = sum(shard.batches_replayed
                       for shard in metrics.shards.values())
        reconnects = sum(shard.remote_reconnects
                         for shard in metrics.shards.values())
        assert restarts >= 1
        assert replayed >= 1
        assert reconnects >= 1

    def test_heartbeats_fire_on_idle_connections(self, stream, baseline,
                                                 monkeypatch):
        monkeypatch.setattr(RemoteBackend, "heartbeat_interval", 0.01)
        daemons = start_daemons(2)
        try:
            processor = build(stream.registry, remote_config(daemons))
            produced = []
            for event in stream.events[:120]:
                produced.extend(processor.feed(event))
            # Let the connections go idle past the heartbeat interval;
            # the next drains ping and collect the pongs.
            time.sleep(0.1)
            for event in stream.events[120:]:
                produced.extend(processor.feed(event))
            produced.extend(processor.flush())
        finally:
            for daemon in daemons:
                daemon.shutdown()
        assert fingerprint_matches(produced, baseline)
        heartbeats = sum(shard.remote_heartbeats
                         for shard in processor.metrics.shards.values())
        assert heartbeats >= 1
        rtts = [shard.remote_rtt_p50
                for shard in processor.metrics.shards.values()
                if shard.remote_heartbeats]
        assert rtts and all(rtt > 0 for rtt in rtts)


def fingerprint_matches(produced, baseline):
    return fingerprint(produced) == baseline


class TestHandshakeHardening:
    """Adversarial peers at the handshake boundary: every rejection
    happens before any spec frame could be decoded."""

    def _dial(self, daemon):
        sock = socket.create_connection(("127.0.0.1", daemon.port),
                                        timeout=5.0)
        sock.settimeout(5.0)
        return sock

    def _read_reply(self, sock):
        buffer = FrameBuffer()
        while True:
            data = sock.recv(1 << 16)
            if not data:
                return None  # dropped without a reply
            for payload in buffer.feed(data):
                return unpack_payload(payload, decode_response)

    def test_version_mismatch_gets_typed_reject(self, stream):
        daemons = start_daemons(1)
        try:
            sock = self._dial(daemons[0])
            sock.sendall(pack_message(("hello", 999, b"n" * 16),
                                      encode_request))
            reply = self._read_reply(sock)
            sock.close()
            assert reply is not None and reply[0] == "reject"
            assert reply[1] == "version"
            assert str(PROTOCOL_VERSION) in reply[2]
        finally:
            for daemon in daemons:
                daemon.shutdown()

    def test_wrong_secret_raises_before_any_spec(self, stream):
        daemons = start_daemons(1, secret="the-right-secret")
        try:
            config = remote_config(daemons)  # coordinator keeps SECRET
            with pytest.raises(SaseError,
                               match="rejected the handshake"):
                run(stream.registry, stream.events[:10], config)
            assert daemons[0].auth_failures >= 1
        finally:
            for daemon in daemons:
                daemon.shutdown()

    def test_garbage_before_handshake_is_dropped(self, stream):
        daemons = start_daemons(1)
        try:
            # A hostile length prefix: claims ~4 GB.  The handshake
            # frame cap rejects it without buffering anything.
            sock = self._dial(daemons[0])
            sock.sendall(b"\xde\xad\xbe\xef" * 16)
            assert sock.recv(1 << 16) == b""  # dropped, no reply
            sock.close()
            # The daemon must still serve a real session afterwards.
            clean, _ = run(stream.registry, stream.events[:100], None)
            result, _ = run(stream.registry, stream.events[:100],
                            remote_config(daemons))
            assert result == clean
        finally:
            for daemon in daemons:
                daemon.shutdown()

    def test_unauthenticated_spec_frame_is_dropped(self, stream):
        # A peer that skips the handshake and fires a spec frame first
        # must be cut off by the pre-auth protocol check — the payload
        # is never unpickled (a decode would run Evil.__reduce__).
        daemons = start_daemons(1)
        try:
            sock = self._dial(daemons[0])
            sock.sendall(frame(bytes((TAG_SPEC,))
                               + pickle.dumps(("spec", 0, None, 0))))
            assert self._read_reply(sock) in (None, ("reject",
                                                     "protocol",
                                                     "expected hello"))
            sock.close()
        finally:
            for daemon in daemons:
                daemon.shutdown()


class TestNetworkChaos:
    """Seeded ``net.*`` chaos over the remote backend must converge to
    byte-identical output after reconnect + journal replay."""

    ROWS = ("net.delay@2:0.002", "net.drop_conn@3", "net.corrupt@2",
            "net.partition@2:0.2")

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("chaos", ROWS)
    def test_chaos_run_matches_clean_run(self, stream, baseline,
                                         shards, chaos):
        daemons = start_daemons(shards)
        try:
            result, metrics = run(
                stream.registry, stream.events, remote_config(daemons),
                resilience=ResilienceConfig(chaos=chaos, chaos_seed=7))
        finally:
            for daemon in daemons:
                daemon.shutdown()
        assert result == baseline
        if chaos.startswith(("net.drop_conn", "net.partition")):
            reconnects = sum(shard.remote_reconnects
                             for shard in metrics.shards.values())
            assert reconnects >= 1
        if chaos.startswith("net.partition"):
            backoff = sum(shard.reconnect_backoff_ms
                          for shard in metrics.shards.values())
            assert backoff > 0  # the hold forced the backoff ladder

    def test_slow_read_trickle_converges(self, stream, baseline):
        daemons = start_daemons(2)
        try:
            result, _ = run(
                stream.registry, stream.events, remote_config(daemons),
                resilience=ResilienceConfig(
                    chaos="net.slow_read=0.05:0.0005", chaos_seed=3))
        finally:
            for daemon in daemons:
                daemon.shutdown()
        assert result == baseline

    def test_worker_side_chaos_converges(self, stream, baseline):
        # The daemon's half of the fault matrix: its responses are
        # delayed and one connection is severed from the worker side.
        daemons = start_daemons(
            2, chaos="net.delay@4:0.002,net.drop_conn@9", chaos_seed=5)
        try:
            result, _ = run(stream.registry, stream.events,
                            remote_config(daemons))
        finally:
            for daemon in daemons:
                daemon.shutdown()
        assert result == baseline


class TestPartitionDegraded:
    def test_partition_outliving_budget_degrades_explicitly(
            self, stream, monkeypatch):
        # Sever shard 0's link *and* its listener: reconnects can never
        # succeed, so the shortened budget runs out, the breaker ladder
        # exhausts, and the run must degrade — explicitly — instead of
        # wedging or crashing.
        monkeypatch.setattr(RemoteBackend, "connect_budget", 0.25)
        daemons = start_daemons(2)
        resilience = ResilienceConfig(hang_timeout=1.0, max_restarts=1,
                                      restart_window=30.0,
                                      breaker_cooldown=60.0)
        try:
            processor = build(stream.registry, remote_config(daemons),
                              resilience=resilience)
            produced = []
            for event in stream.events[:100]:
                produced.extend(processor.feed(event))
            backend = processor._router._backend
            daemons[0].shutdown()          # no re-accept ever again
            backend._connections[0].close()  # sever the live session
            late = []
            for event in stream.events[100:]:
                late.extend(processor.feed(event))
            late.extend(processor.flush())
            produced.extend(late)
        finally:
            for daemon in daemons:
                daemon.shutdown()
        assert processor._router.degraded
        assert late, "surviving shards must still answer"
        # Everything emitted after the loss is flagged incomplete.
        assert any(not result.complete for _, result in late)
        first_degraded = next(index for index, (_, result)
                              in enumerate(late) if not result.complete)
        assert all(not result.complete
                   for _, result in late[first_degraded:])
        partitions = sum(shard.remote_partitions
                         for shard in processor.metrics.shards.values())
        assert partitions >= 1
        lost = sum(shard.events_lost
                   for shard in processor.metrics.shards.values())
        assert lost > 0


class TestExternalEndpointNeverSpawned:
    def test_lost_external_daemon_is_not_replaced_by_a_spawn(
            self, stream, monkeypatch):
        # Both endpoints had a daemon listening at first start, so both
        # are external: losing one must never spawn a local worker in
        # its place, only reconnect attempts until the budget runs out.
        spawned = []
        monkeypatch.setattr(RemoteBackend, "_spawn_local_worker",
                            lambda backend, shard: spawned.append(shard))
        monkeypatch.setattr(RemoteBackend, "connect_budget", 0.25)
        daemons = start_daemons(2)
        resilience = ResilienceConfig(hang_timeout=1.0, max_restarts=1,
                                      restart_window=30.0,
                                      breaker_cooldown=60.0)
        try:
            processor = build(stream.registry, remote_config(daemons),
                              resilience=resilience)
            for event in stream.events[:100]:
                processor.feed(event)
            backend = processor._router._backend
            daemons[0].shutdown()
            backend._connections[0].close()
            for event in stream.events[100:]:
                processor.feed(event)
            processor.flush()
        finally:
            for daemon in daemons:
                daemon.shutdown()
        assert spawned == []
        assert processor._router.degraded


class TestWireLayer:
    def test_framebuffer_reassembles_byte_by_byte(self):
        messages = [("flush", index) for index in range(5)]
        data = b"".join(pack_message(message, encode_request)
                        for message in messages)
        buffer = FrameBuffer()
        decoded = []
        for index in range(len(data)):
            for payload in buffer.feed(data[index:index + 1]):
                decoded.append(unpack_payload(payload, decode_request))
        assert decoded == messages
        assert buffer.pending() == 0

    def test_framebuffer_rejects_corrupt_complete_frame(self):
        data = bytearray(pack_message(("flush", 1), encode_request))
        data[-1] ^= 0xFF  # flip a payload byte under the CRC
        with pytest.raises(WireCorrupt):
            FrameBuffer().feed(bytes(data))

    def test_framebuffer_rejects_absurd_length(self):
        header = (2 ** 31).to_bytes(4, "little") + b"\0\0\0\0"
        with pytest.raises(WireCorrupt):
            FrameBuffer().feed(header)

    def test_framebuffer_honors_small_frame_cap(self):
        # A length far below the WAL cap but above this buffer's cap
        # (the handshake phase) is rejected before any payload bytes
        # are buffered.
        header = (1 << 20).to_bytes(4, "little") + b"\0\0\0\0"
        with pytest.raises(WireCorrupt):
            FrameBuffer(4096).feed(header)

    def test_fuzzed_corrupt_prefixes_never_overallocate(self):
        rng = random.Random(0xC0FFEE)
        good = pack_message(("flush", 1), encode_request)
        cap = 1 << 16
        for _ in range(300):
            data = bytearray(good)
            data[rng.randrange(len(data))] ^= 1 + rng.randrange(255)
            buffer = FrameBuffer(cap)
            try:
                buffer.feed(bytes(data))
            except WireCorrupt:
                continue  # detected: corrupt length or CRC mismatch
            # Not detected yet: the frame must merely look incomplete,
            # with the pending tail bounded by the cap.
            assert buffer.pending() <= cap + 8

    def test_marshal_inexpressible_message_is_refused(self):
        # The pickle lane is retired: what marshal cannot carry does
        # not cross the TCP wire at all.
        with pytest.raises(Unencodable):
            pack_message(("spec", 0, Opaque(7), 3), encode_request)

    def test_spec_lane_round_trips_through_the_allowlist(self):
        message = ("spec", 3, None, 2)
        (payload,) = FrameBuffer().feed(pack_spec(message))
        assert unpack_payload(payload, decode_request,
                              allow_spec=True) == message

    def test_spec_lane_refuses_arbitrary_globals(self):
        # A pickle referencing anything outside the WorkerSpec object
        # graph is corruption, not code execution.
        evil = frame(bytes((TAG_SPEC,)) + pickle.dumps(os.system))
        (payload,) = FrameBuffer().feed(evil)
        with pytest.raises(WireCorrupt, match="allowlist"):
            unpack_payload(payload, decode_request, allow_spec=True)

    def test_spec_frame_rejected_on_response_lane(self):
        (payload,) = FrameBuffer().feed(pack_spec(("spec", 0, None, 0)))
        with pytest.raises(WireCorrupt):
            unpack_payload(payload, decode_response)  # allow_spec off

    def test_unknown_tag_is_corruption(self):
        payload = frame(b"\x7fgarbage")
        (raw,) = FrameBuffer().feed(payload)
        with pytest.raises(WireCorrupt):
            unpack_payload(raw, decode_request)


class Opaque:
    """Picklable but not marshalable: exactly what the retired pickle
    lane used to carry, and what the wire must now refuse."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.value == self.value

    def __hash__(self):
        return hash(self.value)


class TestBackoffAndSecrets:
    def test_retry_backoff_hook_reports_each_delay(self):
        delays, calls = [], []

        def flaky():
            calls.append(1)
            if len(calls) < 4:
                raise OSError("transient")
            return "ok"

        result = retry_call(flaky, attempts=10, base_delay=0.001,
                            max_delay=0.01, sleep=lambda _seconds: None,
                            on_backoff=delays.append)
        assert result == "ok"
        assert len(delays) == 3
        assert all(0.0 <= delay <= 0.01 for delay in delays)

    def test_resolve_secret_forms(self, tmp_path, monkeypatch):
        assert resolve_secret("literal-secret") == b"literal-secret"
        monkeypatch.setenv("SASE_TEST_SECRET", "from-env")
        assert resolve_secret("env:SASE_TEST_SECRET") == b"from-env"
        path = tmp_path / "secret.key"
        path.write_text("  from-file\n")
        assert resolve_secret(f"file:{path}") == b"from-file"

    @pytest.mark.parametrize("bad", [None, "", "   ", "env:SASE_UNSET_X",
                                     "file:/no/such/secret-file"])
    def test_resolve_secret_rejects_unusable_specs(self, bad):
        with pytest.raises(SaseError):
            resolve_secret(bad)


class TestEndpointParsing:
    def test_parses_and_normalizes(self):
        assert parse_endpoints(" 127.0.0.1:9001 ,localhost:9002") == \
            ("127.0.0.1:9001", "localhost:9002")
        assert parse_endpoint("example.com:80") == ("example.com", 80)

    @pytest.mark.parametrize("bad", [
        "", "  ", "127.0.0.1", "host:", ":9000", "host:abc",
        "host:0", "host:70000", "a:1,,b:2",
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(SaseError):
            parse_endpoints(bad)

    def test_config_requires_matching_worker_count(self):
        with pytest.raises(SaseError):
            ShardingConfig(shards=2, backend="remote", secret=SECRET,
                           workers=("127.0.0.1:9000",))
        with pytest.raises(SaseError):
            ShardingConfig(shards=2, backend="remote", secret=SECRET)
        with pytest.raises(SaseError):
            ShardingConfig(shards=2, backend="process",
                           workers=("127.0.0.1:9000", "127.0.0.1:9001"))

    def test_config_requires_secret_for_remote_only(self):
        with pytest.raises(SaseError, match="shard-secret"):
            ShardingConfig(shards=1, backend="remote",
                           workers=("127.0.0.1:9000",))
        with pytest.raises(SaseError, match="shard-secret"):
            ShardingConfig(shards=2, backend="process", secret=SECRET)
        config = ShardingConfig(shards=1, backend="remote",
                                workers=("127.0.0.1:9000",),
                                secret=SECRET)
        assert "secret" not in repr(config)
