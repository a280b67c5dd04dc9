"""Backend-conformance suite: every execution backend, one contract.

Each registered backend (inline, process pool, socket) must merge to
``ComboResult`` s **byte-identical** to the in-process inline run —
including when resuming a partially-completed store — and the socket
backend must additionally survive a worker dying mid-chunk without losing
or duplicating a task.  A new backend added to
``repro.engine.backends.BACKENDS`` gets held to the same bar by adding one
factory here.

``REPRO_SIM_CORE`` (default ``auto``) forces every plan in this file onto
one stepping loop — CI's backend-conformance matrix re-runs the suite under
``auto`` (with and without the native kernel) and ``reference``, holding
each loop to the same byte-identical merge contract on every backend.
"""

from __future__ import annotations

import json
import os
import socket as socketlib
import threading

import pytest

from tests.helpers import corrupt_and_repair, run_mix

from repro.common.config import tiny_config
from repro.common.errors import AuthError, EngineError
from repro.engine import ParallelRunner
from repro.engine.backends import (
    BACKENDS,
    InlineBackend,
    ProcessPoolBackend,
    SocketBackend,
    make_backend,
    run_worker,
)
from repro.engine.backends.socket import (
    PROTOCOL_VERSION,
    recv_msg,
    send_hello,
    send_msg,
)
from repro.experiments.runner import RunPlan
from repro.workloads.mixes import get_mix

MIXES = [get_mix("c5_0"), get_mix("c5_1")]

SIM_CORE = os.environ.get("REPRO_SIM_CORE", "auto")


def small_plan() -> RunPlan:
    return RunPlan(
        n_accesses=1_500,
        target_instructions=25_000,
        warmup_instructions=15_000,
        seed=5,
        cc_probs=(0.0, 1.0),
        sim_core=SIM_CORE,
    )


def fingerprint(combo) -> str:
    return json.dumps(
        {
            "mix_id": combo.mix_id,
            "mix_class": combo.mix_class,
            "cc_best_prob": combo.cc_best_prob,
            "metrics": combo.metrics,
            "results": {name: res.to_dict() for name, res in combo.results.items()},
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def serial_fingerprints() -> list:
    config, plan = tiny_config(seed=7), small_plan()
    return [fingerprint(run_mix(m, config, plan)) for m in MIXES]


class _SocketHarness:
    """A bound SocketBackend plus worker threads that tear down with it."""

    def __init__(self, n_workers: int = 2) -> None:
        self.backend = SocketBackend(heartbeat_timeout=15.0, worker_wait=30.0)
        host, port = self.backend.bind()
        self.threads = [
            threading.Thread(target=run_worker, args=(host, port), daemon=True)
            for _ in range(n_workers)
        ]
        for t in self.threads:
            t.start()

    def join(self) -> None:
        for t in self.threads:
            t.join(timeout=15)
        assert not any(t.is_alive() for t in self.threads), "worker failed to shut down"


def _run(backend_kind: str, *, store=None, resume=False):
    """Build a runner for *backend_kind* plus an optional teardown callable."""
    config, plan = tiny_config(seed=7), small_plan()
    if backend_kind == "socket":
        harness = _SocketHarness()
        runner = ParallelRunner(
            config, plan, jobs=2, store=store, resume=resume, backend=harness.backend
        )
        return runner, harness.join
    if backend_kind == "process":
        backend = ProcessPoolBackend(2)
    else:
        backend = InlineBackend()
    runner = ParallelRunner(
        config, plan, jobs=2, store=store, resume=resume, backend=backend
    )
    return runner, lambda: None


BACKEND_KINDS = ["inline", "process", "socket"]


class TestConformance:
    def test_all_backends_registered(self):
        assert set(BACKEND_KINDS) == set(BACKENDS)

    def test_secret_only_for_socket(self):
        # A secret meant for the socket transport must not be dropped
        # silently by a backend that never authenticates.
        for kind in ("inline", "process"):
            with pytest.raises(EngineError, match="--secret-file"):
                make_backend(kind, secret="s3cret")

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_merge_bit_identical_to_serial(self, kind, serial_fingerprints):
        runner, teardown = _run(kind)
        combos = runner.run(MIXES)
        teardown()
        assert [fingerprint(c) for c in combos] == serial_fingerprints
        assert runner.tasks_total == 12  # 2 mixes x (l2p, l2s, 2x cc, dsr, snug)
        assert runner.backend.name == kind

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_snug_monitor_plan_bit_identical_across_backends(self, kind):
        """Streaming-monitor runs (plan.snug_monitor) are a plan property:
        every backend's workers attach the same online monitor and merge
        bit-identically to the serial path."""
        config = tiny_config(seed=7)
        plan = RunPlan(
            n_accesses=1_500,
            target_instructions=25_000,
            warmup_instructions=15_000,
            seed=5,
            cc_probs=(0.0,),
            snug_monitor=True,
            sim_core=SIM_CORE,
        )
        schemes = ("l2p", "snug")
        serial = [
            fingerprint(run_mix(m, config, plan, schemes=schemes)) for m in MIXES
        ]
        if kind == "socket":
            harness = _SocketHarness()
            runner = ParallelRunner(
                config, plan, schemes=schemes, jobs=2, backend=harness.backend
            )
            teardown = harness.join
        else:
            backend = ProcessPoolBackend(2) if kind == "process" else InlineBackend()
            runner = ParallelRunner(config, plan, schemes=schemes, jobs=2, backend=backend)
            teardown = lambda: None
        combos = runner.run(MIXES)
        teardown()
        assert [fingerprint(c) for c in combos] == serial

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_resume_mid_sweep_bit_identical(self, kind, tmp_path, serial_fingerprints):
        """Drop two finished tasks from a completed store; resuming on every
        backend recomputes exactly those and merges identically."""
        store = str(tmp_path / "store")
        config, plan = tiny_config(seed=7), small_plan()
        ParallelRunner(config, plan, jobs=0, store=store).run(MIXES)
        corrupt_and_repair(store, ("c5_0__l2s", "c5_1__cc__p100"))

        runner, teardown = _run(kind, store=store, resume=True)
        combos = runner.run(MIXES)
        teardown()
        assert [fingerprint(c) for c in combos] == serial_fingerprints
        assert runner.tasks_run == 2
        assert runner.tasks_resumed == runner.tasks_total - 2

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_trace_cache_round_trip_identical(self, kind, tmp_path, serial_fingerprints):
        """A cold-then-warm shared trace cache changes nothing in the merge."""
        cache = str(tmp_path / "traces")
        config, plan = tiny_config(seed=7), small_plan()
        if kind == "socket":
            # Workers receive the coordinator's cache root with each chunk.
            harness = _SocketHarness()
            harness.backend.cache_root = cache
            cold = ParallelRunner(config, plan, jobs=2, backend=harness.backend)
            combos = cold.run(MIXES)
            harness.join()
            harness2 = _SocketHarness()
            harness2.backend.cache_root = cache
            warm = ParallelRunner(config, plan, jobs=2, backend=harness2.backend)
            combos_warm = warm.run(MIXES)
            harness2.join()
        else:
            cold = ParallelRunner(
                config, plan, jobs=2, backend=make_backend(kind, jobs=2, cache_root=cache)
            )
            combos = cold.run(MIXES)
            warm = ParallelRunner(
                config, plan, jobs=2, backend=make_backend(kind, jobs=2, cache_root=cache)
            )
            combos_warm = warm.run(MIXES)
        assert [fingerprint(c) for c in combos] == serial_fingerprints
        assert [fingerprint(c) for c in combos_warm] == serial_fingerprints


class TestSocketEncryption:
    def test_encrypted_sweep_bit_identical(self, serial_fingerprints):
        """With a real shared secret both ends negotiate a payload cipher
        and the merge stays bit-identical — encryption is invisible to the
        determinism contract."""
        backend = SocketBackend(
            heartbeat_timeout=15.0, worker_wait=30.0, secret="e2e-test-secret"
        )
        host, port = backend.bind()
        threads = [
            threading.Thread(
                target=run_worker,
                args=(host, port),
                kwargs={"secret": "e2e-test-secret"},
                daemon=True,
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        config, plan = tiny_config(seed=7), small_plan()
        runner = ParallelRunner(config, plan, jobs=2, backend=backend)
        combos = runner.run(MIXES)
        for t in threads:
            t.join(timeout=15)
        assert not any(t.is_alive() for t in threads)
        assert [fingerprint(c) for c in combos] == serial_fingerprints
        # The channel really negotiated a cipher (not silently plaintext).
        assert backend.cipher_name in ("aes-gcm", "hmac-ctr")

    def test_plaintext_worker_refused_by_encrypting_coordinator(
        self, serial_fingerprints
    ):
        """A worker that offers no ciphers (a hypothetical stripped build)
        is turned away when the coordinator holds a real secret — no
        silent downgrade to plaintext results — while a capable worker
        still completes the sweep."""
        secret = "e2e-test-secret"
        backend = SocketBackend(
            heartbeat_timeout=10.0, worker_wait=30.0, secret=secret
        )
        host, port = backend.bind()
        rejection: list = []

        def plaintext_peer():
            sock = socketlib.create_connection((host, port), timeout=10)
            try:
                send_hello(sock, "plain", secret, ciphers=[])
                try:
                    recv_msg(sock, secret)
                    rejection.append("plaintext peer was not rejected")
                except AuthError as exc:
                    rejection.append(str(exc))
            finally:
                sock.close()

        peer = threading.Thread(target=plaintext_peer, daemon=True)
        peer.start()
        good = threading.Thread(
            target=run_worker, args=(host, port),
            kwargs={"secret": secret}, daemon=True,
        )
        good.start()

        config, plan = tiny_config(seed=7), small_plan()
        runner = ParallelRunner(config, plan, jobs=2, backend=backend)
        combos = runner.run(MIXES)
        peer.join(timeout=15)
        good.join(timeout=15)
        assert [fingerprint(c) for c in combos] == serial_fingerprints
        assert rejection and "encrypted result payloads" in rejection[0]
        assert backend.workers_seen == 1  # the plaintext peer never counted


class TestSocketFaults:
    def test_killed_worker_requeues_chunk(self, serial_fingerprints):
        """A worker that dies after claiming a chunk neither loses nor
        duplicates tasks: the chunk is requeued to a surviving worker and
        the merge stays bit-identical."""
        backend = SocketBackend(heartbeat_timeout=10.0, worker_wait=30.0)
        host, port = backend.bind()
        claimed = threading.Event()

        def doomed_worker():
            """Speaks just enough protocol to claim a chunk, then dies."""
            sock = socketlib.create_connection((host, port), timeout=10)
            try:
                send_hello(sock, "doomed")
                welcome = recv_msg(sock)
                assert welcome and welcome["type"] == "welcome"
                send_msg(sock, {"type": "ready"})
                msg = recv_msg(sock)
                assert msg and msg["type"] == "chunk"
            finally:
                claimed.set()
                sock.close()  # dies without returning a result

        doomed = threading.Thread(target=doomed_worker, daemon=True)
        doomed.start()

        def healthy_worker():
            claimed.wait(timeout=15)  # let the doomed worker claim first
            run_worker(host, port)

        healthy = threading.Thread(target=healthy_worker, daemon=True)
        healthy.start()

        config, plan = tiny_config(seed=7), small_plan()
        runner = ParallelRunner(config, plan, jobs=2, backend=backend)
        combos = runner.run(MIXES)
        doomed.join(timeout=15)
        healthy.join(timeout=15)
        assert not healthy.is_alive()
        assert [fingerprint(c) for c in combos] == serial_fingerprints
        assert runner.tasks_run == runner.tasks_total  # nothing lost

    def test_no_workers_raises_instead_of_hanging(self):
        backend = SocketBackend(worker_wait=1.0)
        config, plan = tiny_config(seed=7), small_plan()
        runner = ParallelRunner(config, plan, jobs=2, backend=backend)
        with pytest.raises(EngineError, match="no live workers"):
            runner.run([MIXES[0]])

    def test_incompatible_hello_is_rejected(self):
        """Stale-protocol peers (v1 framing *and* MAC'd-but-wrong-version)
        get an actionable rejection, a garbage peer gets silence, and real
        workers still complete the sweep."""
        backend = SocketBackend(heartbeat_timeout=10.0, worker_wait=30.0)
        host, port = backend.bind()
        failures: list = []

        def legacy_peer():
            """A protocol-v1 worker: un-MAC'd length+JSON hello framing."""
            import json as jsonlib
            import struct

            sock = socketlib.create_connection((host, port), timeout=10)
            try:
                body = jsonlib.dumps({"type": "hello", "worker": "stale",
                                      "version": 1}).encode()
                sock.sendall(struct.pack(">I", len(body)) + body)
                try:
                    recv_msg(sock)
                    failures.append("legacy peer was not rejected")
                except AuthError as exc:
                    if "stale protocol" not in str(exc):
                        failures.append(f"unhelpful legacy rejection: {exc}")
                except Exception as exc:  # noqa: BLE001 - recorded for main thread
                    failures.append(f"legacy peer: {exc!r}")
            finally:
                sock.close()

        def stale_peer():
            """Current framing, future version number: the welcome-side gate."""
            sock = socketlib.create_connection((host, port), timeout=10)
            try:
                send_hello(sock, "stale", version=PROTOCOL_VERSION + 1)
                try:
                    recv_msg(sock)
                    failures.append("stale peer was not rejected")
                except AuthError as exc:
                    if "protocol version" not in str(exc):
                        failures.append(f"unhelpful stale rejection: {exc}")
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"stale peer: {exc!r}")
            finally:
                sock.close()

        def garbage_peer():
            """A non-protocol client (e.g. a stray HTTP probe) must be
            dropped by the handshake size cap without reaching the
            unpickler — and without leaking a protocol error frame."""
            sock = socketlib.create_connection((host, port), timeout=10)
            try:
                sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                sock.settimeout(10)
                try:
                    data = sock.recv(1)
                except ConnectionResetError:
                    data = b""  # hard reset: unread bytes at close
                if data != b"":
                    failures.append(f"garbage peer got bytes back: {data!r}")
            finally:
                sock.close()

        peers = [
            threading.Thread(target=target, daemon=True)
            for target in (legacy_peer, stale_peer, garbage_peer)
        ]
        for peer in peers:
            peer.start()
        good = threading.Thread(target=run_worker, args=(host, port), daemon=True)
        good.start()

        config, plan = tiny_config(seed=7), small_plan()
        runner = ParallelRunner(config, plan, jobs=2, backend=backend)
        [combo] = runner.run([MIXES[0]])
        for peer in peers:
            peer.join(timeout=15)
        good.join(timeout=15)
        assert failures == []
        serial = fingerprint(run_mix(MIXES[0], tiny_config(seed=7), small_plan()))
        assert fingerprint(combo) == serial
        assert backend.workers_seen == 1  # no bad peer ever registered


class TestTaskFailurePropagation:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_task_error_raises_after_siblings_persist(self, kind, tmp_path):
        """A bad scheme name fails the run on every backend, but the chunk
        siblings that finished before it are already in the store (resume
        granularity).  jobs=1 keeps the mix in one chunk so l2p
        deterministically precedes the failing task."""
        store = str(tmp_path / "store")
        config, plan = tiny_config(seed=7), small_plan()
        teardown = lambda: None
        if kind == "socket":
            harness = _SocketHarness(n_workers=1)
            backend, teardown = harness.backend, harness.join
        elif kind == "process":
            backend = ProcessPoolBackend(1)
        else:
            backend = InlineBackend()
        from repro.common.errors import ConfigError

        runner = ParallelRunner(
            config, plan, jobs=1, store=store, backend=backend,
            schemes=["l2p", "definitely_not_a_scheme"],
        )
        try:
            # The *original* task exception must surface — on the socket
            # backend too, even though the failing chunk is the last (and
            # only) one — not a downstream KeyError from a silently
            # incomplete merge.
            with pytest.raises(ConfigError, match="unknown scheme"):
                runner.run([MIXES[0]])
        finally:
            teardown()
        assert "c5_0__l2p" in runner.store.completed_ids()
