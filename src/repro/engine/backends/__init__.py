"""Concrete execution backends and the backend registry.

Three transports, one contract (see :class:`~repro.engine.backends.base.
ExecutionBackend`):

``inline``
    Chunks run in the calling process — the reference backend, and the
    default when no engine option asks for another.
``process``
    A single-machine :class:`~concurrent.futures.ProcessPoolExecutor` fan-out.
``socket``
    A TCP coordinator that ``repro worker --connect HOST:PORT`` processes
    pull chunks from — the many-node sweep transport, with heartbeat
    liveness and requeue-on-worker-death.

:func:`make_backend` maps a CLI-level name plus generic knobs onto the right
constructor.  New backends register here: subclass ``ExecutionBackend``,
implement ``submit_chunks``, add the class to :data:`BACKENDS` — the
conformance suite (``tests/engine/test_backends.py``) then holds it to the
bit-identical-merge contract automatically.
"""

from __future__ import annotations

from ...common.errors import EngineError
from .base import ExecutionBackend
from .inline import InlineBackend
from .process import ProcessPoolBackend
from .socket import SocketBackend, run_worker

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "SocketBackend",
    "run_worker",
    "BACKENDS",
    "make_backend",
]

#: Registry of constructable backends, keyed by CLI name.
BACKENDS = {
    InlineBackend.name: InlineBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
    SocketBackend.name: SocketBackend,
}


def make_backend(
    name: str,
    *,
    jobs: int = 0,
    cache_root: str | None = None,
    bind: tuple[str, int] | None = None,
    secret: str | None = None,
) -> ExecutionBackend:
    """Construct a registered backend from generic engine knobs.

    ``jobs`` sizes the process pool (ignored by ``inline``; a parallelism
    hint for chunk splitting either way); ``bind`` is the ``socket``
    listen address and ``secret`` its shared auth secret — a secret is
    rejected for other backends so a typo'd command line fails loudly
    instead of silently running unauthenticated.  Timeouts and fault specs
    are :class:`SocketBackend` constructor arguments.
    """
    if name not in BACKENDS:
        raise EngineError(
            f"unknown execution backend {name!r}; choose from {sorted(BACKENDS)}"
        )
    if name != SocketBackend.name and secret is not None:
        raise EngineError(
            f"backend {name!r} does not take --secret-file; "
            "it only applies to the socket backend"
        )
    if name == InlineBackend.name:
        return InlineBackend(cache_root)
    if name == ProcessPoolBackend.name:
        return ProcessPoolBackend(max(jobs, 1), cache_root)
    host, port = bind if bind is not None else ("127.0.0.1", 0)
    return SocketBackend(host, port, cache_root=cache_root, secret=secret)
