"""A seeded TCP chaos proxy for torturing the serve stack.

:class:`ChaosProxy` sits between a client and a running
:class:`~repro.serve.server.ThresholdQueryService`, forwarding bytes in
both directions while injecting transport faults drawn from seeded
random streams -- the serve-layer sibling of :mod:`repro.faults`, one
layer down the stack (TCP bytes instead of bin verdicts):

* **latency** -- every forwarded chunk is delayed by
  ``latency_ms`` plus a uniform jitter;
* **stalls** -- with probability ``p_stall`` a chunk is held for
  ``stall_ms`` before forwarding (a wedged middlebox, not a dead one);
* **truncation** -- with probability ``p_truncate`` a chunk is cut in
  half mid-frame and the connection aborted, so the victim sees a
  syntactically broken partial line followed by a reset;
* **disconnects** -- with probability ``p_disconnect`` the connection
  is aborted outright between chunks.

Faults are drawn per connection from streams rooted at
``SeedSequence((seed, connection_index))`` -- the :mod:`repro.faults`
idiom -- with one child stream per pump direction, so a run's fault
pattern is a function of the spec, not of scheduler interleaving.
Injected faults are counted per kind on the proxy
(:attr:`ChaosProxy.injected`), giving tests and the benchmark ground
truth to reconcile server-side ``serve.*`` counters against.

The proxy is deliberately protocol-blind: it never parses frames, so it
can cut a JSON line anywhere -- exactly the damage the server's
:class:`~repro.serve.server._FrameReader` and the retrying client must
survive.

:func:`chaos_in_thread` mirrors
:func:`~repro.serve.server.serve_in_thread` (both handles are a
:class:`~repro.serve.background.BackgroundLoop`): it runs a proxy on a
background thread's event loop so blocking clients (the tests, the
benchmark) can dial through it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Optional, Set

import numpy as np

from repro.serve.background import BackgroundLoop, close_connections, track_handler

#: Forwarding chunk size; small enough that multi-frame pipelines span
#: several chunks (giving per-chunk faults several chances to fire).
_CHUNK = 1 << 14


class _Cut(Exception):
    """Internal: this connection was chosen for a hard abort."""


@dataclass(frozen=True)
class ChaosSpec:
    """Declarative fault mix for one :class:`ChaosProxy`.

    Attributes:
        latency_ms: Fixed delay added to every forwarded chunk.
        latency_jitter_ms: Extra uniform ``[0, jitter)`` delay per chunk.
        p_truncate: Per-chunk probability of a mid-frame cut: half the
            chunk is forwarded, then the connection is aborted.
        p_disconnect: Per-chunk probability of aborting the connection
            between chunks (the chunk is dropped whole).
        p_stall: Per-chunk probability of holding the chunk ``stall_ms``
            before forwarding it intact.
        stall_ms: Stall duration.
        seed: Root seed for all fault randomness.
    """

    latency_ms: float = 0.0
    latency_jitter_ms: float = 0.0
    p_truncate: float = 0.0
    p_disconnect: float = 0.0
    p_stall: float = 0.0
    stall_ms: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject nonsensical configurations eagerly."""
        if self.latency_ms < 0 or self.latency_jitter_ms < 0:
            raise ValueError("latency_ms and latency_jitter_ms must be >= 0")
        for name in ("p_truncate", "p_disconnect", "p_stall"):
            p = float(getattr(self, name))
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.stall_ms < 0:
            raise ValueError(f"stall_ms must be >= 0, got {self.stall_ms}")

    @classmethod
    def none(cls) -> "ChaosSpec":
        """A fault-free spec: the proxy forwards bytes untouched."""
        return cls()


class ChaosProxy:
    """The asyncio proxy itself (see the module docstring).

    Args:
        upstream_host: The real service's host.
        upstream_port: The real service's port.
        spec: The fault mix.
        host: Proxy bind address.
        port: Proxy bind port; ``0`` picks a free one (read it back
            from :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        spec: ChaosSpec = ChaosSpec(),
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._upstream = (upstream_host, upstream_port)
        self.spec = spec
        self._host = host
        self.port = port
        self._server: Optional[asyncio.Server] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._conn_index = 0
        self._counts: Dict[str, int] = {
            "connections": 0,
            "delays": 0,
            "stalls": 0,
            "truncations": 0,
            "disconnects": 0,
        }

    @property
    def injected(self) -> Dict[str, int]:
        """Ground-truth injected-fault counts, per kind (a copy)."""
        return dict(self._counts)

    async def start(self) -> None:
        """Bind the proxy listener."""
        self._server = await asyncio.start_server(
            self._handle, host=self._host, port=self.port
        )
        for sock in self._server.sockets or ():
            self.port = int(sock.getsockname()[1])
            break

    async def stop(self) -> None:
        """Close the listener, then every proxied connection."""
        if self._server is not None:
            self._server.close()
            await close_connections(self._writers, self._handlers)
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        """Proxy one client connection through the fault mix."""
        track_handler(self._handlers)
        index = self._conn_index
        self._conn_index += 1
        self._counts["connections"] += 1
        # One stream per pump direction, both rooted at (seed, index):
        # asyncio interleaving between the directions cannot reorder
        # either direction's own draws.
        children = np.random.SeedSequence((self.spec.seed, index)).spawn(2)
        try:
            up_reader, up_writer = await asyncio.open_connection(
                *self._upstream
            )
        except (ConnectionError, OSError):
            client_writer.close()
            return
        writers = (client_writer, up_writer)
        self._writers.update(writers)
        pumps = [
            asyncio.ensure_future(
                self._pump(
                    client_reader, up_writer, np.random.default_rng(children[0])
                )
            ),
            asyncio.ensure_future(
                self._pump(
                    up_reader, client_writer, np.random.default_rng(children[1])
                )
            ),
        ]
        try:
            await asyncio.gather(*pumps)
        except (_Cut, ConnectionError, OSError):
            for pump in pumps:
                pump.cancel()
            for writer in writers:
                transport = writer.transport
                if transport is not None:
                    transport.abort()
        finally:
            await asyncio.gather(*pumps, return_exceptions=True)
            for writer in writers:
                writer.close()
            self._writers.difference_update(writers)

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        rng: np.random.Generator,
    ) -> None:
        """Forward one direction, chunk by chunk, through the fault mix."""
        spec = self.spec
        while True:
            chunk = await reader.read(_CHUNK)
            if not chunk:
                break
            delay = spec.latency_ms
            if spec.latency_jitter_ms > 0:
                delay += float(rng.uniform(0.0, spec.latency_jitter_ms))
            if delay > 0:
                self._counts["delays"] += 1
                await asyncio.sleep(delay / 1e3)
            if spec.p_stall > 0 and float(rng.random()) < spec.p_stall:
                self._counts["stalls"] += 1
                await asyncio.sleep(spec.stall_ms / 1e3)
            if spec.p_truncate > 0 and float(rng.random()) < spec.p_truncate:
                self._counts["truncations"] += 1
                writer.write(chunk[: len(chunk) // 2])
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                raise _Cut()
            if spec.p_disconnect > 0 and float(rng.random()) < spec.p_disconnect:
                self._counts["disconnects"] += 1
                raise _Cut()
            writer.write(chunk)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                break
        # Clean EOF on this direction: half-close so the peer sees it,
        # while the opposite direction keeps flowing.
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except (ConnectionError, OSError):
            pass


class ChaosHandle(BackgroundLoop):
    """A proxy running on a background thread's event loop.

    Built by :func:`chaos_in_thread`; exposes the bound port, the live
    injected-fault counts, and a blocking :meth:`stop`.
    """

    _what = "chaos proxy"
    _thread_name = "tcast-chaos"
    _stop_timeout = 10.0

    _stop_event: asyncio.Event

    def __init__(self, proxy: ChaosProxy) -> None:
        self.proxy = proxy

    @property
    def port(self) -> int:
        """The proxy's bound TCP port."""
        return self.proxy.port

    @property
    def injected(self) -> Dict[str, int]:
        """Ground-truth injected-fault counts so far."""
        return self.proxy.injected

    async def _start(self) -> None:
        self._stop_event = asyncio.Event()
        await self.proxy.start()

    async def _serve(self) -> None:
        await self._stop_event.wait()
        await self.proxy.stop()

    def _request_stop(self) -> None:
        self._stop_event.set()


def chaos_in_thread(
    upstream_host: str, upstream_port: int, spec: ChaosSpec = ChaosSpec()
) -> ChaosHandle:
    """Run a :class:`ChaosProxy` on a background event loop; return its handle.

    Blocks until the proxy is bound, mirroring
    :func:`~repro.serve.server.serve_in_thread` -- point a blocking
    client at :attr:`ChaosHandle.port` and every byte flows through the
    fault mix.
    """
    handle = ChaosHandle(ChaosProxy(upstream_host, upstream_port, spec))
    handle._launch()
    return handle
