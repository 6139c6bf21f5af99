"""One asyncio listener on a daemon thread, driven from blocking code.

:func:`~repro.serve.server.serve_in_thread` and
:func:`~repro.serve.chaos.chaos_in_thread` both run a listener on a
background thread's event loop so that blocking callers (the tests, the
benchmarks) can dial it; their handles share :class:`BackgroundLoop`.
Both listeners also share how they close the connections still open
when they stop (:func:`track_handler`, :func:`close_connections`).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, List, Optional, Set, TypeVar

_Handle = TypeVar("_Handle", bound="BackgroundLoop")


def track_handler(handlers: Set["asyncio.Task[Any]"]) -> None:
    """Keep the running connection-handler task in ``handlers`` until
    it finishes."""
    task = asyncio.current_task()
    if task is not None:
        handlers.add(task)
        task.add_done_callback(handlers.discard)


async def close_connections(
    writers: Set[asyncio.StreamWriter], handlers: Set["asyncio.Task[Any]"]
) -> None:
    """Close a listener's open connections and wait for their handlers.

    Closing a writer ends its connection's reads with EOF, so each
    handler returns on its own.  A handler left running is cancelled
    when ``asyncio.run`` ends, and the stream protocol's callback then
    logs its ``CancelledError`` traceback.  The wait is bounded: a
    handler whose connection cannot flush (a peer that stopped reading)
    is still running after a second and is left to that cancellation.
    """
    for writer in tuple(writers):
        writer.close()
    if handlers:
        await asyncio.wait(tuple(handlers), timeout=1.0)


class BackgroundLoop:
    """Base of a handle to a listener running on its own thread and loop.

    A subclass defines :meth:`_start` (bind the listener), :meth:`_serve`
    (run until stopped, then tear down) and :meth:`_request_stop`
    (called on the loop's thread); :meth:`_launch` runs them.  The
    thread is a daemon, so a handle nobody stops cannot hang
    interpreter exit.
    """

    #: Names the listener in errors.
    _what = "listener"
    #: The thread's name.
    _thread_name = "tcast-loop"
    #: Default seconds :meth:`stop` waits for the thread.
    _stop_timeout = 30.0

    _thread: threading.Thread
    _loop: asyncio.AbstractEventLoop

    async def _start(self) -> None:
        raise NotImplementedError

    async def _serve(self) -> None:
        raise NotImplementedError

    def _request_stop(self) -> None:
        raise NotImplementedError

    def _launch(self) -> None:
        """Start the thread; block until :meth:`_start` has returned.

        Raises:
            RuntimeError: :meth:`_start` raised (chained to its error),
                or did not return within 30 s.
        """
        started = threading.Event()
        failed: List[BaseException] = []

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self._start()
            except BaseException as exc:  # surface bind errors to the caller
                failed.append(exc)
                raise
            finally:
                started.set()
            await self._serve()

        def run() -> None:
            try:
                asyncio.run(main())
            except BaseException:
                # A boot error is re-raised by _launch; nobody waits on
                # anything else this thread could raise.
                started.set()

        self._thread = threading.Thread(
            target=run, name=self._thread_name, daemon=True
        )
        self._thread.start()
        started.wait(timeout=30.0)
        if failed:
            self._thread.join(timeout=5.0)
            raise RuntimeError(
                f"{self._what} failed to start: {failed[0]!r}"
            ) from failed[0]
        if not started.is_set():
            raise RuntimeError(f"{self._what} thread did not start in time")

    def stop(self, timeout: Optional[float] = None) -> None:
        """Ask the listener to stop and join its thread (default
        timeout: the handle's own)."""
        self._loop.call_soon_threadsafe(self._request_stop)
        self._thread.join(
            timeout=self._stop_timeout if timeout is None else timeout
        )
        if self._thread.is_alive():
            raise RuntimeError(f"{self._what} thread did not stop in time")

    def __enter__(self: _Handle) -> _Handle:
        """Context-manager entry: the handle itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: :meth:`stop`."""
        self.stop()
