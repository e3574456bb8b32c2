"""Asyncio frontend over the worker pool: in-process awaits + TCP serving.

:class:`AsyncServingFrontend` adapts :class:`~repro.serving.pool.WorkerPoolEngine`
to asyncio:

* :meth:`~AsyncServingFrontend.submit` awaits one request without blocking
  the event loop.  ``pool.submit`` runs inline on the loop: it only
  validates, admits, looks the cloud up in the pool's result tier under a
  lock and, on a miss, does a non-blocking queue put.  A hit comes back as
  an already-completed future and returns at once; a miss's
  ``concurrent.futures.Future`` is awaited via :func:`asyncio.wrap_future`.
  The tier computes each answer's label and probabilities once, when it
  stores the answer, and every hit hands out copies of its arrays, so a
  caller that mutates a result cannot change a later hit.
* :meth:`~AsyncServingFrontend.start`/:meth:`~AsyncServingFrontend.stop`
  run a newline-delimited-JSON TCP server (``repro serve --workers N
  --port P``; ``stop`` also closes the open connections and waits for
  their handlers): one request object per line in, one response object per
  line out, errors reported in-band as ``{"ok": false, ...}`` so a bad
  request never kills the connection.  A request line may be up to
  :data:`MAX_LINE_BYTES` (16 MiB; a 1024-point cloud is about 66 KB, past
  asyncio's 64 KiB default); a longer one is read past and answered with
  an in-band ``BadRequest``, and the connection goes on with the next line.
* The TCP server remembers each line the pool's result tier answered,
  keyed by ``(line bytes, default dtype)``: the line's prepared request
  (:meth:`~repro.serving.pool.WorkerPoolEngine.prepare`: registry entry,
  validated cloud and result-tier key) and the encoded reply of its last
  result-tier answer.  A repeated hot line therefore skips ``json.loads``,
  the array conversion and the cloud's fingerprint, and goes straight to
  the pool's admission and result-tier lookup, which hands a hit back
  without a future (``WorkerPoolEngine._hit_or_dispatch``).  Its reply
  bytes are sent again only when the new answer's reply fields are equal
  and its logits are bitwise equal (same ``dtype``, same ``tobytes()``),
  so they are exactly what ``json.dumps`` would produce; a tier entry that
  was evicted and recomputed with other bits gets a fresh encoding, and
  logits with a NaN or an infinity are encoded afresh every time.  Only a
  line the result tier answered is stored, so one-off clouds never churn
  the memo and a line that failed to parse, validate or admit is never
  stored; it holds at most the pool's ``result_cache_capacity`` lines
  (LRU, 0 turns it off).  Decoding and preparing are pure functions of
  the bytes and the dtype policy, and the breaker, admission, the
  result-tier lookup and telemetry still run on every request, so every
  reply is the one an uncached decode would give.  Reuses are counted as
  ``serving.frontend.decoded_reused`` and ``serving.frontend.reply_reused``.

The wire format is deliberately minimal — stdlib-only JSON lines — so
tests and the CLI client need nothing beyond :mod:`asyncio` and
:mod:`json`.
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.faults import fault_point
from repro.nn.dtype import get_default_dtype
from repro.obs.metrics import get_metrics
from repro.serving.engine import AdmissionError, InferenceResult
from repro.serving.pool import DeadlineExceededError, PreparedRequest, WorkerCrashError, WorkerPoolEngine
from repro.serving.resilience import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.utils.logging import get_logger

__all__ = ["AsyncServingFrontend", "FrontendTimeoutError", "MAX_LINE_BYTES", "request_over_tcp"]

_LOGGER = get_logger("serving.frontend")

#: The longest request line the TCP server reads (its ``StreamReader`` limit).
#: A 1024-point cloud is about 66 KB of JSON, past asyncio's 64 KiB default.
MAX_LINE_BYTES = 16 * 1024 * 1024


class FrontendTimeoutError(TimeoutError):
    """A TCP connect or read exceeded its deadline (reported in-band by name)."""


#: Exception types reported to TCP clients by name (anything else is
#: flattened to ``"InternalError"`` so internals do not leak on the wire).
_CLIENT_ERRORS = (
    AdmissionError,
    DeadlineExceededError,
    WorkerCrashError,
    CircuitOpenError,
    FrontendTimeoutError,
    ValueError,
    KeyError,
)


def _result_message(result: InferenceResult) -> dict:
    return {
        "ok": True,
        "model": result.model,
        "label": result.label,
        "logits": np.asarray(result.logits).ravel().tolist(),
        "latency_ms": result.latency_ms,
        "batch_size": result.batch_size,
        "from_cache": result.from_cache,
        "worker": result.worker,
    }


def _reply_fields(result: InferenceResult) -> tuple:
    """The fields of :func:`_result_message` other than ``ok`` and the logits."""
    return (result.model, result.label, result.latency_ms, result.batch_size, result.from_cache, result.worker)


def _bad_request(message: str) -> dict:
    return {"ok": False, "error": "BadRequest", "message": message}


def _error_message(error: BaseException) -> dict:
    if isinstance(error, _CLIENT_ERRORS):
        name = type(error).__name__
        message = str(error)
    else:  # pragma: no cover - defensive
        name = "InternalError"
        message = "internal server error"
        _LOGGER.exception("unexpected serving error")
    return {"ok": False, "error": name, "message": message}


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line (``b""`` at EOF), or ``None`` for a line over the limit.

    An over-limit line is dropped a buffer at a time, so memory stays
    bounded and the stream stays at a line boundary for the next request.
    """
    overrun = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as error:
            line = error.partial
        except asyncio.LimitOverrunError as error:
            await reader.readexactly(error.consumed)
            overrun = True
            continue
        return None if overrun else line


@dataclass
class _HotLine:
    """A request line the pool's result tier answered: its prepared request and last reply."""

    request: PreparedRequest
    #: Encoded reply line of the last result-tier answer (``None``: none to reuse).
    reply: bytes | None = None
    fields: tuple = ()
    dtype: np.dtype | None = None
    logits: bytes = b""

    def replays(self, result: InferenceResult) -> bool:
        """Whether :attr:`reply` is the encoding of ``result``: equal fields, bitwise-equal logits."""
        logits = np.asarray(result.logits)
        return (
            self.reply is not None
            and _reply_fields(result) == self.fields
            and logits.dtype == self.dtype
            and logits.tobytes() == self.logits
        )

    def keep(self, result: InferenceResult, reply: bytes) -> None:
        """Remember ``reply`` as the encoding of the result-tier answer ``result``."""
        logits = np.asarray(result.logits)
        if not np.isfinite(logits).all():
            self.reply = None  # rare, and not standard JSON: encoded afresh every time
            return
        self.reply, self.fields, self.dtype, self.logits = reply, _reply_fields(result), logits.dtype, logits.tobytes()


class AsyncServingFrontend:
    """Awaitable request API and a JSON-lines TCP server over one pool."""

    def __init__(
        self,
        pool: WorkerPoolEngine,
        retry_policy: RetryPolicy | None = None,
        circuit_breaker: CircuitBreaker | None = None,
        idle_timeout_s: float | None = None,
    ):
        self.pool = pool
        # Worker crashes are transparent by default: a bounded retry gives
        # the supervisor time to requeue/restart before the client sees it.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.circuit_breaker = circuit_breaker
        self.idle_timeout_s = idle_timeout_s
        self._server: asyncio.AbstractServer | None = None
        # Each open connection's handler task and writer, aborted by stop().
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        # (line bytes, dtype) -> the line's prepared request and last reply,
        # for lines the pool's result tier answered; see the module docstring.
        self._hot: OrderedDict[tuple[bytes, np.dtype], _HotLine] = OrderedDict()
        self.requests_served = 0
        self.requests_failed = 0
        self.retries = 0

    # ------------------------------------------------------------------ #
    # In-process async API
    # ------------------------------------------------------------------ #
    async def submit(self, model: str, points: np.ndarray) -> InferenceResult:
        """Await one request through the pool without blocking the loop.

        ``pool.submit`` validates and admission-checks synchronously (it
        can reject before any IPC) and never blocks, so it runs on the
        loop; a result-tier hit is returned without a hop, a dispatched
        request's future is awaited natively.  Worker crashes are retried
        with bounded exponential backoff up to the frontend's
        :class:`RetryPolicy`; an attached breaker fails fast with
        :class:`CircuitOpenError` while the pool looks unhealthy.  A
        result-tier hit says nothing about the workers' health, and neither
        does any failure other than a crash, so those neither close nor
        re-open the breaker.  Deadline/admission failures are terminal — the
        first is already late, the second is the pool shedding load on
        purpose.
        """
        return await self._serve(partial(self.pool.submit, model, points))

    async def _serve(self, submit: Callable[[], InferenceResult | Future]) -> InferenceResult:
        """Run one request's ``submit`` under the breaker and the retry policy (see :meth:`submit`).

        ``submit`` returns the result itself (a result-tier hit) or a future of it.
        """
        attempt = 0
        while True:
            attempt += 1
            if self.circuit_breaker is not None:
                self.circuit_breaker.allow()
            try:
                outcome = submit()
                if not isinstance(outcome, Future):
                    result = outcome
                elif outcome.done():
                    result = outcome.result()
                else:
                    result = await asyncio.wrap_future(outcome)
            except WorkerCrashError:
                if self.circuit_breaker is not None:
                    self.circuit_breaker.record_failure()
                if attempt >= self.retry_policy.max_attempts:
                    raise
                self.retries += 1
                get_metrics().count("serving.frontend.retries")
                backoff = self.retry_policy.backoff(attempt)
                _LOGGER.warning("worker crash on attempt %d/%d; retrying in %.3fs", attempt, self.retry_policy.max_attempts, backoff)
                await asyncio.sleep(backoff)
                continue
            except BaseException:
                # Admission, deadline and request errors (and cancellation)
                # say nothing about the workers' health: hand a probe slot back.
                if self.circuit_breaker is not None:
                    self.circuit_breaker.release()
                raise
            if self.circuit_breaker is not None:
                if result.worker is None:  # answered by the pool's result tier
                    self.circuit_breaker.release()
                else:
                    self.circuit_breaker.record_success()
            return result

    # ------------------------------------------------------------------ #
    # TCP server (newline-delimited JSON)
    # ------------------------------------------------------------------ #
    async def _handle_line(self, line: bytes) -> bytes:
        """The encoded reply line to one request line."""
        dtype = get_default_dtype()
        key = (line, dtype)
        hot = self._hot.get(key)
        if hot is not None:
            self._hot.move_to_end(key)
            get_metrics().count("serving.frontend.decoded_reused")
            submit = partial(self.pool._hit_or_dispatch, hot.request)
        else:
            try:
                request = json.loads(line)
                model = request["model"]
                points = np.asarray(request["points"], dtype=dtype)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                return self._reply(_bad_request(f"malformed request: {error}"))
            prepared = None

            def submit() -> InferenceResult | Future:
                nonlocal prepared
                prepared = self.pool.prepare(model, points)
                return self.pool._hit_or_dispatch(prepared)

        try:
            result = await self._serve(submit)
        except Exception as error:  # noqa: BLE001 - reported in-band to the client
            return self._reply(_error_message(error))
        if hot is not None and hot.replays(result):
            get_metrics().count("serving.frontend.reply_reused")
            self.requests_served += 1
            return hot.reply
        reply = self._reply(_result_message(result))
        if result.worker is None:  # answered by the pool's result tier
            if hot is None:
                hot = self._remember(key, prepared)
            if hot is not None:
                hot.keep(result, reply)
        return reply

    def _reply(self, message: dict) -> bytes:
        """Encode one reply line, counting it as served or failed."""
        if message["ok"]:
            self.requests_served += 1
        else:
            self.requests_failed += 1
        return json.dumps(message).encode() + b"\n"

    def _remember(self, key: tuple[bytes, np.dtype], request: PreparedRequest) -> _HotLine | None:
        """Store a line the result tier answered, evicting the oldest; ``None`` when the memo is off."""
        capacity = self.pool.config.result_cache_capacity
        if capacity <= 0:
            return None
        request.points.setflags(write=False)  # shared by every later reuse of the line
        hot = self._hot[key] = _HotLine(request)
        if len(self._hot) > capacity:
            self._hot.popitem(last=False)
        return hot

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None  # asyncio runs each connection's handler as a task
        self._connections[task] = writer
        try:
            while True:
                try:
                    if self.idle_timeout_s is not None:
                        line = await asyncio.wait_for(_read_line(reader), timeout=self.idle_timeout_s)
                    else:
                        line = await _read_line(reader)
                except asyncio.TimeoutError:
                    # A stalled peer no longer pins this handler forever: tell
                    # it why (in-band, typed) and drop the connection.
                    message = {
                        "ok": False,
                        "error": "FrontendTimeoutError",
                        "message": f"no request received within {self.idle_timeout_s}s; closing connection",
                    }
                    writer.write(json.dumps(message).encode() + b"\n")
                    await writer.drain()
                    break
                if line is None:
                    reply = self._reply(_bad_request(f"request line longer than {MAX_LINE_BYTES} bytes"))
                elif not line:
                    break
                elif not line.strip():
                    continue
                else:
                    reply = await self._handle_line(line)
                writer.write(reply)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client went away
            pass
        finally:
            # Close without awaiting wait_closed(): the transport finishes
            # closing on the loop, and a handler cancelled at the loop's
            # shutdown must not await again.
            del self._connections[task]
            writer.close()

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the TCP server; returns the bound ``(host, port)``.

        Pass ``port=0`` to bind an ephemeral port (tests, CI smoke runs).
        """
        if self._server is not None:
            raise RuntimeError("frontend server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port, limit=MAX_LINE_BYTES
        )
        bound = self._server.sockets[0].getsockname()
        _LOGGER.info("serving frontend listening on %s:%d", bound[0], bound[1])
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Stop accepting connections and close the open ones (the pool itself is left running).

        Each handler ends on its own: aborting its connection ends the read
        it waits on, and a request it is serving finishes with its reply
        dropped.  Aborting, not closing, drops replies the peer has not read,
        so a peer that stopped reading cannot hold ``stop`` up.  Handlers are
        not cancelled: before Python 3.12 the stream protocol's done callback
        calls ``exception()`` on the handler task, which raises on a
        cancelled task, and asyncio logs that at ERROR.
        """
        if self._server is None:
            return
        self._server.close()
        handlers = dict(self._connections)
        for writer in handlers.values():
            writer.transport.abort()
        await asyncio.gather(*handlers)
        await self._server.wait_closed()
        self._server = None


async def request_over_tcp(
    host: str,
    port: int,
    requests: list[dict],
    connect_timeout_s: float | None = 10.0,
    read_timeout_s: float | None = 60.0,
) -> list[dict]:
    """Send request objects over one connection; returns the response objects.

    The stdlib-only client used by the CLI's ``--port`` smoke mode, the
    benchmark's load generator and the tests.  Both the connect and each
    response read are bounded: a dead or stalled server surfaces as a
    typed :class:`FrontendTimeoutError` instead of hanging the caller
    forever.  Pass ``None`` to disable either timeout.
    """
    try:
        if connect_timeout_s is not None:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=connect_timeout_s
            )
        else:
            reader, writer = await asyncio.open_connection(host, port)
    except asyncio.TimeoutError:
        raise FrontendTimeoutError(f"connect to {host}:{port} timed out after {connect_timeout_s}s") from None
    responses: list[dict] = []
    try:
        for request in requests:
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            fault_point("serving.tcp.read", host=host, port=port)
            try:
                if read_timeout_s is not None:
                    line = await asyncio.wait_for(reader.readline(), timeout=read_timeout_s)
                else:
                    line = await reader.readline()
            except asyncio.TimeoutError:
                raise FrontendTimeoutError(
                    f"no response from {host}:{port} within {read_timeout_s}s"
                ) from None
            if not line:
                raise ConnectionError("server closed the connection mid-stream")
            responses.append(json.loads(line))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
    return responses
