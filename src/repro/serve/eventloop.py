"""A ``selectors``-based event-loop HTTP front-end for the scan service.

The scan service's one HTTP front-end is the classic single-threaded
reactor: rather than spend an OS thread — stack, scheduler slot, GIL
churn — per open connection, one :mod:`selectors` loop owns every socket
(non-blocking accept, read and write), parses HTTP/1.1 with keep-alive
and pipelining, and hands each complete request to the
:class:`~repro.serve.server.ScanService`.  Scan
requests are answered **asynchronously**: the service submits them to a
micro-batch worker and the completion is posted back to the loop through
a queue plus self-pipe wakeup, so the loop never blocks on inference and
a thousand idle connections cost a thousand socket objects, not a
thousand threads.

The split of responsibilities is deliberate:

* the front-end owns **transport**: sockets, buffering, request framing
  (request line, headers, ``Content-Length`` bodies, ``Expect:
  100-continue``), keep-alive/pipelining order, slow-loris and idle
  timeouts, and graceful drain;
* the service owns **semantics**: routing, JSON parsing, model selection,
  batching, metrics.  The only contract between them is
  ``service.dispatch(request, respond)`` with a :class:`ParsedRequest`
  in and a thread-safe ``respond(status, payload)`` callback out.

Responses on one connection are written in request order.  One request
per connection is in flight at a time; while it is, the parser keeps
reading ahead and queues each further complete request in the
connection's ``pending`` queue, up to ``max_pipelined_requests``.  The
request past that budget is queued as a 429 that closes the connection
once everything before it is answered.  Each response written starts
the next queued request, so micro-batch completion order can never
reorder a client's stream.  A ``100 Continue`` owed to a queued request
waits until every earlier response is written.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..faults import (
    DEFAULT_MAX_PIPELINED_REQUESTS,
    DEFAULT_OUTBUF_BUDGET_BYTES,
    DEFAULT_RETRY_AFTER_S,
)

logger = logging.getLogger(__name__)

#: How long (seconds) a connection may dribble out one request before the
#: loop closes it (the slow-loris guard).  The clock starts at the first
#: byte of a request and resets once the request is complete, so a
#: long-running *scan* is unaffected — only a slow *sender* is.
DEFAULT_REQUEST_TIMEOUT_S = 10.0

#: How long (seconds) an idle keep-alive connection (no partial request,
#: nothing in flight) is kept before the loop reclaims it.
DEFAULT_IDLE_TIMEOUT_S = 120.0

#: Listen backlog.  The loop accepts in a tight non-blocking loop, so the
#: backlog only needs to absorb a burst between two ``select`` wakeups.
DEFAULT_BACKLOG = 1024

_MAX_LINE_BYTES = 65536
_MAX_HEADER_LINES = 100
_RECV_BYTES = 65536
#: Pipelined bytes buffered beyond the current request's body while a
#: response is pending.  Past this the connection's read interest is
#: paused — a client cannot make the server buffer unbounded input.
_PIPELINE_SLACK_BYTES = 131072

_REASONS = {
    100: "Continue",
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

# Request-parse phases of one connection.
_PH_REQUEST_LINE = 0
_PH_HEADERS = 1
_PH_BODY = 2


@dataclass
class ParsedRequest:
    """One complete HTTP request as handed to ``service.dispatch``.

    ``headers`` keys are lower-cased; ``body`` is the complete
    ``Content-Length``-framed payload (possibly empty).  Framing problems
    never reach the service — the front-end already answered them.
    """

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes


#: Content type of the Prometheus text exposition format (the default
#: :class:`RawResponse` content type, since that is its one producer).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class RawResponse:
    """A pre-encoded response body with an explicit content type.

    The service layer normally answers with JSON-serialisable dicts; a
    handler that must speak another wire format (the Prometheus text
    exposition behind ``GET /metrics?format=prometheus``) wraps its
    encoded bytes in one of these and both front-ends pass them through
    verbatim instead of JSON-encoding.
    """

    body: bytes
    content_type: str = PROMETHEUS_CONTENT_TYPE


class _Connection:
    """Per-socket state machine: buffers, parse phase, in-flight marker."""

    __slots__ = (
        "sock",
        "addr",
        "inbuf",
        "outbuf",
        "phase",
        "method",
        "path",
        "version",
        "headers",
        "header_lines",
        "body_length",
        "keep_alive",
        "awaiting_response",
        "pending",
        "inflight_keep_alive",
        "needs_continue",
        "close_after_flush",
        "closed",
        "reading_paused",
        "last_activity",
        "request_started",
        "mask",
    )

    def __init__(self, sock: socket.socket, addr: Tuple[str, int]) -> None:
        self.sock = sock
        self.addr = addr
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.phase = _PH_REQUEST_LINE
        self.method = ""
        self.path = ""
        self.version = ""
        self.headers: Dict[str, str] = {}
        self.header_lines = 0
        self.body_length = 0
        self.keep_alive = True
        # A request was dispatched and its respond() has not fired yet;
        # later pipelined requests queue in ``pending`` so responses keep
        # request order.
        self.awaiting_response = False
        # Parsed-ahead pipelined units awaiting their turn, in request
        # order.  Entries are ("request", ParsedRequest, keep_alive) or
        # ("reject", status, payload, extra_headers, reject_reason).
        # Invariant: non-empty only while ``awaiting_response`` is True.
        self.pending: Deque[Tuple[Any, ...]] = deque()
        # keep_alive as parsed for the *in-flight* request; parse-ahead
        # may rewrite ``keep_alive`` for a later one before we respond.
        self.inflight_keep_alive = True
        # A deferred "100 Continue": owed to the client, but only once
        # every earlier response has been written.
        self.needs_continue = False
        self.close_after_flush = False
        self.closed = False
        self.reading_paused = False
        self.last_activity = time.monotonic()
        # monotonic() when the first byte of the current request arrived;
        # None while idle between requests.  Basis of the slow-loris clock.
        self.request_started: Optional[float] = None
        self.mask = selectors.EVENT_READ


class EventLoopFrontend:
    """Single-threaded reactor serving HTTP for a :class:`ScanService`.

    Parameters
    ----------
    host / port:
        Bind address; the listening socket is created (and a bad bind
        fails) at construction, before any thread starts.  ``port=0``
        picks a free port, readable from :attr:`port`.
    service:
        The request router.  Must provide ``dispatch(request, respond)``
        where ``respond(status, payload_dict)`` may be called from any
        thread, exactly once per request.
    max_body_bytes:
        Largest accepted ``Content-Length``; beyond it the request is
        answered 400 without buffering the body.
    request_timeout_s / idle_timeout_s:
        Slow-loris and idle keep-alive reclaim clocks (see module
        constants).  Connections with a response in flight are exempt
        from both — a slow *scan* is the batch worker's business.
    backlog:
        Listen backlog for accept bursts.
    max_outbuf_bytes:
        Per-connection response buffer budget.  A client that stops
        reading while responses accumulate past this is closed — it
        cannot pin unbounded memory in the server.
    max_pipelined_requests:
        How many parsed-ahead pipelined requests one connection may
        queue behind the in-flight one.  The next request past the
        budget is answered 429 (with ``Retry-After``) and the
        connection closed after that response.
    on_reject:
        Optional callable ``on_reject(reason)`` invoked whenever the
        front-end sheds work for a budget reason (currently always
        ``"connection_budget"``).  Exceptions from the hook are logged
        and swallowed — metrics must never hurt the loop.
    """

    def __init__(
        self,
        host: str,
        port: int,
        service: Any,
        max_body_bytes: int = 64 * 1024 * 1024,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
        backlog: int = DEFAULT_BACKLOG,
        max_outbuf_bytes: int = DEFAULT_OUTBUF_BUDGET_BYTES,
        max_pipelined_requests: int = DEFAULT_MAX_PIPELINED_REQUESTS,
        on_reject: Optional[Callable[[str], None]] = None,
    ) -> None:
        self._service = service
        self.max_body_bytes = max_body_bytes
        self.request_timeout_s = request_timeout_s
        self.idle_timeout_s = idle_timeout_s
        self.max_outbuf_bytes = max_outbuf_bytes
        self.max_pipelined_requests = max_pipelined_requests
        self._on_reject = on_reject
        self._listener = socket.create_server(
            (host, port), backlog=backlog, reuse_port=False
        )
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        # Completions posted by other threads (batch workers) and drained
        # by the loop; the socketpair is the self-pipe that wakes select().
        self._completions: Deque[
            Tuple[_Connection, int, Any, Optional[Dict[str, str]]]
        ] = deque()
        self._completion_lock = threading.Lock()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, None)
        self._connections: Dict[socket.socket, _Connection] = {}
        self._thread: Optional[threading.Thread] = None
        self._loop_ident: Optional[int] = None
        self._draining = False
        self._stopping = False
        self._stop_deadline = 0.0
        self._dead = False

    # -- addressing ----------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound host."""
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with ``port=0``)."""
        return self._listener.getsockname()[1]

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Run the loop on a background thread."""
        self._thread = threading.Thread(target=self.run, name="repro-serve-loop")
        self._thread.start()

    def run(self) -> None:
        """Run the reactor on the calling thread until shutdown completes."""
        self._loop_ident = threading.get_ident()
        try:
            while True:
                if self._stopping and self._quiescent():
                    break
                if self._stopping and time.monotonic() >= self._stop_deadline:
                    break
                timeout = min(0.1, max(0.01, self.request_timeout_s / 4.0))
                events = self._selector.select(timeout)
                for key, mask in events:
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.fileobj is self._wake_recv:
                        self._drain_wakeup()
                    else:
                        conn = self._connections.get(key.fileobj)  # type: ignore[arg-type]
                        if conn is None:
                            continue
                        if mask & selectors.EVENT_WRITE:
                            self._on_writable(conn)
                        if mask & selectors.EVENT_READ and not conn.closed:
                            self._on_readable(conn)
                self._apply_completions()
                self._sweep_timeouts()
                if self._draining and not self._listener_closed():
                    self._close_listener()
        finally:
            self._dead = True
            self._teardown()

    def begin_drain(self) -> None:
        """Stop accepting new connections; in-flight work continues.

        Thread-safe.  The first phase of graceful shutdown: called before
        the batch workers drain so no new scans can arrive behind them.
        """
        self._draining = True
        self._wakeup()

    def shutdown(self, grace_s: float = 2.0) -> None:
        """Flush pending responses, close every socket, stop the loop.

        Thread-safe and idempotent.  The loop keeps running up to
        ``grace_s`` seconds to write out responses already queued (the
        batchers must have drained by now, so no *new* completions can
        appear), then tears everything down.  Joins the loop thread when
        the front-end was started with :meth:`start`.
        """
        self._draining = True
        self._stopping = True
        self._stop_deadline = time.monotonic() + grace_s
        self._wakeup()
        if self._thread is not None:
            self._thread.join(timeout=grace_s + 10.0)
            self._thread = None
        if self._loop_ident is None and not self._dead:
            # The loop never ran (constructed but not started): release
            # the listener and selector here instead.
            self._dead = True
            self._teardown()

    def open_connection_count(self) -> int:
        """How many client connections the loop currently holds."""
        return len(self._connections)

    # -- loop internals ------------------------------------------------------
    def _quiescent(self) -> bool:
        """True when nothing is in flight and every out-buffer is flushed."""
        for conn in self._connections.values():
            if conn.awaiting_response or conn.outbuf or conn.pending:
                return False
        with self._completion_lock:
            if self._completions:
                return False
        return True

    def _listener_closed(self) -> bool:
        return self._listener.fileno() < 0

    def _close_listener(self) -> None:
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def _teardown(self) -> None:
        """Close every socket and the selector (end of :meth:`run`)."""
        for conn in list(self._connections.values()):
            self._close_conn(conn)
        self._close_listener()
        try:
            self._selector.unregister(self._wake_recv)
        except (KeyError, ValueError):
            pass
        self._wake_recv.close()
        self._wake_send.close()
        self._selector.close()

    def _wakeup(self) -> None:
        """Make a blocked ``select`` return now (self-pipe trick)."""
        try:
            self._wake_send.send(b"\x00")
        except (OSError, ValueError):
            pass  # loop already tearing down

    def _drain_wakeup(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _accept(self) -> None:
        """Accept every connection currently queued on the listener."""
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed under us (drain) or EMFILE burst
            if self._draining:
                sock.close()
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # not TCP (tests may use socketpairs)
            conn = _Connection(sock, addr)
            self._connections[sock] = conn
            self._selector.register(sock, conn.mask, None)

    def _set_mask(self, conn: _Connection, mask: int) -> None:
        if conn.closed or conn.mask == mask:
            return
        conn.mask = mask
        try:
            self._selector.modify(conn.sock, mask, None)
        except (KeyError, ValueError, OSError):
            pass

    def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._connections.pop(conn.sock, None)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- reading + parsing ---------------------------------------------------
    def _on_readable(self, conn: _Connection) -> None:
        """Drain the socket into ``inbuf`` and advance the parser."""
        while True:
            try:
                chunk = conn.sock.recv(_RECV_BYTES)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if not chunk:
                # EOF.  A half-sent request can never complete; respond
                # to nothing, flush what is queued, close.
                if conn.outbuf:
                    conn.close_after_flush = True
                    self._set_mask(conn, selectors.EVENT_WRITE)
                elif not conn.awaiting_response:
                    self._close_conn(conn)
                else:
                    conn.close_after_flush = True
                return
            conn.inbuf += chunk
            conn.last_activity = time.monotonic()
            # Start the request clock at the first byte, not the first
            # complete request line — a slow loris trickling a partial
            # line must burn the request budget, not the idle budget.
            if conn.request_started is None and not conn.awaiting_response:
                conn.request_started = conn.last_activity
            if len(chunk) < _RECV_BYTES:
                break
        self._advance(conn)
        self._maybe_pause_reading(conn)

    def _maybe_pause_reading(self, conn: _Connection) -> None:
        """Bound pipelined buffering while a response is pending."""
        if conn.closed:
            return
        limit = self.max_body_bytes + _PIPELINE_SLACK_BYTES
        if (conn.awaiting_response or conn.pending) and len(conn.inbuf) > limit:
            if not conn.reading_paused:
                conn.reading_paused = True
                self._set_mask(conn, conn.mask & ~selectors.EVENT_READ)
        elif conn.reading_paused:
            conn.reading_paused = False
            self._set_mask(conn, conn.mask | selectors.EVENT_READ)

    def _advance(self, conn: _Connection) -> None:
        """Parse as many complete requests out of ``inbuf`` as possible.

        Parsing continues while a response is in flight — complete
        successors queue in ``conn.pending`` (up to the pipelining
        budget) so responses still go out in request order.  Stops when
        the buffered bytes no longer contain a complete unit, or for
        good once a reject is queued (a reject always ends the
        connection, so later bytes are irrelevant).
        """
        while not conn.closed and not conn.close_after_flush:
            if conn.pending and conn.pending[-1][0] == "reject":
                return
            if conn.phase == _PH_REQUEST_LINE:
                line = self._take_line(conn)
                if line is None:
                    if not conn.inbuf:
                        # Everything buffered was stray CRLF: the read
                        # handler's first-byte stamp must not leave an
                        # empty, innocent keep-alive on the 408 clock.
                        conn.request_started = None
                    return
                stripped = line.strip()
                if not stripped:
                    continue  # tolerate stray CRLF between pipelined requests
                conn.request_started = time.monotonic()
                words = stripped.split()
                if len(words) != 3 or not words[2].startswith(b"HTTP/"):
                    self._close_conn(conn)  # not HTTP; don't guess
                    return
                conn.method = words[0].decode("latin-1")
                conn.path = words[1].decode("latin-1")
                conn.version = words[2].decode("latin-1")
                conn.headers = {}
                conn.header_lines = 0
                conn.phase = _PH_HEADERS
            elif conn.phase == _PH_HEADERS:
                line = self._take_line(conn)
                if line is None:
                    return
                conn.header_lines += 1
                if conn.header_lines > _MAX_HEADER_LINES:
                    self._close_conn(conn)  # hostile header stream
                    return
                if line in (b"\r\n", b"\n"):
                    if not self._finish_headers(conn):
                        return
                else:
                    key, _, value = line.partition(b":")
                    conn.headers[key.decode("latin-1").strip().lower()] = (
                        value.decode("latin-1").strip()
                    )
            else:  # _PH_BODY
                if len(conn.inbuf) < conn.body_length:
                    return  # body still arriving
                body = bytes(conn.inbuf[: conn.body_length])
                del conn.inbuf[: conn.body_length]
                self._dispatch(conn, body)

    def _take_line(self, conn: _Connection) -> Optional[bytes]:
        """Pop one ``\\n``-terminated line from ``inbuf`` (None: incomplete).

        Closes the connection outright when a line exceeds the 64 KiB
        bound — an over-long request line or header is hostile input, not
        something to buffer.
        """
        idx = conn.inbuf.find(b"\n")
        if idx < 0:
            if len(conn.inbuf) > _MAX_LINE_BYTES:
                self._close_conn(conn)
            return None
        if idx + 1 > _MAX_LINE_BYTES:
            self._close_conn(conn)
            return None
        line = bytes(conn.inbuf[: idx + 1])
        del conn.inbuf[: idx + 1]
        return line

    def _finish_headers(self, conn: _Connection) -> bool:
        """Validate framing once the blank line arrives; start the body phase.

        Returns False when the request was answered (or the connection
        closed) here — i.e. the parse loop should stop advancing.
        """
        conn.keep_alive = not (
            conn.version == "HTTP/1.0"
            or conn.headers.get("connection", "").lower() == "close"
        )
        if "transfer-encoding" in conn.headers:
            # Content-Length framing only; refusing is honest, guessing
            # would desynchronise the connection.
            self._fail_request(
                conn, 501, {"error": "chunked transfer encoding is not supported"}
            )
            return False
        try:
            length = int(conn.headers.get("content-length", 0))
        except (TypeError, ValueError):
            # Body length unknown: the socket cannot be drained safely.
            self._fail_request(
                conn, 400, {"error": "invalid Content-Length header"}
            )
            return False
        if length < 0 or length > self.max_body_bytes:
            # Body left unread on the socket; the close discards it.
            self._fail_request(
                conn,
                400,
                {"error": f"request body must be 0..{self.max_body_bytes} bytes"},
            )
            return False
        conn.body_length = length
        if (
            conn.headers.get("expect", "").lower() == "100-continue"
            and len(conn.inbuf) < length
        ):
            # curl withholds bodies >1 KiB until the interim 100 arrives.
            if conn.awaiting_response or conn.pending:
                # Deferred: the interim line must not overtake queued
                # responses for earlier pipelined requests.
                conn.needs_continue = True
            else:
                conn.outbuf += b"HTTP/1.1 100 Continue\r\n\r\n"
                self._flush(conn)
        conn.phase = _PH_BODY
        return True

    def _fail_request(
        self, conn: _Connection, status: int, payload: Dict[str, Any]
    ) -> None:
        """Answer a framing error in request order, then close.

        With nothing in flight the error is written immediately.  While
        earlier pipelined requests are still being answered it queues
        behind them as a reject entry, so the client's response stream
        stays ordered; either way the connection closes after it.
        """
        if conn.awaiting_response or conn.pending:
            conn.pending.append(("reject", status, payload, None, None))
            return
        conn.close_after_flush = True
        self._respond_now(conn, status, payload, keep_alive=False)

    # -- dispatch + responses ------------------------------------------------
    def _dispatch(self, conn: _Connection, body: bytes) -> None:
        """Hand one complete request to the service, or queue it in order.

        With a response already in flight the request joins
        ``conn.pending`` — unless the connection has hit its pipelining
        budget, in which case a 429 reject entry is queued instead and
        the connection will close after answering it.
        """
        conn.phase = _PH_REQUEST_LINE
        conn.request_started = None
        conn.needs_continue = False  # the withheld body arrived after all
        request = ParsedRequest(
            method=conn.method, path=conn.path, headers=conn.headers, body=body
        )
        if conn.awaiting_response or conn.pending:
            if len(conn.pending) >= self.max_pipelined_requests:
                conn.pending.append(
                    (
                        "reject",
                        429,
                        {"error": "too many pipelined requests on one connection"},
                        {"Retry-After": str(DEFAULT_RETRY_AFTER_S)},
                        "connection_budget",
                    )
                )
            else:
                conn.pending.append(("request", request, conn.keep_alive))
            return
        self._dispatch_request(conn, request, conn.keep_alive)

    def _dispatch_request(
        self, conn: _Connection, request: ParsedRequest, keep_alive: bool
    ) -> None:
        """Put one request in flight: mark the connection, call the service."""
        conn.awaiting_response = True
        conn.inflight_keep_alive = keep_alive
        respond = self._make_responder(conn)
        try:
            self._service.dispatch(request, respond)
        except Exception as exc:  # never let a routing bug kill the loop
            logger.exception(
                "dispatch failed for %s %s", request.method, request.path
            )
            respond(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _make_responder(self, conn: _Connection) -> Any:
        """A once-only, any-thread ``respond(status, payload)`` callback.

        Called on the loop thread it writes directly; called from a batch
        worker it posts a completion and wakes the loop.  Duplicate calls
        (a service bug) are dropped with a log line rather than
        corrupting the connection's response ordering.
        """
        fired = threading.Event()

        def respond(
            status: int,
            payload: Any,
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            """Queue the response for ``conn`` (thread-safe, once only)."""
            if fired.is_set():
                logger.error("duplicate respond() for %s %s", conn.method, conn.path)
                return
            fired.set()
            if threading.get_ident() == self._loop_ident:
                self._apply_response(conn, status, payload, headers)
                return
            if self._dead:
                return  # loop already gone; the socket is closed anyway
            with self._completion_lock:
                self._completions.append((conn, status, payload, headers))
            self._wakeup()

        return respond

    def _apply_completions(self) -> None:
        """Drain worker-thread completions into connection out-buffers."""
        while True:
            with self._completion_lock:
                if not self._completions:
                    return
                conn, status, payload, headers = self._completions.popleft()
            self._apply_response(conn, status, payload, headers)

    def _apply_response(
        self,
        conn: _Connection,
        status: int,
        payload: Any,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Serialise + queue one response, then pump the pipelined backlog."""
        if conn.closed:
            return
        conn.awaiting_response = False
        keep = conn.inflight_keep_alive and not self._draining
        if not keep:
            # Before the write: an optimistic flush may drain the whole
            # response right now, and the close must ride that flush.
            conn.close_after_flush = True
        self._respond_now(
            conn, status, payload, keep_alive=keep, extra_headers=extra_headers
        )
        if conn.closed or conn.close_after_flush:
            return
        self._pump_pending(conn)
        if not conn.closed and not conn.close_after_flush:
            # Pipelined requests may already be buffered; parse on.
            self._advance(conn)
            self._maybe_pause_reading(conn)

    def _pump_pending(self, conn: _Connection) -> None:
        """After a response, start the next queued pipelined unit (if any).

        A queued request goes in flight with the keep-alive it was
        parsed with; a queued reject is written (counting its shed
        reason) and closes the connection.  With the queue empty, a
        deferred ``100 Continue`` owed to the client is finally written.
        """
        if conn.pending:
            entry = conn.pending.popleft()
            if entry[0] == "request":
                _, request, keep_alive = entry
                self._dispatch_request(conn, request, keep_alive)
            else:
                _, status, payload, extra_headers, reason = entry
                if reason is not None:
                    self._count_reject(reason)
                conn.close_after_flush = True
                self._respond_now(
                    conn,
                    status,
                    payload,
                    keep_alive=False,
                    extra_headers=extra_headers,
                )
            return
        if (
            conn.needs_continue
            and not conn.awaiting_response
            and conn.phase == _PH_BODY
        ):
            # Every earlier response is out; the client may now send the
            # body it withheld behind Expect: 100-continue.
            conn.needs_continue = False
            conn.outbuf += b"HTTP/1.1 100 Continue\r\n\r\n"
            self._flush(conn)

    def _respond_now(
        self,
        conn: _Connection,
        status: int,
        payload: Any,
        keep_alive: bool = True,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Append one fully-framed response to the out-buffer.

        ``payload`` is a JSON-serialisable dict (the normal case) or a
        :class:`RawResponse` carrying pre-encoded bytes and their content
        type.  ``extra_headers`` adds verbatim header lines (the 429
        path's ``Retry-After``).
        """
        if isinstance(payload, RawResponse):
            body = payload.body
            content_type = payload.content_type
        else:
            body = (
                json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            ).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        extra = ""
        if extra_headers:
            extra = "".join(f"{k}: {v}\r\n" for k, v in extra_headers.items())
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1")
        conn.outbuf += head + body
        self._flush(conn)

    # -- writing -------------------------------------------------------------
    def _flush(self, conn: _Connection) -> None:
        """Write as much of the out-buffer as the socket takes right now."""
        if conn.closed:
            return
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if sent <= 0:
                break
            del conn.outbuf[:sent]
        if len(conn.outbuf) > self.max_outbuf_bytes:
            # The peer stopped reading while responses piled up; holding
            # the bytes would let one slow client pin server memory.
            self._count_reject("connection_budget")
            logger.warning(
                "closing %s: out-buffer over budget (%d > %d bytes)",
                conn.addr,
                len(conn.outbuf),
                self.max_outbuf_bytes,
            )
            self._close_conn(conn)
            return
        if conn.outbuf:
            self._set_mask(conn, conn.mask | selectors.EVENT_WRITE)
        else:
            self._set_mask(conn, conn.mask & ~selectors.EVENT_WRITE)
            if conn.close_after_flush:
                self._close_conn(conn)

    def _on_writable(self, conn: _Connection) -> None:
        self._flush(conn)

    def _count_reject(self, reason: str) -> None:
        """Report one shed unit of work to the observer hook, safely."""
        if self._on_reject is None:
            return
        try:
            self._on_reject(reason)
        except Exception:  # a metrics hook failure must never hurt the loop
            logger.exception("on_reject hook failed for reason %r", reason)

    # -- timeouts ------------------------------------------------------------
    def _sweep_timeouts(self) -> None:
        """Reclaim slow-loris and idle connections (in-flight ones exempt)."""
        now = time.monotonic()
        for conn in list(self._connections.values()):
            if conn.closed or conn.awaiting_response or conn.outbuf:
                continue
            if (
                conn.request_started is not None
                and now - conn.request_started > self.request_timeout_s
            ):
                # Slow loris: a partial request older than the budget.
                conn.close_after_flush = True
                self._respond_now(
                    conn, 408, {"error": "request timeout"}, keep_alive=False
                )
            elif (
                conn.request_started is None
                and now - conn.last_activity > self.idle_timeout_s
            ):
                self._close_conn(conn)
