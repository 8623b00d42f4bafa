"""HTTP-like request/response layer over the message network.

IFTTT's partner-service protocol is plain HTTPS POST against well-known
URLs (``/ifttt/v1/triggers/<slug>``, ``/ifttt/v1/actions/<slug>``).  This
module models exactly that: an :class:`HttpNode` registers route handlers
and issues requests; responses are matched to requests by id, and pending
requests time out if the peer or path is unavailable.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.net.address import Address
from repro.net.message import Message
from repro.net.node import Node

_request_ids = itertools.count(1)

HTTP_PROTOCOL = "http"
DEFAULT_TIMEOUT = 30.0
#: How many timed-out request ids are remembered so that their responses,
#: should they straggle in later, are counted as late rather than lost.
TIMED_OUT_MEMORY = 4096


class HttpError(RuntimeError):
    """Raised by handlers to produce a non-200 response."""

    def __init__(self, status: int, reason: str = "") -> None:
        super().__init__(f"HTTP {status}: {reason}")
        self.status = status
        self.reason = reason


@dataclass
class HttpRequest:
    """An in-flight HTTP request."""

    method: str
    path: str
    body: Any = None
    headers: Dict[str, Any] = field(default_factory=dict)
    request_id: int = field(default_factory=lambda: next(_request_ids))
    src: Optional[Address] = None

    def header(self, name: str, default: Any = None) -> Any:
        """Case-sensitive header lookup."""
        return self.headers.get(name, default)


@dataclass
class HttpResponse:
    """The response to an :class:`HttpRequest`."""

    status: int
    body: Any = None
    headers: Dict[str, Any] = field(default_factory=dict)
    request_id: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    @property
    def timed_out(self) -> bool:
        """True when the client gave up waiting (synthetic status 599)."""
        return self.status == 599


ResponseCallback = Callable[[HttpResponse], None]
RouteHandler = Callable[[HttpRequest], Any]


class HttpNode(Node):
    """A node that speaks the HTTP-like protocol.

    Server side: :meth:`add_route` binds ``(method, path-prefix)`` to a
    handler.  Handlers may return an :class:`HttpResponse`, a
    ``(status, body)`` tuple, or a bare body (=> 200), or raise
    :class:`HttpError`.  An optional per-node ``service_time`` adds request
    processing delay before the response is sent.

    Client side: :meth:`request` sends a request and invokes the callback
    with the response (or a synthetic 599 on timeout).
    """

    def __init__(self, address: Address, service_time: float = 0.0) -> None:
        super().__init__(address)
        self.service_time = service_time
        self._routes: Dict[Tuple[str, str], RouteHandler] = {}
        self._pending: Dict[int, Tuple[ResponseCallback, Any, float]] = {}
        self._timed_out_ids: Set[int] = set()
        self._timed_out_order: Deque[int] = deque()
        self.requests_served = 0
        self.requests_issued = 0
        self.timeouts = 0
        self.late_responses = 0
        self.connection_refused = 0
        # Per-message metric handles, cached like Network._deliver's: each
        # is resolved on first use (a node registers only the instruments
        # it updates) and all are dropped when Node.metrics changes.
        self._bind_node_metrics(None)

    # -- server side ---------------------------------------------------------

    def add_route(self, method: str, path_prefix: str, handler: RouteHandler) -> None:
        """Bind a handler to all paths starting with ``path_prefix``."""
        key = (method.upper(), path_prefix)
        if key in self._routes:
            raise ValueError(f"route {method} {path_prefix} already registered on {self.address}")
        self._routes[key] = handler

    def remove_route(self, method: str, path_prefix: str) -> None:
        """Unbind a previously added route."""
        self._routes.pop((method.upper(), path_prefix), None)

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        handler = self._match_route(request.method, request.path)
        if handler is None:
            return HttpResponse(status=404, body={"error": "not found", "path": request.path})
        try:
            result = handler(request)
        except HttpError as exc:
            return HttpResponse(status=exc.status, body={"error": exc.reason})
        if isinstance(result, HttpResponse):
            return result
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], int):
            return HttpResponse(status=result[0], body=result[1])
        return HttpResponse(status=200, body=result)

    def _match_route(self, method: str, path: str) -> Optional[RouteHandler]:
        best: Optional[RouteHandler] = None
        best_len = -1
        for (m, prefix), handler in self._routes.items():
            if m == method.upper() and path.startswith(prefix) and len(prefix) > best_len:
                best = handler
                best_len = len(prefix)
        return best

    def _bind_node_metrics(self, metrics) -> None:
        """Drop the cached metric handles and key the cache to ``metrics``."""
        self._m_node_registry = metrics
        self._m_issued = self._m_served = self._m_rtt = None
        self._m_responses: Dict[int, Any] = {}

    # -- client side ---------------------------------------------------------

    def request(
        self,
        dst: Address,
        method: str,
        path: str,
        body: Any = None,
        on_response: Optional[ResponseCallback] = None,
        timeout: float = DEFAULT_TIMEOUT,
        headers: Optional[Dict[str, Any]] = None,
        size_bytes: int = 512,
    ) -> HttpRequest:
        """Issue a request; the callback fires with the response or a 599."""
        req = HttpRequest(
            method=method.upper(),
            path=path,
            body=body,
            headers=dict(headers or {}),
            src=self.address,
        )
        self.requests_issued += 1
        metrics = self.metrics
        if metrics is not None:
            if metrics is not self._m_node_registry:
                self._bind_node_metrics(metrics)
            counter = self._m_issued
            if counter is None:
                counter = self._m_issued = metrics.counter(
                    "http.requests_issued", node=self.address.host
                )
            counter.inc()
        sent_at = self.now
        timeout_event = None
        if on_response is not None:
            # A constant label: the request id is already the event's
            # argument, and formatting one string per request cost a
            # live string per in-flight poll.
            timeout_event = self.sim.schedule(
                timeout, self._on_timeout, req.request_id, label="http-timeout"
            )
            self._pending[req.request_id] = (on_response, timeout_event, sent_at)
        self.send(dst, HTTP_PROTOCOL, {"type": "request", "request": req}, size_bytes=size_bytes)
        return req

    def get(self, dst: Address, path: str, **kwargs: Any) -> HttpRequest:
        """Shorthand for ``request(dst, "GET", path, ...)``."""
        return self.request(dst, "GET", path, **kwargs)

    def post(self, dst: Address, path: str, body: Any = None, **kwargs: Any) -> HttpRequest:
        """Shorthand for ``request(dst, "POST", path, body, ...)``."""
        return self.request(dst, "POST", path, body=body, **kwargs)

    def _on_timeout(self, request_id: int) -> None:
        entry = self._pending.pop(request_id, None)
        if entry is None:
            return
        callback, _, sent_at = entry
        self.timeouts += 1
        self._remember_timed_out(request_id)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("http.timeouts", node=self.address.host).inc()
        callback(HttpResponse(status=599, body=None, request_id=request_id, elapsed=self.now - sent_at))

    def _remember_timed_out(self, request_id: int) -> None:
        """Track a timed-out id (bounded) so late responses are countable."""
        self._timed_out_ids.add(request_id)
        self._timed_out_order.append(request_id)
        while len(self._timed_out_order) > TIMED_OUT_MEMORY:
            self._timed_out_ids.discard(self._timed_out_order.popleft())

    # -- synchronous transmit failures ---------------------------------------

    def on_transmit_failed(self, message: Message, reason: str) -> None:
        """Turn an unroutable outgoing request into an immediate 503.

        Without this, a request to an unreachable destination was
        indistinguishable from a slow peer: the caller waited out the
        full timeout.  The network reports the missing route
        synchronously, so we answer with a synthetic
        ``503 connection refused`` right away.  The callback is deferred
        by one zero-delay event so callers never observe a response
        before :meth:`request` has returned.
        """
        if message.protocol != HTTP_PROTOCOL:
            return
        payload = message.payload
        if not isinstance(payload, dict) or payload.get("type") != "request":
            return
        self.connection_refused += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("net.connection_refused", node=self.address.host).inc()
        request: HttpRequest = payload["request"]
        entry = self._pending.pop(request.request_id, None)
        if entry is None:
            return  # fire-and-forget: nothing awaits an answer
        callback, timeout_event, sent_at = entry
        if timeout_event is not None:
            timeout_event.cancel()
        response = HttpResponse(
            status=503,
            body={"error": "connection refused", "reason": reason},
            request_id=request.request_id,
        )
        self.sim.schedule(
            0.0, self._deliver_refusal, callback, response, sent_at,
            label=f"http-refused#{request.request_id}",
        )

    def _deliver_refusal(
        self, callback: ResponseCallback, response: HttpResponse, sent_at: float
    ) -> None:
        response.elapsed = self.now - sent_at
        callback(response)

    # -- wire handling ---------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if message.protocol != HTTP_PROTOCOL:
            self.on_non_http_message(message)
            return
        payload = message.payload
        metrics = self.metrics
        if payload["type"] == "request":
            request: HttpRequest = payload["request"]
            self.requests_served += 1
            response = self._dispatch(request)
            response.request_id = request.request_id
            if metrics is not None:
                if metrics is not self._m_node_registry:
                    self._bind_node_metrics(metrics)
                served = self._m_served
                if served is None:
                    served = self._m_served = metrics.counter(
                        "http.requests_served", node=self.address.host
                    )
                served.inc()
                status = response.status
                responses = self._m_responses.get(status)
                if responses is None:
                    responses = self._m_responses[status] = metrics.counter(
                        "http.responses", status_class=f"{status // 100}xx"
                    )
                responses.inc()
            def reply() -> None:
                self.send(
                    message.src,
                    HTTP_PROTOCOL,
                    {"type": "response", "response": response},
                    size_bytes=max(128, message.size_bytes // 2),
                )
            if self.service_time > 0:
                self.sim.schedule(self.service_time, reply, label="http-service")
            else:
                reply()
        elif payload["type"] == "response":
            response: HttpResponse = payload["response"]
            entry = self._pending.pop(response.request_id, None)
            if entry is None:
                # Late response after the timeout already fired, or a
                # fire-and-forget request.  Late ones are counted — a
                # silent mismatch between issued timeouts and stragglers
                # hides slow-but-alive services; nothing is cancelled or
                # called back twice.
                if response.request_id in self._timed_out_ids:
                    self._timed_out_ids.discard(response.request_id)
                    self.late_responses += 1
                    if metrics is not None:
                        metrics.counter(
                            "http.late_responses", node=self.address.host
                        ).inc()
                return
            callback, timeout_event, sent_at = entry
            if timeout_event is not None:
                timeout_event.cancel()
            response.elapsed = self.now - sent_at
            if metrics is not None:
                if metrics is not self._m_node_registry:
                    self._bind_node_metrics(metrics)
                rtt = self._m_rtt
                if rtt is None:
                    rtt = self._m_rtt = metrics.histogram(
                        "http.rtt_seconds", node=self.address.host
                    )
                rtt.observe(response.elapsed)
            callback(response)
        else:
            raise ValueError(f"unknown http payload type {payload['type']!r}")

    def on_non_http_message(self, message: Message) -> None:
        """Hook for subclasses that also speak device protocols."""
