"""Stateless, resource-oriented REST engine.

The paper's architectural core: "RESTful web services remain completely
stateless with all data required to transition between different states
being included in the service request".  Consequences the benches verify:

* any replica of a service can answer any request (enabling the LB to
  route "to any available hosted service regardless of previous
  interactions"),
* killing a server loses no session state,
* the per-request server cost is flat — no transaction-state lookkeeping.

A :class:`RestApi` is a route table shared by every replica; a
:class:`RestServer` binds the api to one hosting instance, charging each
request's processing cost as a job on that instance (so CPU utilisation
and queueing reflect request load, which the LB observes).

The route table is **versioned**: every registered pattern is mounted
canonically under ``/v1`` and, for compatibility, at its original
unversioned path as a *deprecation shim* — same handler, same cost, but
responses carry a ``Deprecation`` header and a ``Link`` to the successor
route.  ``GET /v1`` answers with a machine-readable description of the
table (method, path, cost, safety, cacheability) — the contract a typed
client or a substitutable execution node programs against.  All error
bodies are RFC-7807-style problem documents (:mod:`.envelope`) whose
``retryable`` field feeds the client-side retry decision.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.instance import Instance, Job
from repro.obs.context import extract_context
from repro.obs.hub import obs_of
from repro.obs.tracer import Span
from repro.services.envelope import problem
from repro.services.idempotency import request_fingerprint
from repro.services.transport import HttpRequest, HttpResponse, Network
from repro.sim import Signal, Simulator
from repro.tenancy.context import TENANT_HEADER, valid_tenant_id

#: Default CPU cost (reference-core seconds) of a lightweight handler.
DEFAULT_HANDLER_COST = 0.005

#: The current (and only) API version routes are mounted under.
API_VERSION = "v1"

#: Sentinel: the idempotency admission already answered the request.
_REQUEST_ANSWERED = object()


class HttpError(Exception):
    """Raise inside a handler to produce a non-200 response.

    ``retryable`` flows into the problem-document body so clients know
    whether backing off and replaying the identical request can help;
    ``None`` defers to the status-class default.
    """

    def __init__(self, status: int, message: str,
                 retryable: Optional[bool] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retryable = retryable

    def to_problem(self) -> Dict[str, Any]:
        """The problem document for this error."""
        return problem(self.status, self.message, retryable=self.retryable)


@dataclass
class Route:
    """One method+path-pattern binding.

    Patterns use ``{name}`` placeholders: ``/datasets/{dataset_id}``.
    ``cost`` is the CPU charge of running the handler; handlers that do
    real modelling work instead return a :class:`RestDeferred` carrying
    their own job.  ``safe`` declares the handler side-effect-free /
    replayable (defaults to ``True`` for GET); ``cacheable`` declares
    that responses carry an ``ETag`` worth revalidating.  Shim routes
    (``deprecated=True``) answer with a ``Deprecation`` header naming
    their ``successor``.
    """

    method: str
    pattern: str
    handler: Callable[[HttpRequest, Dict[str, str]], Any]
    cost: float = DEFAULT_HANDLER_COST
    safe: Optional[bool] = None
    cacheable: bool = False
    deprecated: bool = False
    successor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.safe is None:
            self.safe = self.method == "GET"
        regex = re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", self.pattern)
        self._compiled = re.compile(f"^{regex}$")

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        """Path params when the route matches, else ``None``."""
        if method != self.method:
            return None
        found = self._compiled.match(path)
        if found is None:
            return None
        return found.groupdict()


@dataclass
class RestDeferred:
    """A handler result that needs heavy compute.

    The server submits ``job`` to its instance and answers with
    ``render(job_outcome)`` once it completes — this is how WPS Execute
    turns a model run into instance load.
    """

    job: Job
    render: Callable[[Any], Tuple[int, Any]]


@dataclass
class RestCacheable:
    """A handler result carrying a revalidation token.

    The server compares ``etag`` against the request's ``If-None-Match``
    header: on a match it answers ``304 Not Modified`` with no body —
    the widget polling a dataset pays header bytes, not payload bytes —
    otherwise the full ``status``/``body`` goes out, stamped with an
    ``ETag`` header the client replays on its next poll.
    """

    body: Any
    etag: str
    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class RestBackground:
    """A handler result that answers now and keeps computing.

    The server responds immediately with ``status``/``body`` and submits
    ``job`` in the background (asynchronous WPS Execute: the job's
    ``compute`` records its own completion in shared storage).
    """

    job: Job
    status: int
    body: Any


class RestApi:
    """A versioned route table; stateless by construction.

    Registering ``GET /datasets`` mounts the canonical route at
    ``/v1/datasets`` *and* an unversioned deprecation shim at
    ``/datasets``; ``GET /v1`` describes the canonical table.
    """

    def __init__(self, name: str):
        self.name = name
        self._routes: List[Route] = []
        self._canonical: List[Route] = []
        #: Shared :class:`~repro.services.idempotency.IdempotencyIndex`;
        #: when set, mutating requests carrying an ``Idempotency-Key``
        #: header execute exactly once across every replica of this api.
        self.idempotency: Optional[Any] = None
        #: Optional admission guard: a callable taking the request and
        #: returning an :class:`HttpResponse` to answer with instead of
        #: serving, or ``None`` to admit.  Runs after routing, before
        #: any handler work — the geo layer installs one that sheds
        #: ``/v1`` traffic with a problem-document ``503 Retry-After``
        #: while the serving region is degraded and spillover saturated.
        self.guard: Optional[Callable[[HttpRequest],
                                      Optional[HttpResponse]]] = None
        #: Optional :class:`~repro.tenancy.registry.TenantRegistry`;
        #: when set, ``Tenant`` headers are validated at the boundary
        #: (400 malformed, 403 unknown-in-strict-mode) and responses,
        #: spans and RED metrics carry the tenant label.
        self.tenants: Optional[Any] = None
        #: Optional :class:`~repro.tenancy.ratelimit.RateLimiter`;
        #: when set, each request spends a token from its tenant's
        #: bucket and exhaustion answers 429 with ``Retry-After`` and
        #: ``X-RateLimit-*`` headers before any handler work.
        self.limiter: Optional[Any] = None
        #: When True (and a registry is installed) requests without a
        #: ``Tenant`` header are refused with 401 instead of running as
        #: the anonymous default principal.
        self.require_tenant: bool = False
        describe = Route("GET", f"/{API_VERSION}", self._describe_api)
        self._routes.append(describe)
        self._canonical.append(describe)

    def route(self, method: str, pattern: str,
              handler: Callable[[HttpRequest, Dict[str, str]], Any],
              cost: float = DEFAULT_HANDLER_COST,
              safe: Optional[bool] = None, cacheable: bool = False) -> None:
        """Register ``handler`` for ``method pattern`` (v1 + legacy shim)."""
        canonical = Route(method, f"/{API_VERSION}{pattern}", handler,
                          cost, safe=safe, cacheable=cacheable)
        shim = Route(method, pattern, handler, cost, safe=safe,
                     cacheable=cacheable, deprecated=True,
                     successor=canonical.pattern)
        self._routes.extend((canonical, shim))
        self._canonical.append(canonical)

    def get(self, pattern: str, handler, cost: float = DEFAULT_HANDLER_COST,
            safe: Optional[bool] = None, cacheable: bool = False) -> None:
        """Register a GET route."""
        self.route("GET", pattern, handler, cost, safe=safe,
                   cacheable=cacheable)

    def post(self, pattern: str, handler, cost: float = DEFAULT_HANDLER_COST,
             safe: Optional[bool] = None, cacheable: bool = False) -> None:
        """Register a POST route."""
        self.route("POST", pattern, handler, cost, safe=safe,
                   cacheable=cacheable)

    def resolve(self, request: HttpRequest) -> Tuple[Optional[Route], Dict[str, str]]:
        """Find the route matching ``request`` (first match wins)."""
        for route in self._routes:
            params = route.match(request.method, request.path)
            if params is not None:
                return route, params
        return None, {}

    @property
    def routes(self) -> List[Route]:
        """The registered routes, in registration order."""
        return list(self._routes)

    def describe(self) -> Dict[str, Any]:
        """The machine-readable contract of the canonical (v1) table."""
        return {
            "service": self.name,
            "version": API_VERSION,
            "routes": [
                {
                    "method": route.method,
                    "path": route.pattern,
                    "cost": route.cost,
                    "safe": bool(route.safe),
                    "cacheable": route.cacheable,
                }
                for route in self._canonical
            ],
        }

    def _describe_api(self, request: HttpRequest, params: Dict[str, str]):
        return self.describe()


class RestServer:
    """One replica of a :class:`RestApi` hosted on an instance."""

    def __init__(self, sim: Simulator, api: RestApi, instance: Instance):
        self.sim = sim
        self.api = api
        self.instance = instance
        self.requests_handled = 0

    @property
    def address(self) -> str:
        """The network address of the hosting instance."""
        return self.instance.address

    def bind(self, network: Network) -> "RestServer":
        """Register this replica on the network; returns self."""
        network.register(self.instance.address, self, self.instance)
        return self

    def handle(self, request: HttpRequest) -> Signal:
        """Process a request; returns a signal fired with the response."""
        done = self.sim.signal(f"rest.{self.api.name}.{request.path}")
        route, params = self.api.resolve(request)
        # traced requests get a server span covering route resolution
        # through response emission; the job it submits continues below it
        context = extract_context(request.headers)
        span: Optional[Span] = None
        if context is not None:
            span = obs_of(self.sim).tracer.start_span(
                f"rest {self.api.name} {request.method} "
                f"{route.pattern if route else request.path}",
                parent=context, kind="server",
                attributes={"instance": self.instance.instance_id})
        # server-side RED metrics ride a second waiter on the response
        # signal: requests/errors counters plus a duration histogram
        # whose buckets retain a trace exemplar when the request was
        # traced (a replica that never answers records nothing — the
        # client's view covers that failure mode)
        started = self.sim.now
        api_metrics = obs_of(self.sim).api_metrics.sub(self.api.name)
        tenant_id: Optional[str] = None

        def metered():
            response = yield done
            api_metrics.counter("requests").increment()
            if response.status >= 500:
                api_metrics.counter("errors").increment()
            if tenant_id is not None:
                # per-tenant RED series ride the same registry under
                # brace-labeled names (the scraper's label convention)
                api_metrics.counter(
                    f"requests{{tenant={tenant_id}}}").increment()
                if response.status >= 500:
                    api_metrics.counter(
                        f"errors{{tenant={tenant_id}}}").increment()
                if response.status == 429:
                    api_metrics.counter(
                        f"throttled{{tenant={tenant_id}}}").increment()
            exemplar = None
            if span is not None:
                exemplar = {"trace_id": span.trace_id, "t": self.sim.now,
                            "status": response.status}
            api_metrics.histogram("duration").observe(
                self.sim.now - started, exemplar=exemplar)

        self.sim.spawn(metered(), name=f"rest.meter.{self.api.name}")
        if route is None:
            self._finish(done, HttpResponse(
                status=404,
                body=problem(404, "no route",
                             f"no route {request.method} {request.path}",
                             retryable=False)),
                span)
            return done
        tenant_id, denied = self._resolve_tenant(request)
        if denied is not None:
            self._finish(done, denied, span, route)
            return done
        if span is not None and tenant_id is not None:
            span.set_attribute("tenant", tenant_id)
        if self.api.guard is not None:
            denial = self.api.guard(request)
            if denial is not None:
                self._finish(done, denial, span, route)
                return done
        ticket = self._admit_idempotent(done, request, route, span,
                                        tenant_id)
        if ticket is _REQUEST_ANSWERED:
            return done
        job = Job(cost=route.cost, name=f"rest:{request.method}:{route.pattern}",
                  compute=lambda: route.handler(request, params))
        if span is not None:
            job.trace = span.context
        outcome_signal = self.instance.submit(job)

        def waiter():
            outcome = yield outcome_signal
            self.requests_handled += 1
            if not outcome.succeeded:
                if outcome.error == "queue full":
                    self._finish(done, self._overloaded(), span, route, ticket)
                elif outcome.error and outcome.error.startswith("job raised"):
                    self._finish(done, self._error_response(outcome.error),
                                 span, route, ticket)
                elif span is not None:
                    # instance died: the response never leaves; the caller
                    # times out, and the server span records why
                    span.finish(error=outcome.error or "instance lost")
                return
            result = outcome.value
            if isinstance(result, RestDeferred):
                deferred_job = result.job
                if span is not None and deferred_job.trace is None:
                    deferred_job.trace = span.context
                deferred_signal = self.instance.submit(deferred_job)

                def deferred_waiter():
                    deferred = yield deferred_signal
                    if not deferred.succeeded:
                        if deferred.error == "queue full":
                            self._finish(done, self._overloaded(), span,
                                         route, ticket)
                        elif deferred.error and deferred.error.startswith("job raised"):
                            self._finish(done, self._error_response(
                                deferred.error), span, route, ticket)
                        elif span is not None:
                            span.finish(error=deferred.error or "instance lost")
                        return
                    status, body, headers = self._coerce(
                        result.render(deferred.value))
                    self._finish(done, HttpResponse(status=status, body=body,
                                                    headers=headers),
                                 span, route, ticket)

                self.sim.spawn(deferred_waiter(), name="rest.deferred")
            elif isinstance(result, RestCacheable):
                self._finish(done, self._revalidate(request, result), span,
                             route, ticket)
            elif isinstance(result, RestBackground):
                background_job = result.job
                if span is not None and background_job.trace is None:
                    background_job.trace = span.context
                self.instance.submit(background_job)
                self._finish(done, HttpResponse(status=result.status,
                                                body=result.body), span, route,
                             ticket)
            else:
                status, body, headers = self._coerce(result)
                self._finish(done, HttpResponse(status=status, body=body,
                                                headers=headers),
                             span, route, ticket)

        self.sim.spawn(waiter(), name=f"rest.wait.{self.api.name}")
        return done

    def _resolve_tenant(self, request: HttpRequest
                        ) -> Tuple[Optional[str], Optional[HttpResponse]]:
        """Extract-and-validate the ``Tenant`` header at the boundary.

        Returns ``(tenant_id, denial)``: a malformed header is a 400, an
        unknown tenant under a strict registry a 403, a missing header
        under ``require_tenant`` a 401, and an exhausted token bucket a
        429 carrying ``Retry-After`` + ``X-RateLimit-*``.  With neither
        registry nor limiter installed every request passes untouched —
        the pre-tenancy path.
        """
        api = self.api
        raw = request.headers.get(TENANT_HEADER)
        if raw is None:
            if api.require_tenant and api.tenants is not None:
                return None, HttpResponse(status=401, body=problem(
                    401, "tenant required",
                    f"requests to {api.name} must carry a "
                    f"{TENANT_HEADER} header",
                    retryable=False, type_slug="tenant-required"))
            if api.limiter is not None:
                # anonymous traffic shares the default principal's
                # bucket — an unlabelled flood is still a flood
                decision = api.limiter.check(None)
                if not decision.allowed:
                    return None, self._throttled(decision)
            return None, None
        if not valid_tenant_id(raw):
            return None, HttpResponse(status=400, body=problem(
                400, "invalid tenant",
                f"malformed {TENANT_HEADER} header {raw!r}",
                retryable=False, type_slug="invalid-tenant"))
        if api.tenants is not None and api.tenants.strict \
                and not api.tenants.known(raw):
            return None, HttpResponse(status=403, body=problem(
                403, "unknown tenant",
                f"tenant {raw!r} is not registered with {api.name}",
                retryable=False, type_slug="unknown-tenant"))
        if api.limiter is not None:
            decision = api.limiter.check(raw)
            if not decision.allowed:
                return raw, self._throttled(decision)
        return raw, None

    @staticmethod
    def _throttled(decision) -> HttpResponse:
        body = problem(
            429, "rate limit exceeded",
            f"tenant {decision.tenant!r} exhausted its request budget; "
            f"retry after {decision.retry_after:.0f}s",
            retryable=True, type_slug="rate-limited",
            tenant=decision.tenant)
        return HttpResponse(status=429, body=body,
                            headers=decision.headers())

    def _admit_idempotent(self, done: Signal, request: HttpRequest,
                          route: Route, span: Optional[Span],
                          tenant: Optional[str] = None):
        """Classify a keyed mutating request before any work happens.

        Returns the ``(key, epoch, tenant)`` ticket the final
        ``_finish`` must record under, ``None`` when the request is
        unkeyed, or the :data:`_REQUEST_ANSWERED` sentinel when the
        admission itself produced the response (replay, conflict,
        in-flight).  Keys are tenant-scoped: the same key from two
        tenants is two independent requests."""
        index = self.api.idempotency
        key = request.headers.get("Idempotency-Key")
        if index is None or not key or request.method == "GET":
            return None
        admission = index.admit(key, request_fingerprint(
            request.method, request.path, request.body), tenant=tenant)
        if admission.kind == "replay":
            stored = admission.response or {}
            headers = dict(stored.get("headers") or {})
            headers["Idempotency-Replayed"] = "true"
            self._finish(done, HttpResponse(
                status=stored.get("status", 200), body=stored.get("body"),
                headers=headers), span, route)
            return _REQUEST_ANSWERED
        if admission.kind == "conflict":
            self._finish(done, HttpResponse(status=422, body=problem(
                422, "idempotency key reuse",
                f"Idempotency-Key {key!r} was already used with a "
                f"different request", retryable=False)), span, route)
            return _REQUEST_ANSWERED
        if admission.kind == "pending":
            # Another attempt with this key is executing right now; a
            # retryable 409 lets the client's backoff outwait it and
            # collect the replay.
            self._finish(done, HttpResponse(status=409, body=problem(
                409, "request in flight",
                f"Idempotency-Key {key!r} has an attempt in flight",
                retryable=True)), span, route)
            return _REQUEST_ANSWERED
        return (key, admission.epoch, tenant)

    @staticmethod
    def _overloaded() -> HttpResponse:
        # a full accept queue is the canonical transient failure: the
        # same request against a quieter (or newly booted) replica works
        return HttpResponse(status=503, body=problem(
            503, "server overloaded", "accept queue full", retryable=True))

    def _error_response(self, error: str) -> HttpResponse:
        # handler raised: HttpError carries a status, anything else is a 500
        match = re.search(r"job raised: (.*)", error)
        message = match.group(1) if match else error
        return HttpResponse(status=500, body=problem(
            500, "handler error", message, retryable=False))

    @staticmethod
    def _revalidate(request: HttpRequest,
                    cacheable: RestCacheable) -> HttpResponse:
        headers = dict(cacheable.headers)
        headers["ETag"] = cacheable.etag
        if request.headers.get("If-None-Match") == cacheable.etag:
            return HttpResponse(status=304, body=None, headers=headers)
        return HttpResponse(status=cacheable.status, body=cacheable.body,
                            headers=headers)

    @staticmethod
    def _coerce(result: Any) -> Tuple[int, Any, Dict[str, str]]:
        # handlers return a body, a (status, body) pair, or a
        # (status, body, headers) triple
        if isinstance(result, tuple) and isinstance(result[0], int):
            if len(result) == 2:
                return result[0], result[1], {}
            if len(result) == 3:
                return result[0], result[1], dict(result[2] or {})
        return 200, result, {}

    def _finish(self, done: Signal, response: HttpResponse,
                span: Optional[Span] = None,
                route: Optional[Route] = None,
                ticket: Optional[Tuple[str, int, Optional[str]]] = None
                ) -> None:
        if ticket is not None and self.api.idempotency is not None:
            key, epoch, tenant = ticket
            if response.status < 500:
                # pin the outcome: every replay of this key now gets
                # exactly this response without re-running the handler
                self.api.idempotency.record(key, epoch, response.status,
                                            response.body, response.headers,
                                            tenant=tenant)
            else:
                # the handler never completed usefully (5xx); release
                # the reservation so a retry can execute fresh
                self.api.idempotency.forget(key, tenant=tenant)
        if route is not None and route.deprecated:
            # the legacy shim answers, but tells the client where to go
            response.headers.setdefault("Deprecation", "true")
            if route.successor:
                response.headers.setdefault(
                    "Link", f"<{route.successor}>; rel=\"successor-version\"")
        if span is not None and not span.finished:
            span.set_attribute("status", response.status)
            span.finish(error=None if response.status < 500
                        else f"http {response.status}")
        if not done.fired:
            done.fire(response)
