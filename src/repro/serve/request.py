"""Wire-level request model of the threshold-query service.

A request names one simulated testbed -- ``n`` participant nodes of
which ``x`` are positive -- and asks ``x >= threshold`` for ``runs``
Monte-Carlo trials under a chosen algorithm and collision model.  The
randomness contract matches :func:`repro.api.threshold_query_batch`
exactly: run ``r`` of a request is a deterministic function of
``(seed, r)`` alone, which is what lets the scheduler coalesce requests
from different clients into one vectorized round without changing any
answer (see :mod:`repro.serve.executor`).

Validation happens here, at the edge: :meth:`QueryRequest.from_wire`
turns an untrusted decoded-JSON mapping into a checked request or raises
:class:`RequestError`, so everything behind the front end handles only
well-formed work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.api import REGISTRY

#: Hard cap on ``runs`` per request: a single request may not monopolise
#: the scheduler (batch sizing is the scheduler's job, not the client's).
MAX_RUNS_PER_REQUEST = 10_000

#: Hard cap on the simulated population size.
MAX_POPULATION = 1_000_000

#: ``reliable=`` shortcuts the service accepts (server-side degradation
#: through :class:`repro.core.reliable.ReliableThreshold`).
RELIABLE_SHORTCUTS = ("krepeat", "chernoff")

#: Collision models the service accepts.
COLLISION_MODELS = ("1+", "2+")


class RequestError(ValueError):
    """A malformed or out-of-bounds request (400-style rejection).

    Attributes:
        code: Stable machine-readable reason, e.g. ``"bad_field"``.
    """

    def __init__(self, message: str, *, code: str = "bad_field") -> None:
        super().__init__(message)
        self.code = code


def _require_int(
    obj: Mapping[str, Any], key: str, default: Optional[int] = None
) -> int:
    """Fetch an integer field (bools are rejected: JSON ``true`` is not 1)."""
    value = obj.get(key, default)
    if value is None:
        raise RequestError(f"missing required field {key!r}", code="missing_field")
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _require_str(obj: Mapping[str, Any], key: str, default: str) -> str:
    """Fetch a string field with a default."""
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise RequestError(f"field {key!r} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class QueryRequest:
    """One validated threshold query (see the module docstring).

    Attributes:
        id: Client-chosen correlation id, echoed on the response.
        tenant: Rate-limiting principal (API-key stand-in).
        n: Simulated population size.
        x: True positive count of every trial's population.
        threshold: The queried threshold ``t``.
        runs: Number of Monte-Carlo trials to answer.
        algorithm: Registry name (see :data:`repro.api.REGISTRY`).
        collision_model: ``"1+"`` or ``"2+"``.
        seed: Root seed (``>= 0``) of the request's private spawn tree.
        reliable: Optional reliability shortcut (``"krepeat"`` /
            ``"chernoff"``); forces the scalar path.
        deadline_ms: Optional end-to-end latency budget in milliseconds,
            measured from admission.  ``None`` means no deadline.  A
            non-positive budget is *valid on the wire* but already
            expired: admission rejects it with a 504-style frame
            (``serve.rejected.deadline``) instead of a 400, so clients
            forwarding a nearly-exhausted budget get deadline semantics,
            not a validation error.
    """

    id: str
    tenant: str
    n: int
    x: int
    threshold: int
    runs: int = 1
    algorithm: str = "2tbins"
    collision_model: str = "1+"
    seed: int = 0
    reliable: Optional[str] = None
    deadline_ms: Optional[int] = None

    @property
    def coalesce_key(self) -> Tuple[int, int, str, str, Optional[str]]:
        """Everything that must match for two requests to share a batch.

        Requests agreeing on this key run the same query program:
        population size, threshold, algorithm and model family.  x is
        not part of it -- as in the paper, the initiator never knows x,
        and a run's x enters only its population draw -- and each
        request owns a private ``seed``-rooted spawn tree, so coalescing
        them into one vectorized round changes no answer.
        """
        return (
            self.n,
            self.threshold,
            self.algorithm,
            self.collision_model,
            self.reliable,
        )

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "QueryRequest":
        """Validate one decoded-JSON mapping into a request.

        Raises:
            RequestError: On any missing, mistyped or out-of-bounds
                field; the message names the offending field and the
                ``code`` attribute gives a stable reason.
        """
        if not isinstance(obj, Mapping):
            raise RequestError(
                f"request must be a JSON object, got {type(obj).__name__}",
                code="bad_request",
            )
        rid = _require_str(obj, "id", "")
        if not rid:
            raise RequestError("missing required field 'id'", code="missing_field")
        tenant = _require_str(obj, "tenant", "anonymous")
        n = _require_int(obj, "n")
        x = _require_int(obj, "x")
        threshold = _require_int(obj, "threshold")
        runs = _require_int(obj, "runs", 1)
        seed = _require_int(obj, "seed", 0)
        algorithm = _require_str(obj, "algorithm", "2tbins").lower()
        collision_model = _require_str(obj, "collision_model", "1+")
        reliable_raw = obj.get("reliable", None)
        if reliable_raw is not None and not isinstance(reliable_raw, str):
            raise RequestError(
                f"field 'reliable' must be a string or null, got {reliable_raw!r}"
            )
        reliable = reliable_raw.lower() if reliable_raw else None
        deadline_raw = obj.get("deadline_ms", None)
        if deadline_raw is not None and (
            isinstance(deadline_raw, bool) or not isinstance(deadline_raw, int)
        ):
            raise RequestError(
                f"field 'deadline_ms' must be an integer or null, "
                f"got {deadline_raw!r}"
            )

        if not 1 <= n <= MAX_POPULATION:
            raise RequestError(f"n must be in [1, {MAX_POPULATION}], got {n}")
        if not 0 <= x <= n:
            raise RequestError(f"x must be in [0, n={n}], got {x}")
        if threshold < 0:
            raise RequestError(f"threshold must be >= 0, got {threshold}")
        if seed < 0:
            raise RequestError(f"seed must be >= 0, got {seed}")
        if not 1 <= runs <= MAX_RUNS_PER_REQUEST:
            raise RequestError(
                f"runs must be in [1, {MAX_RUNS_PER_REQUEST}], got {runs}"
            )
        spec = REGISTRY.get(algorithm)
        if spec is None or not spec.decider or spec.needs_x:
            valid = sorted(
                key
                for key, s in REGISTRY.items()
                if s.decider and not s.needs_x
            )
            raise RequestError(
                f"unknown or unservable algorithm {algorithm!r}; valid: {valid}"
            )
        if collision_model not in COLLISION_MODELS:
            raise RequestError(
                f"collision_model must be one of {list(COLLISION_MODELS)}, "
                f"got {collision_model!r}"
            )
        if reliable is not None and reliable not in RELIABLE_SHORTCUTS:
            raise RequestError(
                f"reliable must be one of {list(RELIABLE_SHORTCUTS)} or null, "
                f"got {reliable!r}"
            )
        return cls(
            id=rid,
            tenant=tenant,
            n=n,
            x=x,
            threshold=threshold,
            runs=runs,
            algorithm=algorithm,
            collision_model=collision_model,
            seed=seed,
            reliable=reliable,
            deadline_ms=deadline_raw,
        )
