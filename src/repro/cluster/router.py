"""Load-balancing router: spreads an arrival trace over serving replicas.

The router makes its decision *at dispatch time*, the way a front-end load
balancer does: when a request arrives it must pick a replica immediately,
knowing only what it has sent where so far — never the served future.  Load
is therefore tracked with the same analytic estimates a production router
would keep (outstanding KV footprint, estimated backlog drain time), and
the replicas are simulated independently afterwards.

Policies (:data:`ROUTING_POLICIES`):

* ``"round-robin"`` — cyclic dispatch, blind to load; the baseline every
  serving system ships first;
* ``"jsq"`` — join-shortest-queue by *outstanding KV-token footprint*: the
  request joins the replica currently holding the fewest reserved KV
  tokens.  KV tokens are the serving engine's admission currency, so this
  is the queue length that actually gates latency;
* ``"least-loaded"`` — by *estimated completion time*: each replica's
  backlog is modelled as a single-server queue that drains one request's
  estimated service time after another; the request joins the replica that
  would finish it earliest;
* ``"session-affinity"`` — sticky sessions: every turn of a multi-turn
  session (:mod:`repro.workloads.sessions`) is pinned to the replica its
  first turn joined, so the engine-level prefix cache can actually hit —
  a session's retained KV lives on one replica only.  Sessions are placed
  (and plain sessionless requests routed) by the ``"jsq"`` rule; the pin
  is dropped when a session's final turn is dispatched, keeping router
  state bounded by the *active* session count.

Determinism: every policy is a pure function of the dispatch history, and
ties are broken by a preference order drawn once from the router's seed
(:func:`repro._common.rng`), so the same ``(requests, policy, seed)``
always yields the identical split — cluster traces are reproducible
run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

from repro._common import ConfigurationError, rng, validate_positive
from repro.workloads.arrivals import Request

#: Dispatch policies understood by :class:`Router`.
ROUTING_POLICIES = ("round-robin", "jsq", "least-loaded", "session-affinity")


@dataclass
class _ReplicaLoad:
    """What the router believes one replica is currently doing."""

    #: Min-heap of ``(estimated_finish_time, kv_tokens)`` of every
    #: dispatched request believed still in flight (requests run
    #: concurrently under continuous batching, so each drains on its own
    #: estimate).
    in_flight: list[tuple[float, int]] = field(default_factory=list)
    #: Sum of the in-flight ``kv_tokens``, kept as entries come and go.
    tokens: int = 0
    #: Single-server backlog horizon for the least-loaded policy.
    busy_until: float = 0.0
    #: Requests dispatched to this replica (trace metadata).
    dispatched: int = 0

    def add(self, finish: float, tokens: int) -> None:
        heappush(self.in_flight, (finish, tokens))
        self.tokens += tokens

    def retire(self, clock: float) -> None:
        """Drop every entry that finished by ``clock`` (for good: a later
        call with an earlier clock does not bring it back)."""
        heap = self.in_flight
        while heap and heap[0][0] <= clock:
            self.tokens -= heappop(heap)[1]

    def outstanding_tokens(self, clock: float) -> int:
        self.retire(clock)
        return self.tokens


class Router:
    """Assigns requests to ``num_replicas`` replicas under one policy.

    A router instance carries dispatch state and is meant to route exactly
    one arrival trace; :meth:`repro.cluster.group.ReplicaGroup.serve`
    builds a fresh one per serve.
    """

    def __init__(self, num_replicas: int, policy: str = "round-robin",
                 seed: int | None = 0) -> None:
        validate_positive(num_replicas=num_replicas)
        if policy not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {policy!r}; "
                f"known: {list(ROUTING_POLICIES)}"
            )
        self.num_replicas = num_replicas
        self.policy = policy
        self.seed = seed
        self._loads = [_ReplicaLoad() for _ in range(num_replicas)]
        self._rr_next = 0
        #: session-affinity pins: ``session_id -> replica index``.
        self._sessions: dict[int, int] = {}
        #: Failed replicas (fault injection): excluded from every policy's
        #: candidate set until :meth:`mark_up`.  Empty on fault-free serves,
        #: so health filtering never perturbs their routing.
        self._down: set[int] = set()

    @cached_property
    def _preference(self) -> list[int]:
        """Tie-break preference: a seeded permutation fixed for the
        router's lifetime.  ``_preference[i]`` is replica i's rank; among
        equally loaded replicas the lowest rank wins, so ties resolve
        identically run-to-run for the same seed (and differently across
        seeds).  Drawn on the first tie-break: round-robin never needs it.
        """
        return [int(rank)
                for rank in rng(self.seed).permutation(self.num_replicas)]

    # ------------------------------------------------------------------ #
    # replica health (driven by repro.faults.FaultCoordinator)
    # ------------------------------------------------------------------ #
    def mark_down(self, index: int) -> None:
        """Remove replica ``index`` from every policy's candidate set."""
        if not 0 <= index < self.num_replicas:
            raise ConfigurationError(
                f"replica {index} out of range for {self.num_replicas} "
                f"replicas"
            )
        self._down.add(index)

    def mark_up(self, index: int) -> None:
        """Re-admit a recovered replica as a routing candidate.

        The replica rejoins with whatever load estimates it had (stale
        in-flight entries retire on their own horizon) — the policies see
        it as lightly loaded, which is what a cold rejoin looks like.
        """
        self._down.discard(index)

    # ------------------------------------------------------------------ #
    def assign(self, request: Request,
               service_estimates: list[float]) -> int:
        """Pick the replica ``request`` joins; update dispatch state.

        ``service_estimates[i]`` is the estimated seconds replica ``i``
        would spend serving the request alone (see
        :meth:`~repro.cluster.group.ReplicaGroup.estimate_service_time`).
        """
        if len(service_estimates) != self.num_replicas:
            raise ConfigurationError(
                f"need one service estimate per replica "
                f"({self.num_replicas}), got {len(service_estimates)}"
            )
        if len(self._down) >= self.num_replicas:
            raise ConfigurationError(
                "every replica is marked down; the fault coordinator parks "
                "arrivals instead of routing them during a total outage"
            )
        clock = request.arrival_time
        if self.policy == "round-robin":
            index = self._rr_next
            while index in self._down:
                index = (index + 1) % self.num_replicas
            self._rr_next = (index + 1) % self.num_replicas
            # Round-robin never reads load state: count the dispatch only.
            self._loads[index].dispatched += 1
            return index
        if self.policy == "jsq":
            index = self._argmin(
                lambda i: self._loads[i].outstanding_tokens(clock))
        elif self.policy == "session-affinity":
            session_id = getattr(request, "session_id", None)
            index = self._sessions.get(session_id) if session_id is not None \
                else None
            if index is not None and index in self._down:
                # The session's pinned replica failed: its retained prefix
                # is gone anyway (failures flush the cache), so the session
                # is re-placed like a new one.
                index = None
            if index is None:
                # New session (or a plain request): place by JSQ.
                index = self._argmin(
                    lambda i: self._loads[i].outstanding_tokens(clock))
            if session_id is not None:
                if getattr(request, "final_turn", True):
                    self._sessions.pop(session_id, None)
                else:
                    self._sessions[session_id] = index
        else:  # least-loaded
            index = self._argmin(
                lambda i: max(clock, self._loads[i].busy_until)
                + service_estimates[i])
        load = self._loads[index]
        # Drop entries that drained before this arrival: keeps the router's
        # state bounded by the in-flight work (not the trace length), which
        # is what lets million-request streams route in O(1) memory.
        load.retire(clock)
        load.add(clock + service_estimates[index], request.max_seq_len)
        load.busy_until = max(clock, load.busy_until) \
            + service_estimates[index]
        load.dispatched += 1
        return index

    def _argmin(self, score) -> int:
        candidates = (range(self.num_replicas) if not self._down
                      else [i for i in range(self.num_replicas)
                            if i not in self._down])
        return min(candidates,
                   key=lambda i: (score(i), self._preference[i]))

    # ------------------------------------------------------------------ #
    @property
    def dispatch_counts(self) -> list[int]:
        """Requests dispatched to each replica so far."""
        return [load.dispatched for load in self._loads]
