"""Multi-turn session workloads with shared-prefix KV reuse.

Real chat traffic is dominated by *sessions*: a user sends a prompt, reads
the answer, thinks, and sends a follow-up that carries the whole
conversation so far as context.  Under the paper's KV-cache-pressure lens
(conf_isca_ZhaoWW24 Section VI) this changes everything — consecutive
turns share a growing prefix whose KV the engine may keep resident instead
of re-reserving and re-prefilling it, and latency-sensitive chat turns
compete with throughput batch jobs for the same budget.

:class:`SessionTrace` is the deterministic generator: per-session turn
counts, think-time gaps between turns, suffix-only new tokens, and a
per-session SLO class (see :data:`~repro.workloads.arrivals.SLO_CLASSES`).
It lowers to the existing request stream —
:meth:`SessionTrace.requests` returns plain
:class:`~repro.workloads.arrivals.Request`-compatible
:class:`SessionRequest` objects sorted by ``(arrival_time, request_id)``
— so every serving entry point (engine, cluster, sweep) consumes sessions
unchanged.

Lowering contract
-----------------
* Every turn carries its **full context** as ``input_len`` (prefix plus
  new tokens) and tags the shared part as ``prefix_len``, so an engine
  without prefix reuse serves the trace correctly (it just pays the full
  prefill and reservation) and one with reuse charges only the suffix.
* ``requests(prefix_reuse=False)`` zeroes every ``prefix_len`` and marks
  every turn final: request-for-request identical arrivals and lengths,
  no retained prefixes — the "equivalent single-shot trace".
  :meth:`SessionTrace.single_shot` is the same trace as plain
  :class:`~repro.workloads.arrivals.Request` objects (the hypothesis
  invariant in ``tests/test_sessions.py`` pins the equivalence).
* Turn ``t+1``'s ``prefix_len`` equals turn ``t``'s
  ``input_len + output_len`` — the whole previous context including the
  generated answer.
* The trace is **open loop** by default: turn ``t+1`` arrives a think-time
  gap plus a service allowance (``tokens / service_tokens_per_s``) after
  turn ``t``, independent of the simulated completion instant.  This keeps
  the trace a pure function of its seed (closed-loop arrivals couple the
  workload to the engine under test); pick ``mean_think_s`` and
  ``service_tokens_per_s`` so follow-ups usually arrive after their
  parent completes if high prefix-hit rates are the goal.
* :meth:`SessionTrace.closed_loop` instead builds a
  :class:`ClosedLoopSessions` source whose turn ``t+1`` arrives at turn
  ``t``'s *simulated* completion plus the same think-time draw — the
  engine feeds completions back into the source, so the workload reacts
  to the system under test.  Both modes replay identical per-turn scripts
  (lengths, classes, think times); only the arrival coupling differs.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass

import numpy as np

from repro._common import ConfigurationError, rng, validate_positive
from repro.workloads.arrivals import (
    ARRIVAL_PATTERNS,
    SLO_CLASSES,
    Request,
)


@dataclass(frozen=True)
class SessionRequest(Request):
    """One turn of a multi-turn session, as a serving request.

    A :class:`~repro.workloads.arrivals.Request` plus the session facts the
    serving engine's prefix-reuse admission reads: which conversation the
    turn belongs to (``session_id``), its position (``turn_index``), how
    many of its ``input_len`` tokens are the shared prefix of the previous
    turns (``prefix_len``), and whether any follow-up turn may reuse this
    turn's context (``final_turn=False`` asks the engine to retain it).
    """

    session_id: int = 0
    turn_index: int = 0
    prefix_len: int = 0
    final_turn: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.session_id < 0 or self.turn_index < 0:
            raise ConfigurationError(
                f"session_id and turn_index must be non-negative, got "
                f"({self.session_id!r}, {self.turn_index!r})"
            )
        if not 0 <= self.prefix_len < self.input_len:
            raise ConfigurationError(
                f"prefix_len must satisfy 0 <= prefix_len < input_len "
                f"(every turn adds at least one new token), got "
                f"prefix_len={self.prefix_len!r} with "
                f"input_len={self.input_len!r}"
            )

    @property
    def suffix_len(self) -> int:
        """New prompt tokens this turn adds beyond the shared prefix."""
        return self.input_len - self.prefix_len


@dataclass(frozen=True)
class SessionTrace:
    """Deterministic multi-turn session workload specification.

    Session starts follow any registered arrival pattern at ``rate``
    sessions per second; each session draws a geometric turn count (mean
    ``mean_turns``, capped at ``max_turns``), heavy-tailed log-normal new
    prompt/answer lengths per turn (means ``mean_new_input`` /
    ``mean_output``, shape ``sigma`` — the ShareGPT-style distribution of
    :func:`~repro.workloads.arrivals.sharegpt_lengths`), and exponential
    think-time gaps (mean ``mean_think_s``) between turns.  A session is
    ``"interactive"`` with probability ``interactive_fraction``, else
    ``"batch"``; the class applies to all its turns.  Context growth is
    capped at ``max_context`` KV tokens: a session ends early rather than
    emit a turn that would overflow the cap.

    ``rate=None`` builds a rate-less spec for sweeps
    (``serving_rate_sweep(workload=sessions(...))`` fills the rate per
    row via :meth:`with_rate`).
    """

    num_sessions: int
    rate: float | None = None
    seed: int | None = 0
    pattern: str = "poisson"
    mean_turns: float = 4.0
    max_turns: int = 16
    mean_think_s: float = 2.0
    mean_new_input: int = 64
    mean_output: int = 128
    sigma: float = 0.8
    max_context: int = 2048
    interactive_fraction: float = 1.0
    service_tokens_per_s: float = 30.0

    def __post_init__(self) -> None:
        validate_positive(num_sessions=self.num_sessions,
                          max_turns=self.max_turns,
                          mean_think_s=self.mean_think_s,
                          mean_new_input=self.mean_new_input,
                          mean_output=self.mean_output, sigma=self.sigma,
                          service_tokens_per_s=self.service_tokens_per_s)
        if self.rate is not None:
            validate_positive(rate=self.rate)
        if self.mean_turns < 1.0:
            raise ConfigurationError(
                f"mean_turns must be at least 1, got {self.mean_turns!r}"
            )
        if self.max_context < 2:
            raise ConfigurationError(
                f"max_context must be at least 2 (one prompt plus one "
                f"output token), got {self.max_context!r}"
            )
        if not 0.0 <= self.interactive_fraction <= 1.0:
            raise ConfigurationError(
                f"interactive_fraction must lie in [0, 1], got "
                f"{self.interactive_fraction!r}"
            )
        if self.pattern not in ARRIVAL_PATTERNS:
            raise ConfigurationError(
                f"unknown arrival pattern {self.pattern!r}; "
                f"known: {sorted(ARRIVAL_PATTERNS)}"
            )

    # ------------------------------------------------------------------ #
    def with_rate(self, rate: float) -> "SessionTrace":
        """Copy of this spec at a new session arrival rate (sweep axis)."""
        return dataclasses.replace(self, rate=rate)

    # ------------------------------------------------------------------ #
    def requests(self, prefix_reuse: bool = True) -> list[SessionRequest]:
        """Lower the sessions to a sorted serving request trace.

        Returns :class:`SessionRequest` objects sorted by
        ``(arrival_time, request_id)`` with ``request_id`` equal to the
        sort position — exactly the stream the serving engine admits FCFS.
        ``prefix_reuse=False`` produces the equivalent single-shot trace:
        identical ids, arrivals, and lengths, but every ``prefix_len`` is 0
        and every turn is final, so no engine retains or reuses anything.
        """
        turns = self._turns()
        return [
            SessionRequest(
                request_id=index, arrival_time=arrival,
                input_len=input_len, output_len=output_len,
                slo_class=slo_class, session_id=session_id,
                turn_index=turn_index,
                prefix_len=prefix_len if prefix_reuse else 0,
                final_turn=final_turn if prefix_reuse else True)
            for index, (arrival, session_id, turn_index, prefix_len,
                        input_len, output_len, slo_class, final_turn)
            in enumerate(turns)
        ]

    def single_shot(self) -> list[Request]:
        """The equivalent independent-request trace (plain ``Request``).

        Request-for-request identical to ``requests(prefix_reuse=False)``
        on every :class:`~repro.workloads.arrivals.Request` field — the
        trace a session-blind serving stack would see.
        """
        return [
            Request(request_id=index, arrival_time=arrival,
                    input_len=input_len, output_len=output_len,
                    slo_class=slo_class)
            for index, (arrival, _, _, _, input_len, output_len, slo_class,
                        _) in enumerate(self._turns())
        ]

    @property
    def num_turns(self) -> int:
        """Total serving requests the trace lowers to."""
        return len(self._turns())

    def closed_loop(self) -> "ClosedLoopSessions":
        """A fresh single-use closed-loop arrival source over this spec.

        Serve it directly (``engine.serve(trace.closed_loop())``, or
        ``ReplicaGroup.serve``): turn ``t+1`` of each session arrives at
        turn ``t``'s simulated completion plus the script's think-time
        draw.  Per-turn lengths, classes, and think times are identical to
        the open-loop lowering — only arrival instants differ.  The source
        is consumed by one serve; build a new one per serve.
        """
        return ClosedLoopSessions(self)

    # ------------------------------------------------------------------ #
    def _scripts(self) -> list[tuple]:
        """Per-session turn scripts: the seed-determined facts of a serve.

        Each entry is ``(start_time, slo_class, turns)`` with ``turns`` a
        list of ``(prefix_len, new_input, output_len, think_s)``.  Pure
        function of the spec (one generator seeded from ``seed`` drives
        every draw after the session-start arrival times).  The open-loop
        lowering (:meth:`requests`) and the closed-loop source
        (:meth:`closed_loop`) both replay these scripts, so the two modes
        serve identical per-turn lengths and differ only in how arrivals
        couple to completions.
        """
        if self.rate is None:
            raise ConfigurationError(
                "this SessionTrace has no arrival rate; call "
                "with_rate(rate) first (serving_rate_sweep does this per "
                "swept rate)"
            )
        starts = ARRIVAL_PATTERNS[self.pattern](self.num_sessions, self.rate,
                                                seed=self.seed)
        generator = rng(None if self.seed is None else self.seed + 1)
        turn_counts = np.minimum(
            generator.geometric(1.0 / self.mean_turns,
                                size=self.num_sessions),
            self.max_turns)
        classes = np.where(
            generator.random(self.num_sessions) < self.interactive_fraction,
            SLO_CLASSES[0], SLO_CLASSES[1])
        # Single-turn length caps guarantee the first turn always fits the
        # context budget; later turns end the session rather than overflow.
        input_cap = self.max_context // 2
        output_cap = self.max_context - input_cap
        # Scalar draws in a fixed order: input, output, think time, then
        # the early-end check (docs/workloads.md).  ``mu`` keeps NumPy's
        # ``log``, which may differ from libm's in the last bit; ``round``
        # rounds half to even, and capping before rounding keeps an
        # overflowed draw finite.
        sigma = self.sigma
        lognormal = generator.lognormal
        input_mu = float(np.log(self.mean_new_input)) - sigma ** 2 / 2.0
        output_mu = float(np.log(self.mean_output)) - sigma ** 2 / 2.0

        scripts: list[tuple] = []
        for start, slo_class, count in zip(starts.tolist(), classes.tolist(),
                                           turn_counts.tolist()):
            prefix = 0
            script: list[tuple] = []
            for _ in range(count):
                new_input = max(
                    round(min(lognormal(input_mu, sigma), input_cap)), 1)
                output = max(
                    round(min(lognormal(output_mu, sigma), output_cap)), 1)
                think = generator.exponential(self.mean_think_s)
                if prefix + new_input + output > self.max_context:
                    break  # context budget exhausted: session ends early
                script.append((prefix, new_input, output, think))
                prefix += new_input + output
            scripts.append((start, slo_class, script))
        return scripts

    def _turns(self) -> list[tuple]:
        """All turns of all sessions, sorted by arrival (open loop).

        Each entry is ``(arrival, session_id, turn_index, prefix_len,
        input_len, output_len, slo_class, final_turn)``.
        """
        turns: list[tuple] = []
        for session_id, (start, slo_class, script) \
                in enumerate(self._scripts()):
            arrival = start
            for turn_index, (prefix, new_input, output, think) \
                    in enumerate(script):
                turns.append((arrival, session_id, turn_index, prefix,
                              prefix + new_input, output, slo_class,
                              turn_index == len(script) - 1))
                arrival += think + (new_input + output) \
                    / self.service_tokens_per_s
        turns.sort(key=lambda turn: (turn[0], turn[1], turn[2]))
        return turns


class ClosedLoopSessions:
    """Single-use closed-loop arrival source over a :class:`SessionTrace`.

    Implements the serving layer's one arrival-source protocol
    (:class:`~repro.serving.events.ArrivalSource`): the event driver pops
    ready turns in time order and the serve layer feeds every completed
    request back through :meth:`on_completion`, which schedules the
    session's next turn at ``completion_time + think_s`` — so follow-ups
    react to the *simulated* system instead of an a-priori service
    allowance.  Request ids are assigned in pop order, which is
    nondecreasing in arrival time (the driver pops the earliest ready
    turn), so downstream FCFS order checks hold unchanged.

    The turn *scripts* (lengths, classes, think-time draws) are the
    spec's own — see :meth:`SessionTrace._scripts` — making a closed-loop
    serve a pure function of ``(spec seed, engine configuration)``.
    """

    def __init__(self, spec: SessionTrace) -> None:
        self._spec = spec
        self._scripts = spec._scripts()
        #: Ready turns as a ``(arrival_time, session_id)`` heap; each
        #: session has at most one ready or in-flight turn at a time.
        self._ready: list[tuple[float, int]] = []
        self._inflight: dict[int, tuple[int, int]] = {}
        #: ``request_id -> (session_id, turn_index)`` for every request
        #: popped so far — the audit trail tests use to check causality.
        self.assignments: dict[int, tuple[int, int]] = {}
        self._positions = [0] * len(self._scripts)
        self._next_id = 0
        self._popped = 0
        self._total = sum(len(script) for _, _, script in self._scripts)
        for session_id, (start, _, script) in enumerate(self._scripts):
            if script:
                heapq.heappush(self._ready, (start, session_id))

    @property
    def spec(self) -> SessionTrace:
        return self._spec

    @property
    def num_turns(self) -> int:
        """Total requests this source will emit over its lifetime."""
        return self._total

    @property
    def length_bounds(self) -> tuple[int, int]:
        """``(max_input_len, max_output_len)`` over every scripted turn."""
        max_input = max_output = 1
        for _, _, script in self._scripts:
            for prefix, new_input, output, _ in script:
                if prefix + new_input > max_input:
                    max_input = prefix + new_input
                if output > max_output:
                    max_output = output
        return max_input, max_output

    # ------------------------------------------------------------------ #
    # ArrivalSource interface
    # ------------------------------------------------------------------ #
    def peek_time(self) -> float | None:
        return self._ready[0][0] if self._ready else None

    def pop_next(self) -> SessionRequest | None:
        if not self._ready:
            return None
        arrival, session_id = heapq.heappop(self._ready)
        _, slo_class, script = self._scripts[session_id]
        turn_index = self._positions[session_id]
        self._positions[session_id] = turn_index + 1
        prefix, new_input, output, _ = script[turn_index]
        request = SessionRequest(
            request_id=self._next_id, arrival_time=arrival,
            input_len=prefix + new_input, output_len=output,
            slo_class=slo_class, session_id=session_id,
            turn_index=turn_index, prefix_len=prefix,
            final_turn=turn_index == len(script) - 1)
        self._inflight[request.request_id] = (session_id, turn_index)
        self.assignments[request.request_id] = (session_id, turn_index)
        self._next_id += 1
        self._popped += 1
        return request

    @property
    def exhausted(self) -> bool:
        return self._popped == self._total

    # ------------------------------------------------------------------ #
    def on_completion(self, record) -> None:
        """Feed one completed request back; schedules the next turn.

        ``record`` is anything with ``request_id`` and ``completion_time``
        (the engine passes each :class:`~repro.serving.trace.RequestRecord`
        through here as its per-record observer).
        """
        entry = self._inflight.pop(record.request_id, None)
        if entry is None:
            raise ConfigurationError(
                f"closed-loop completion for unknown or already-completed "
                f"request id {record.request_id!r}"
            )
        session_id, turn_index = entry
        _, _, script = self._scripts[session_id]
        if turn_index + 1 >= len(script):
            return  # final turn: the session is over
        think = script[turn_index][3]
        heapq.heappush(self._ready,
                       (record.completion_time + think, session_id))


def sessions(num_sessions: int = 32, rate: float | None = None,
             **kwargs) -> SessionTrace:
    """Build a :class:`SessionTrace` workload spec.

    The ``workload=`` entry point of
    :func:`~repro.experiments.serving.serving_rate_sweep`::

        serving_rate_sweep(workload=sessions(32, mean_turns=3.0,
                                             interactive_fraction=0.5),
                           slo_classes={...})

    ``rate=None`` leaves the session arrival rate to the sweep's rate axis.
    """
    return SessionTrace(num_sessions=num_sessions, rate=rate, **kwargs)


def replay_requests(records, keep_ids: bool = True) -> list[Request]:
    """Rebuild an arrival trace from completed-request records.

    Turns any iterable of records exposing ``request_id``,
    ``arrival_time``, ``input_len``, ``output_len``, and ``slo_class``
    (e.g. :class:`~repro.serving.trace.RequestRecord` from a
    ``record_mode="full"`` trace) back into a sorted
    :class:`~repro.workloads.arrivals.Request` list, so one serve's
    workload can be replayed against a different system, hardware, or
    engine configuration.  ``keep_ids=False`` renumbers requests by
    arrival order instead of keeping the recorded ids.
    """
    ordered = sorted(records,
                     key=lambda r: (r.arrival_time, r.request_id))
    return [
        Request(request_id=record.request_id if keep_ids else index,
                arrival_time=record.arrival_time,
                input_len=record.input_len, output_len=record.output_len,
                slo_class=getattr(record, "slo_class", SLO_CLASSES[0]))
        for index, record in enumerate(ordered)
    ]
