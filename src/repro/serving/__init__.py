"""Online serving layer: continuous batching over the system simulators.

Generalizes the paper's offline Section VI protocol to multi-request
serving: arrival traces (:mod:`repro.workloads.arrivals`) are driven through
any :class:`~repro.systems.simulator.InferenceSimulator` by the
:class:`ContinuousBatchingEngine`, producing per-request TTFT/TPOT/latency
records in a :class:`ServingTrace` — or, with ``record_mode="streaming"``,
bounded-memory sketch summaries in a :class:`StreamingTrace`.  The engine
is event-driven (:mod:`repro.serving.events`): runs advance through an
event heap instead of a global clock loop, and every arrival source — a
list, a lazy :class:`~repro.workloads.arrivals.RequestStream` of any
length, or a closed-loop session source — is driven through one
:class:`~repro.serving.events.ArrivalSource` protocol.
"""

from repro.serving.engine import (
    PREEMPTION_MODES,
    ContinuousBatchingEngine,
    EngineRun,
)
from repro.serving.events import (
    ADMISSION,
    ARRIVAL,
    COMPLETION,
    EPOCH_BOUNDARY,
    PREEMPTION,
    PREFILL_CHUNK,
    REPLICA_FAIL,
    REPLICA_RECOVER,
    ArrivalSource,
    drive,
)
from repro.serving.sketches import (
    DEFAULT_QUANTILES,
    P2Quantile,
    StreamingMean,
    StreamingPercentiles,
    StreamingTrace,
)
from repro.serving.trace import (
    RequestRecord,
    ServingTrace,
    StreamingGoodput,
    normalize_class_slos,
)
from repro.workloads.arrivals import Request, RequestStream

__all__ = [
    "ADMISSION",
    "ARRIVAL",
    "COMPLETION",
    "DEFAULT_QUANTILES",
    "EPOCH_BOUNDARY",
    "PREEMPTION",
    "PREEMPTION_MODES",
    "PREFILL_CHUNK",
    "REPLICA_FAIL",
    "REPLICA_RECOVER",
    "ArrivalSource",
    "ContinuousBatchingEngine",
    "EngineRun",
    "P2Quantile",
    "Request",
    "RequestRecord",
    "RequestStream",
    "ServingTrace",
    "StreamingGoodput",
    "StreamingMean",
    "StreamingPercentiles",
    "StreamingTrace",
    "drive",
    "normalize_class_slos",
]
