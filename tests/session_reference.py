"""NumPy-scalar reference for the session lowering, for bit-identity tests.

:meth:`repro.workloads.sessions.SessionTrace._scripts` draws every turn's
lengths as Python scalars: ``mu`` once per mean, then
``max(round(min(x, cap)), 1)`` around each log-normal draw.  This module
keeps the form it replaced, where each length went through ``np.log``,
``np.round`` and ``np.clip`` one scalar at a time.  Tests lower the same
spec through both and require equal scripts, requests and closed-loop
sources, field by field.  It is test code only: nothing under ``src/``
imports it.
"""

from __future__ import annotations

import numpy as np

from repro._common import ConfigurationError, rng
from repro.workloads.arrivals import ARRIVAL_PATTERNS, SLO_CLASSES


def scripts_numpy_scalar(spec) -> list[tuple]:
    """``spec._scripts()`` as the NumPy-scalar lowering computed it."""
    if spec.rate is None:
        raise ConfigurationError("this SessionTrace has no arrival rate")
    starts = ARRIVAL_PATTERNS[spec.pattern](spec.num_sessions, spec.rate,
                                            seed=spec.seed)
    generator = rng(None if spec.seed is None else spec.seed + 1)
    turn_counts = np.minimum(
        generator.geometric(1.0 / spec.mean_turns, size=spec.num_sessions),
        spec.max_turns)
    classes = np.where(
        generator.random(spec.num_sessions) < spec.interactive_fraction,
        SLO_CLASSES[0], SLO_CLASSES[1])
    input_cap = spec.max_context // 2
    output_cap = spec.max_context - input_cap

    def sample(mean: int, cap: int) -> int:
        mu = np.log(mean) - spec.sigma ** 2 / 2.0
        length = generator.lognormal(mu, spec.sigma)
        return int(np.clip(np.round(length), 1, cap))

    scripts: list[tuple] = []
    for session_id in range(spec.num_sessions):
        slo_class = str(classes[session_id])
        prefix = 0
        script: list[tuple] = []
        for _ in range(int(turn_counts[session_id])):
            new_input = sample(spec.mean_new_input, input_cap)
            output = sample(spec.mean_output, output_cap)
            think = float(generator.exponential(spec.mean_think_s))
            if prefix + new_input + output > spec.max_context:
                break
            script.append((prefix, new_input, output, think))
            prefix += new_input + output
        scripts.append((float(starts[session_id]), slo_class, script))
    return scripts
