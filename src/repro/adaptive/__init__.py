"""``repro.adaptive`` — closed-loop control of the sampling granularity.

The paper picks a static fraction offline and measures the damage
afterwards (Sections 5–7: coarser granularity, worse characterization).
This package closes that loop at runtime.  A
:class:`~repro.adaptive.controller.AdaptiveController` watches the
per-window quality points the live
:class:`~repro.obs.live.QualityMonitor` already produces — φ, the χ²
significance level, offered/sampled counts — and walks the sampling
granularity along the paper's power-of-two grid (1/2 … 1/32768) to
meet a declared objective:

* **accuracy-first** — the cheapest rate whose φ / χ² significance
  stays within tolerance (:class:`~repro.adaptive.policy.AccuracyFirstPolicy`);
* **budget-first** — the best accuracy under a selected-packets-per-
  second budget, the constraint the T3 characterization CPU imposes
  (:class:`~repro.adaptive.policy.BudgetFirstPolicy`);
* **static** — hold the configured rate, the paper's baseline
  (:class:`~repro.adaptive.policy.StaticPolicy`).

Decisions are a deterministic function of the window stream: the
controller is a hysteresis state machine (consecutive-window streaks,
post-change cooldown) with a replayable decision log, so a run is
bit-reproducible — and, because rate changes land only at window
boundaries, the per-packet reference loop (``offer``) and the chunked
path (``keep_mask``) produce *identical* decision logs and keep/skip
streams (pinned by ``tests/adaptive``).

Surfaced by the ``repro-traffic adapt`` CLI subcommand; see
``examples/adaptive_sampling.py`` for library use.
"""

from repro.adaptive.controller import (
    AdaptiveController,
    ControllerConfig,
    Decision,
)
from repro.adaptive.drivers import (
    AdaptivePipeline,
    AdaptiveRunResult,
    T3BudgetDriver,
    run_adaptive,
)
from repro.adaptive.policy import (
    GRANULARITY_GRID,
    AccuracyFirstPolicy,
    BudgetFirstPolicy,
    Proposal,
    RatePolicy,
    StaticPolicy,
    snap_to_grid,
)

__all__ = [
    "AccuracyFirstPolicy",
    "AdaptiveController",
    "AdaptivePipeline",
    "AdaptiveRunResult",
    "BudgetFirstPolicy",
    "ControllerConfig",
    "Decision",
    "GRANULARITY_GRID",
    "Proposal",
    "RatePolicy",
    "StaticPolicy",
    "T3BudgetDriver",
    "run_adaptive",
    "snap_to_grid",
]
