"""Ablation — the timer's packet-selection rule (DESIGN.md call-out).

The paper selects "the next packet to arrive" after each timer expiry
and calls the approximation "seemingly inconsequential".  This
ablation compares that rule against the alternative a buffer-holding
monitor would implement (most recent packet at expiry), on both
characterization targets.

Reproduction finding: the rule is *not* inconsequential for the
interarrival target.  A firing tends to land inside a long idle gap;
under the next-arrival rule the selected packet's predecessor gap IS
that idle gap (bias toward large gaps, phi ~ 0.7), while under the
previous-packet rule the selected packet typically *ends* a burst and
its predecessor gap is an ordinary intra-burst one (phi drops by ~6x,
though it remains worse than any packet-driven method, because timer
firings still under-visit bursts).  The packet-size target is rule-
insensitive, as the paper's intuition suggests.
"""

from repro.core.evaluation.comparison import population_proportions, score_sample
from repro.core.evaluation.targets import PAPER_TARGETS
from repro.core.sampling.timer import TimerSystematicSampler

GRANULARITIES = (16, 64, 256, 1024)


def run_ablation(window):
    rows = []
    caches = {
        target.name: (
            population_proportions(window, target),
            target.bin_ids(window),
        )
        for target in PAPER_TARGETS
    }
    for granularity in GRANULARITIES:
        base = TimerSystematicSampler.for_granularity(window, granularity)
        for rule in ("next", "previous"):
            sampler = TimerSystematicSampler(
                period_us=base.period_us, selection_rule=rule
            )
            result = sampler.sample(window)
            phis = {}
            for target in PAPER_TARGETS:
                proportions, bin_ids = caches[target.name]
                phis[target.name] = score_sample(
                    window,
                    result,
                    target,
                    proportions=proportions,
                    bin_ids=bin_ids,
                ).phi
            rows.append((granularity, rule, phis))
    return rows


def test_ablation_timer_selection_rule(benchmark, half_hour_window, emit):
    rows = benchmark.pedantic(
        run_ablation, args=(half_hour_window,), rounds=1, iterations=1
    )

    lines = [
        "Ablation: timer expiry selection rule (next-arrival vs previous)",
        "%-8s %-10s %14s %14s" % ("1/x", "rule", "size phi", "iat phi"),
    ]
    for granularity, rule, phis in rows:
        lines.append(
            "%-8d %-10s %14.4f %14.4f"
            % (granularity, rule, phis["packet-size"], phis["interarrival"])
        )
    lines.append(
        "finding: the paper's next-arrival rule is what makes timer "
        "sampling catastrophic on interarrivals; the previous-packet "
        "rule removes most (not all) of that bias.  Sizes are rule-"
        "insensitive."
    )
    emit("\n".join(lines))

    by_key = {(g, r): phis for g, r, phis in rows}
    for granularity in GRANULARITIES:
        next_rule = by_key[(granularity, "next")]
        prev_rule = by_key[(granularity, "previous")]
        # Next-arrival: catastrophic on interarrivals.
        assert next_rule["interarrival"] > 0.5
        # Previous-packet: far less biased on interarrivals, but still
        # visibly imperfect (timer firings under-visit bursts).
        assert prev_rule["interarrival"] < 0.5 * next_rule["interarrival"]
        assert prev_rule["interarrival"] > 0.03
        # Packet sizes are insensitive to the rule.
        assert abs(next_rule["packet-size"] - prev_rule["packet-size"]) < 0.1
