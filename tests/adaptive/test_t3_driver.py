"""Budget-first control of a T3 node's firmware selectors."""

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveController,
    BudgetFirstPolicy,
    ControllerConfig,
    T3BudgetDriver,
)
from repro.netmon.node import Node
from repro.trace.trace import Trace


def second_of_traffic(second: int, pps: int, seed: int) -> Trace:
    rng = np.random.default_rng(seed)
    start = second * 1_000_000
    timestamps = np.sort(rng.integers(start, start + 1_000_000, size=pps))
    return Trace(
        timestamps_us=timestamps.astype(np.int64),
        sizes=np.full(pps, 576, dtype=np.int32),
    )


def make_driver(budget_pps=20.0, initial=64, cpu_capacity=10_000):
    node = Node("t3-test", interfaces=("t3",), capacity_pps=cpu_capacity)
    controller = AdaptiveController(
        BudgetFirstPolicy(budget_pps=budget_pps),
        ControllerConfig(
            initial_granularity=initial,
            step_finer_windows=1,
            step_coarser_windows=1,
            cooldown_windows=1,
        ),
    )
    return node, T3BudgetDriver(node=node, controller=controller)


class TestT3BudgetDriver:
    def test_driver_seeds_the_node_granularity(self):
        node, _ = make_driver(initial=256)
        assert node.granularity == 256
        assert node.interfaces["t3"].selector.granularity == 256

    def test_walks_down_to_the_budget_knee(self):
        # 400 pps offered, budget 20 selected pps: the knee is 1/32
        # (12.5 pps selected; 1/16 would be 25 > 20).
        node, driver = make_driver(budget_pps=20.0, initial=256)
        for second in range(20):
            driver.process_second(
                {"t3": second_of_traffic(second, 400, seed=second)}
            )
        assert node.granularity == 32

    def test_backs_off_when_over_budget(self):
        node, driver = make_driver(budget_pps=20.0, initial=4)
        for second in range(12):
            driver.process_second(
                {"t3": second_of_traffic(second, 400, seed=100 + second)}
            )
        assert node.granularity == 32

    def test_ht_total_stays_unbiased_across_rekeying(self):
        node, driver = make_driver(budget_pps=50.0, initial=256)
        total = 0
        for second in range(30):
            pps = 2000 if second < 15 else 200
            driver.process_second(
                {"t3": second_of_traffic(second, pps, seed=second)}
            )
            total += pps
        assert node.granularity != 256  # it moved
        ht = node.horvitz_thompson_total()
        naive = node.estimated_total_packets()
        assert ht == pytest.approx(total, rel=0.35)
        # The naive fixed-k estimate uses the *final* k for packets
        # selected under earlier ks and lands far off.
        assert abs(ht - total) < abs(naive - total)

    def test_decisions_are_logged_per_second(self):
        _, driver = make_driver()
        for second in range(5):
            decision = driver.process_second(
                {"t3": second_of_traffic(second, 300, seed=second)}
            )
            assert decision.window == second
        assert len(driver.controller.decisions) == 5
