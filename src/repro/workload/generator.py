"""End-to-end synthetic trace generation.

:class:`TraceGenerator` wires the rate process, arrival model,
application mix, and flow pool together and emits a
:class:`~repro.trace.Trace`.  :func:`nsfnet_hour_trace` is the standard
entry point: the calibrated one-hour parent population (≈1.6 million
packets), clock-quantized exactly as the paper's monitor recorded it.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.trace.clock import MonitorClock
from repro.trace.trace import Trace
from repro.workload.arrivals import TrainArrivalModel
from repro.workload.flows import FlowPool
from repro.workload.mix import ApplicationMix, fixwest_mix, nsfnet_mix
from repro.workload.modulation import MixModulator
from repro.workload.rates import RateProcess


@dataclass
class TraceGenerator:
    """Configurable synthetic NSFNET-entrance trace generator.

    Parameters
    ----------
    mix:
        Application mix; defaults to the calibrated 1993 mix.
    rate_process:
        Non-stationary per-second rate model; defaults to Table 2's
        moments.
    duration_s:
        Trace length in whole seconds.
    seed:
        Seed for the whole generation pipeline; a given
        ``(configuration, seed)`` pair is fully reproducible.
    intra_gap_mean_us, inter_gap_shape:
        Arrival-model burst parameters (see
        :class:`~repro.workload.arrivals.TrainArrivalModel`).
    n_src_nets, n_dst_nets:
        Flow-identity population sizes.
    """

    mix: ApplicationMix = field(default_factory=nsfnet_mix)
    rate_process: RateProcess = field(default_factory=RateProcess)
    duration_s: int = 3600
    seed: Optional[int] = 1993
    intra_gap_mean_us: float = 400.0
    inter_gap_shape: float = 1.7
    mix_sigma: float = 0.45
    mix_load_correlation: float = 0.5
    n_src_nets: int = 40
    n_dst_nets: int = 300

    def generate(self) -> Trace:
        """Generate the trace with raw (unquantized) timestamps."""
        if self.duration_s < 0:
            raise ValueError("duration must be non-negative")
        rng = np.random.default_rng(self.seed)
        innovations = self.rate_process.generate_innovations(
            self.duration_s, rng
        )
        rates = self.rate_process.rates_from_innovations(innovations)
        return self._trace(rates, innovations, rng)

    def _trace(
        self, rates: np.ndarray, innovations: np.ndarray, rng: np.random.Generator
    ) -> Trace:
        """The trace at per-second ``rates``: the mix modulated by the load
        ``innovations``, the arrivals, then each packet's labels."""
        train_probs = None
        if self.mix_sigma > 0:
            modulator = MixModulator(
                mix=self.mix,
                sigma=self.mix_sigma,
                load_correlation=self.mix_load_correlation,
            )
            train_probs = modulator.probabilities(innovations, rng)
        model = TrainArrivalModel(
            mix=self.mix,
            intra_gap_mean_us=self.intra_gap_mean_us,
            inter_gap_shape=self.inter_gap_shape,
        )
        # ``key`` is each packet's component index, already compact.
        timestamps, key = model.generate(
            rates, rng, train_probs_per_second=train_probs
        )
        mix_components = self.mix.components
        counts = np.bincount(key, minlength=len(mix_components))

        # Each component draws its packets' sizes in packet order,
        # components in mix order: one stable grouping places them all.
        sizes = np.empty(timestamps.size, dtype=np.int32)
        if timestamps.size:
            sizes[key.argsort(kind="stable")] = np.concatenate(
                [
                    component.sizes.draw(count, rng)
                    for component, count in zip(mix_components, counts.tolist())
                    if count
                ]
            )

        pool = FlowPool(
            self.mix,
            n_src_nets=self.n_src_nets,
            n_dst_nets=self.n_dst_nets,
            rng=np.random.default_rng(
                None if self.seed is None else self.seed + 1
            ),
        )
        flow_columns = pool.assign(key, rng)
        protocols = np.array([c.protocol for c in mix_components], dtype=np.uint8)
        # Arrivals are positive: truncation is the floor.
        return Trace(timestamps.astype(np.int64), sizes, protocols[key], *flow_columns)


def nsfnet_hour_trace(
    seed: int = 1993,
    duration_s: int = 3600,
    quantize: bool = True,
) -> Trace:
    """The reproduction's parent population.

    A calibrated synthetic equivalent of the paper's one-hour,
    1.6 million-packet SDSC-to-backbone trace of 23 March 1993, with
    timestamps quantized to the monitor's 400 us clock (pass
    ``quantize=False`` for the raw microsecond arrivals).

    Shorter ``duration_s`` values scale the trace down proportionally;
    the per-packet distributions are duration-invariant, so tests can
    run on minutes of traffic while benchmarks use the full hour.
    """
    trace = TraceGenerator(seed=seed, duration_s=duration_s).generate()
    if quantize:
        trace = MonitorClock().quantize_trace(trace)
    return trace


def fixwest_hour_trace(
    seed: int = 1992,
    duration_s: int = 3600,
    quantize: bool = True,
) -> Trace:
    """A FIX-West-flavoured trace (the paper's preliminary environment).

    Same generator, the interexchange-point application mix of
    :func:`repro.workload.mix.fixwest_mix`, and a busier aggregate
    (an exchange point carries several networks' transit): mean
    ~620 packets/s.  Used to check the study's conclusions hold across
    traffic blends, as the paper reports they did (footnote 3).
    """
    generator = TraceGenerator(
        mix=fixwest_mix(),
        rate_process=RateProcess(mean=620.0, std=130.0, skewness=1.1),
        seed=seed,
        duration_s=duration_s,
    )
    trace = generator.generate()
    if quantize:
        trace = MonitorClock().quantize_trace(trace)
    return trace
