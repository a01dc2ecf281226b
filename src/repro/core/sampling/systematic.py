"""Systematic (every k-th packet) sampling.

The method deployed operationally on the T1 and T3 NSFNET backbones:
"deterministically selecting every kth element (packet) of the data
set" (Section 4), with the production setting k = 50.

The *phase* — which packet of the first bucket starts the pattern —
is the only free choice.  The paper exploits it to manufacture
replications: "to achieve a wider range of replications for systematic
samples, we varied the point within the data set at which to begin the
sampling procedure" (Section 7.2).
"""

from typing import Dict, Optional

import numpy as np

from repro.core.sampling.base import Sampler
from repro.core.sampling.streaming import StreamingSystematic
from repro.trace.trace import Trace


class SystematicSampler(Sampler):
    """Select packets ``phase, phase + k, phase + 2k, ...``.

    The selection is :class:`~repro.core.sampling.StreamingSystematic`'s
    kernel, run over the whole trace.

    Parameters
    ----------
    granularity:
        The bucket size k (reciprocal of the sampling fraction 1/k).
    phase:
        Offset of the first selected packet, in ``[0, k)``.
    """

    name = "systematic"

    def __init__(self, granularity: int, phase: int = 0) -> None:
        StreamingSystematic(granularity, phase)  # checks both
        self.granularity = granularity
        self.phase = phase

    def sample_indices(
        self, trace: Trace, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        selector = StreamingSystematic(self.granularity, self.phase)
        return selector.kept_positions(trace.timestamps_us)

    def parameters(self) -> Dict[str, float]:
        return {"granularity": float(self.granularity), "phase": float(self.phase)}
