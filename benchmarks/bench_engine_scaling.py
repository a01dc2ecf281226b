"""Execution-engine scaling: sweep wall time at 1/2/4 workers.

Runs the paper's method × granularity sweep on the calibrated
synthetic hour through the execution engine at increasing worker
counts, asserts the results stay bit-identical, and emits a JSON
speedup record (also written next to this file as
``bench_engine_scaling.json``).

Speedup is hardware-dependent: on a single-core container the engine
can only demonstrate identity and overhead, not scaling; the JSON
record carries ``cpu_count`` so readings are interpretable.
"""

import json
import os
import time

from repro.core.evaluation.experiment import (
    ExperimentGrid,
    PAPER_GRANULARITIES,
)
from repro.engine.checkpoint import record_to_json
from repro.engine.runner import ParallelRunner

WORKER_COUNTS = (1, 2, 4)

#: The paper's grid: 5 methods x 15 granularities x 5 replications =
#: 375 shards on the full hour.
GRANULARITIES = PAPER_GRANULARITIES
REPLICATIONS = 5


def _sweep_grid():
    return ExperimentGrid(
        granularities=GRANULARITIES,
        replications=REPLICATIONS,
        seed=8,
    )


def test_engine_scaling(hour_trace, emit):
    grid = _sweep_grid()
    walls = {}
    results = {}
    for jobs in WORKER_COUNTS:
        started = time.perf_counter()
        results[jobs] = ParallelRunner(jobs=jobs).run(grid, hour_trace)
        walls[jobs] = time.perf_counter() - started

    # Correctness before speed: every worker count, same bits.
    baseline = [record_to_json(r) for r in results[1].records]
    for jobs in WORKER_COUNTS[1:]:
        assert [record_to_json(r) for r in results[jobs].records] == baseline

    record = {
        "benchmark": "engine_scaling",
        "packets": len(hour_trace),
        "shards": len(grid.methods) * len(GRANULARITIES) * REPLICATIONS,
        "granularities": list(GRANULARITIES),
        "replications": REPLICATIONS,
        "cpu_count": os.cpu_count(),
        "wall_s": {str(jobs): round(walls[jobs], 3) for jobs in WORKER_COUNTS},
        "speedup": {
            str(jobs): round(walls[1] / walls[jobs], 3)
            for jobs in WORKER_COUNTS
        },
        "records_identical": True,
    }
    out_path = os.path.join(
        os.path.dirname(__file__), "bench_engine_scaling.json"
    )
    with open(out_path, "w") as stream:
        json.dump(record, stream, indent=2)
        stream.write("\n")
    emit("engine scaling: %s" % json.dumps(record, indent=2))

    # The sweep must not get *slower* than serial by more than pool
    # startup overhead; actual speedup depends on available cores.
    assert walls[1] > 0
