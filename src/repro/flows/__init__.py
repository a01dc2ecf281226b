"""Flow-level traffic analysis: accounting, sampling, inversion.

The packet-level paper's successors study traffic at the *flow* level;
this subsystem provides the three pieces that makes that possible on
the repo's synthetic traces:

* :mod:`repro.flows.table` — a streaming NetFlow-style flow cache
  (5-tuple keys, idle/active timeouts, bounded memory) exporting
  immutable :class:`~repro.flows.table.FlowRecord` objects;
  :mod:`repro.flows.chunked` feeds it a chunk at a time with numpy
  kernels, bit-identically to per-packet feeding, and exports each
  chunk's flows as one columnar :class:`~repro.flows.batch.FlowBatch`
  (:mod:`repro.flows.batch`), the format every population holds;
* :mod:`repro.flows.sampled` — parent and sampled flow populations
  produced by driving the existing samplers through the flow table,
  plus a passive streaming accountant for the online path;
* :mod:`repro.flows.inversion` — estimators that recover parent flow
  statistics from 1-in-N sampled flows (naive rescaling, Chabchoub
  tail rescaling, binned EM inversion), scored with the repo's own
  disparity metrics.
"""

from repro.flows.batch import FlowBatch
from repro.flows.chunked import fast_aggregate_trace
from repro.flows.inversion import (
    EstimateScore,
    FlowSizeEstimate,
    TailFit,
    TailRescaling,
    chabchoub_estimate,
    compare_estimators,
    em_invert,
    fit_tail,
    naive_estimate,
    score_estimate,
)
from repro.flows.sampled import (
    FLOW_SIZE_BINS,
    NULL_ACCOUNTANT,
    FlowSet,
    FlowStudy,
    NullFlowAccountant,
    StreamFlowAccountant,
    flow_study,
    flow_summary,
    parent_flows,
    sampled_flows,
    shard_flow_summary,
    study_from_result,
)
from repro.flows.table import (
    DEFAULT_ACTIVE_TIMEOUT_US,
    DEFAULT_IDLE_TIMEOUT_US,
    FlowKey,
    FlowRecord,
    FlowTable,
    aggregate_trace,
    iter_flow_keys,
)

__all__ = [
    "DEFAULT_ACTIVE_TIMEOUT_US",
    "DEFAULT_IDLE_TIMEOUT_US",
    "EstimateScore",
    "FLOW_SIZE_BINS",
    "FlowBatch",
    "FlowKey",
    "FlowRecord",
    "FlowSet",
    "FlowSizeEstimate",
    "FlowStudy",
    "FlowTable",
    "NULL_ACCOUNTANT",
    "NullFlowAccountant",
    "StreamFlowAccountant",
    "TailFit",
    "TailRescaling",
    "aggregate_trace",
    "chabchoub_estimate",
    "compare_estimators",
    "em_invert",
    "fast_aggregate_trace",
    "fit_tail",
    "flow_study",
    "flow_summary",
    "iter_flow_keys",
    "naive_estimate",
    "parent_flows",
    "sampled_flows",
    "score_estimate",
    "shard_flow_summary",
    "study_from_result",
]
