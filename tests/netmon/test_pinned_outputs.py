"""Pinned outputs of the netmon collection model.

These values come from the public entry points only — the Figure 1
history, the ``netmon`` subcommand and the port-monitoring example — so
they hold whatever shape the collection node takes inside.  A change to
the node, its per-second loop or its CPU budget that moves any number
the paper's Section 2 story is told with fails here.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from repro.cli import main
from repro.netmon.figure1 import simulate_collection_history

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

#: The Figure 1 benchmark's schedule (benchmarks/bench_fig1_discrepancy.py).
MONTHLY_LOAD = (150, 250, 400, 600, 800, 1000, 1000, 1100)

#: (SNMP, categorized) packets per month on that schedule.
PINNED_MONTHS = [
    (8862, 8862),
    (13168, 13168),
    (23028, 22961),
    (34530, 29338),
    (46538, 29997),
    (60529, 60550),
    (60999, 61000),
    (71571, 71600),
]

PINNED_NETMON_FULL = """\
collector budget 300 pps, sampling 1-in-1
  SNMP forwarding-path total:       260381 packets
  collector estimate:               179645 packets
  dropped by collector:              80736 selected packets
  discrepancy:                      31.01%
"""

PINNED_NETMON_SAMPLED = """\
collector budget 300 pps, sampling 1-in-50
  SNMP forwarding-path total:       260381 packets
  collector estimate:               260400 packets
  dropped by collector:                  0 selected packets
  discrepancy:                      -0.01%
"""

PINNED_PORT_MONITORING = """\
node enss-t3: 258091 packets forwarded, 5163 sampled for characterization (1-in-50 per subsystem)

port         estimate    95% Wilson interval      truth  covered
20/ftp-data     46.49% [  45.10%,   47.88%]     46.25%      yes
23/telnet       6.68% [   6.02%,    7.41%]      6.55%      yes
25/smtp        13.24% [  12.32%,   14.21%]     13.04%      yes
53/dns          4.48% [   3.94%,    5.09%]      4.18%      yes
119/nntp       29.12% [  27.87%,   30.40%]     29.99%      yes

the sampled object never saw 98% of the packets, yet every well-known \
port's share is pinned to a fraction of a percent — the Section 8 \
proportion extension in operation.
"""


def test_figure1_months():
    months = simulate_collection_history(
        MONTHLY_LOAD, collector_capacity_pps=500, sampling_deployed_at=5
    )
    assert [
        (m.snmp_packets, m.categorized_packets) for m in months
    ] == PINNED_MONTHS


def test_netmon_command_full_examination(capsys):
    assert main(["netmon", "synthetic", "--capacity", "300"]) == 0
    assert capsys.readouterr().out == PINNED_NETMON_FULL


def test_netmon_command_sampled(capsys):
    assert main(
        ["netmon", "synthetic", "--capacity", "300", "--granularity", "50"]
    ) == 0
    assert capsys.readouterr().out == PINNED_NETMON_SAMPLED


def test_port_monitoring_example():
    spec = importlib.util.spec_from_file_location(
        "pinned_port_monitoring", EXAMPLES_DIR / "port_monitoring.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        module.main()
    assert buffer.getvalue() == PINNED_PORT_MONITORING
