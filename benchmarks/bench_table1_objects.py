"""Table 1 — packet categorization objects on T1 and T3 nodes.

Reproduces the object catalog by standing up both node types, feeding
them the same traffic, and reporting which objects each maintains with
their headline counters.  The benchmark measures full-object-set
update throughput (the per-packet cost that motivated sampling).
"""

from repro.netmon.node import Node
from repro.netmon.objects import t1_object_set, t3_object_set
from repro.trace.filters import prefix_interval

#: Table 1 rows: object name -> (on T1, on T3).
TABLE1_ROWS = (
    ("source-destination matrix (net number)", True, True),
    ("TCP/UDP port distribution (well-known)", True, True),
    ("protocol-over-IP distribution", True, True),
    ("packet-length histogram (50-byte bins)", True, False),
    ("out-of-backbone packet volume", True, False),
    ("arrival-rate histogram (20 pps bins)", True, False),
    ("intra-NSFNET transit volume", True, False),
)


def test_table1_object_catalog(benchmark, hour_trace, emit):
    window = prefix_interval(hour_trace, 60 * 1_000_000)

    def run():
        node = Node(
            "t1-nss",
            interfaces=("t1",),
            granularity=1,
            capacity_pps=10**9,
            objects=t1_object_set(),
        )
        node.process_traces({"t1": window})
        return node

    node = benchmark(run)

    t1_names = {o.name for o in t1_object_set()}
    t3_names = {o.name for o in t3_object_set()}
    assert t3_names < t1_names or len(t3_names) == 3

    snapshot = node.snapshot()["objects"]
    matrix = node.objects[0]
    lines = ["Table 1: packet categorization objects (Y = maintained)"]
    lines.append("%-45s %4s %4s" % ("object", "T1", "T3"))
    for label, on_t1, on_t3 in TABLE1_ROWS:
        lines.append(
            "%-45s %4s %4s"
            % (label, "Y" if on_t1 else "-", "Y" if on_t3 else "N/A")
        )
    lines.append("")
    lines.append(
        "one minute through a T1 node: %d packets categorized into %d "
        "matrix pairs; busiest pair %s with %d packets"
        % (
            node.characterized_packets,
            len(snapshot["net-matrix"]["packets"]),
            matrix.top_pairs(1)[0][0],
            matrix.top_pairs(1)[0][1],
        )
    )
    emit("\n".join(lines))

    assert node.characterized_packets == len(window)
