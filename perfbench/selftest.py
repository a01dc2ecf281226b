"""Self-test of the benchmark on tiny (60 s) inputs.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For every workload of ``BENCHMARK.json``, in both modes, it checks that
the result line names exactly the declared metrics, each with its
declared unit; that the run was correct with no failed operation; that
the traced stage times plus ``other_s`` add up to the traced wall time;
and that the record line states the seed, the machine and the input
sizes.  Last, it checks that the benchmark fails, printing no result,
in a directory holding only ``BENCHMARK.json`` and the benchmark.
Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def _check_run(spec: dict, stages: list, workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (where, done.returncode, done.stderr))
    lines = done.stdout.splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("%s: result keys %s" % (where, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError("%s: correct=%s failed=%s attempted=%s" % (
            where, result["correct"], result["failed"], result["attempted"]))
    if record["failed_share"] != 0:
        raise AssertionError("%s: failed_share %s" % (where, record["failed_share"]))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    if emitted != declared:
        raise AssertionError("%s: metrics differ from BENCHMARK.json: %s" % (
            where, sorted(set(emitted.items()) ^ set(declared.items()))))
    for key in ("seed", "cpu_count", "python", "numpy"):
        if record.get(key) is None:
            raise AssertionError("%s: record lacks %s" % (where, key))
    for key in ("trace_packets", "pcap_bytes", "packets_per_pass", "operations_per_pass"):
        if not record["inputs"].get(key):
            raise AssertionError("%s: record lacks input size %s" % (where, key))
    if trace:
        values = {name: value["value"] for name, value in result["metrics"].items()}
        total = sum(values[stage] for stage in stages) + values["other_s"]
        if abs(total - values["traced_wall_s"]) > 1e-9 * max(1.0, values["traced_wall_s"]):
            raise AssertionError("%s: stages + other_s = %r, traced wall %r" % (
                where, total, values["traced_wall_s"]))
    print("ok  %s" % where)


def _check_bare(workload: str) -> None:
    """Only BENCHMARK.json and the benchmark: it must fail, with no result."""
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError("bare directory: exit %d, stdout %r" % (done.returncode, done.stdout))
    print("ok  fails without the program source")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import STAGES

    try:
        for entry in spec["workloads"]:
            for trace in (0, 1):
                _check_run(spec, list(STAGES), entry["name"], trace)
        _check_bare(spec["workloads"][0]["name"])
    except AssertionError as error:
        print("FAIL %s" % error)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
