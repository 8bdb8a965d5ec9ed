"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run prints the result line the benchmark contract describes: every
end-to-end (untraced) or per-layer (traced) metric named in BENCHMARK.json
with its unit, no failed operation, op_p90_s and ops_failed_frac in the
report, and traced outputs identical to untraced ones.  It then copies
BENCHMARK.json and bench/ into an empty directory and checks that the
benchmark refuses to run there.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace)], ROOT)
            tag = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}"
                                f" attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")
            report = "\n".join(lines[:-1])
            for pattern in (r"op_p90_s\s+\S", r"ops_failed_frac\s+0 "):
                if not re.search(pattern, report):
                    problems.append(f"{tag}: report lacks {pattern!r}")
        print(f"checked {workload}", flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "point_rate", "--seconds", "1"], bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a directory without the sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
