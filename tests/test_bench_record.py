"""scripts/bench_record.py: one short recorded run, and its file compared with itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_record.py"


def test_record_one_run_and_compare_it_with_itself(tmp_path):
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, SCRIPT, "record", "--checkout", ROOT, out,
                    "--workloads", "enhance-long", "--seeds", "1", "--seconds", "1"],
                   check=True, capture_output=True, cwd=ROOT)
    data = json.loads(out.read_text())
    assert set(data) == {"command", "fingerprint", "runs"}
    assert data["command"] == ["python3", "perfbench/run.py", "--seconds", "1.0", "--trace", "0"]
    assert data["fingerprint"]
    [run] = data["runs"]
    assert set(run) == {"workload", "seed", "exit_code", "info", "result"}
    assert (run["workload"], run["seed"], run["exit_code"]) == ("enhance-long", 1, 0)
    assert (run["info"]["workload"], run["info"]["seed"], run["info"]["trace"]) == (
        "enhance-long", 1, 0)
    assert run["result"]["correct"] and run["result"]["metrics"]["ok_frac"]["value"] == 1.0

    done = subprocess.run([sys.executable, SCRIPT, "compare", out, out], check=True,
                          capture_output=True, text=True, cwd=ROOT)
    rows = done.stdout.splitlines()[1:]
    assert [row.split()[1] for row in rows] == list(run["result"]["metrics"])
    for row in rows:
        fields = row.split()
        assert fields[0] == "enhance-long"
        assert fields[2] == fields[3] and fields[4] in ("1.0000", "nan")
        assert fields[5] == "1/1"
