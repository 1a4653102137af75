"""The benchmark's tracer binds names in src/modunits by attribute lookup, so
a rename or a deletion there breaks perfbench/run.py --trace 1.  This runs the
tracer's install, layer_metrics and restore on the current source in a fresh
interpreter and reads nothing back from perfbench/ but its output."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer, install, layer_metrics
tracer = Tracer()
install(tracer)
names = sorted(layer_metrics(tracer))
print(json.dumps({"unrestored": tracer.restore(), "names": names}))
"""


def test_tracer_installs_and_restores_on_src():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60,
    )
    assert "AttributeError" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["unrestored"] == []
    # every per-layer figure the benchmark declares outside the trace.* set
    # comes from layer_metrics
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared if not m["name"].startswith("trace.")}
    assert wanted <= set(result["names"]), sorted(wanted - set(result["names"]))
