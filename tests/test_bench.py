import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_bench_quick_checks_pass():
    # every benchmark workload on a few inputs, each output checked against
    # oracles that share no code with topzeta; exits non-zero on any problem
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = re.findall(r"^(\S+): (\d+) ops, .*, (\d+) problems$", proc.stdout, re.M)
    assert sorted(name for name, _, _ in lines) == ["cli-cold", "germ-ladder", "product-docs"]
    assert all(int(ops) > 0 and problems == "0" for _, ops, problems in lines)


def test_tracer_installs_on_every_traced_function():
    # the tracer looks up each function of TRACED by name; a renamed or
    # deleted one makes install() raise, which would break --trace 1
    script = "from tracer import Tracer; t = Tracer(); t.install(); t.uninstall()"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        cwd=ROOT, env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'bench'}", "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
