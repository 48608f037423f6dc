"""The quick demos run to completion.

Each demo that takes a couple of seconds or less runs in its own
interpreter and must exit 0, so that a change to an API a demo uses fails
here.  ``adaptive_tracking`` and ``update_direction_field`` take longer and
are left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK = ["detection_stages", "energy_saving", "false_alarm_paradox",
         "model_vs_simulation", "network_scaling", "tradeoffs"]


@pytest.mark.parametrize("name", QUICK)
def test_demo_exits_0(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
