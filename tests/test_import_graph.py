"""What a ``rush`` command may load: the product never imports its oracles.

``repro.core.tas_lp`` (the §III-B LP baseline) is a reference the tests
and one ablation bench compare against; re-exporting it from
``repro.core`` made every command, ``import repro`` and every
``ServiceClient`` user pay for ``scipy.optimize`` (0.3 s, 40 MB) to
schedule nothing with it.  A fresh interpreter is the only honest probe:
this process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no shipped command needs (the retired flow-lint engine among
#: them: it must stay gone, not come back as a lazy import).
UNWANTED = ("scipy.optimize", "scipy.sparse", "scipy.linalg",
            "repro.core.tas_lp", "repro.lint.flow")

PROBE = """
import json, sys
import repro.cli
loaded = [name for name in {unwanted!r} if name in sys.modules]
try:
    from repro import solve_tas_lp
    reexported = True
except ImportError:
    reexported = False
# ... while the oracle is still there for whoever names it in full.
from repro.core.tas_lp import lp_feasible, solve_tas_lp
print(json.dumps({{"loaded": loaded, "reexported": reexported}}))
"""


def test_cli_import_graph_excludes_the_lp_oracle_and_flow_lint():
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(unwanted=UNWANTED)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == {"loaded": [], "reexported": False}
