"""The benchmark's seed-0 reports, pinned byte for byte.

``perfbench/run.py`` prints ``report_sha256``, the sha256 over the stable
digest of each op's report in op order. This test builds the same seed-0 ops
for both workloads and runs them through the benchmark's own ``analyze``, so
a speed-up that changes any report byte fails here and not only in a manual
benchmark run. The program is handed over as the already-imported modules:
``run.import_program`` would purge csglab from ``sys.modules`` under the rest
of the session.
"""

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import csglab.analysis
import csglab.dynamics
import csglab.io

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED0_REPORT_SHA256 = {
    "sym-sp": "4c08302bde3ae5fa8fce49aeedb4a8ae89ef16517d31ded98954de8cc387e25e",
    "asym-dag": "734933f6f7270189cfb060bb24ee261b0a81602e050e1a7fb4c4fd5013fe4906",
}


@pytest.mark.parametrize("workload", sorted(SEED0_REPORT_SHA256))
def test_seed0_report_digest_is_unchanged(workload):
    program = SimpleNamespace(io=csglab.io, analysis=csglab.analysis, dynamics=csglab.dynamics)
    ops = workloads.WORKLOADS[workload](0)
    digests = b"".join(run.stable_digest(run.analyze(program, op)) for op in ops)
    assert hashlib.sha256(digests).hexdigest() == SEED0_REPORT_SHA256[workload]
