"""The decisions of the fixed, seeded outputs that tests/digest_outputs.py
digests: every exit code, v_m, no-motion flag, grid peak, unbracketed
verdict, best orientation and frame-bound verdict."""

import subprocess
import sys
from pathlib import Path

DIGEST_SCRIPT = Path(__file__).resolve().parent / "digest_outputs.py"
DECISION_DIGEST = "6c33e4c4ca08bbf8245134b05d5149a89e956f7e4ad943caabc6916dec61ccf7"


def test_the_decisions_of_the_seeded_outputs_are_pinned():
    # The byte digest on the line before may move with energies in their
    # last bits; the decisions taken from them may not.
    run = subprocess.run([sys.executable, str(DIGEST_SCRIPT)], capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    assert len(lines) == 2
    # The digest of each part's decisions, to be compared part by part with
    # a run of the same script on a checkout that reads the pinned digest.
    parts = [line for line in run.stderr.splitlines() if "  decisions: " in line]
    assert lines[-1].split() == [DECISION_DIGEST, "decisions"], "\n".join(parts)
