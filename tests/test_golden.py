"""Golden artifact digests: every artifact of a few small scenarios must
keep the sha256 recorded in tests/golden/digests.json, so a change that
moves the random realization by one draw, or a value by one ulp, fails
here instead of passing unnoticed.

The scenarios in tests/golden/*.yaml between them turn on the event trace,
a boundary switch and transparent relays, the dataplane load coupling, an
overdraw disconnect between two residual samples and one on a sample
instant, and the rover.

Every draw of a run is a Philox 4x64 raw word addressed by (stream,
index), turned into a uniform, an index or a normal by transforms in
`tilesim.core`, so the digests rest on numpy's raw Philox words, which
numpy keeps stable across versions, and on the platform's libm, through
`math.log1p`, `cos`, `sin` and `exp` (the square root, correctly rounded
under IEEE 754, runs in numpy).  The file records the numpy
and Python versions it was written with; the digests are compared under
any versions, and a mismatch names both.

Regenerate (only for a change that means to move the realization, and say
why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tilesim.orchestrator import run_scenario
from tilesim.scenario import load_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
SCENARIOS = sorted(p.stem for p in GOLDEN.glob("*.yaml"))


def _versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def artifact_digests(name: str, out_root: Path) -> dict[str, str]:
    """sha256 of every artifact one run of scenario `name` writes."""
    result = run_scenario(load_scenario(GOLDEN / f"{name}.yaml"), out_root)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(result.out_dir.iterdir())}


@pytest.mark.parametrize("name", SCENARIOS)
def test_artifacts_match_the_golden_digests(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    got = artifact_digests(name, tmp_path)
    want = recorded["scenarios"][name]
    if got != want:
        moved = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        pytest.fail(
            f"{name}: artifacts {moved} differ from tests/golden/digests.json; "
            f"recorded with numpy {recorded['numpy']} / Python "
            f"{recorded['python']}, running numpy {np.__version__} / Python "
            f"{platform.python_version()}")


def test_every_golden_scenario_has_digests():
    assert sorted(json.loads(DIGESTS.read_text())["scenarios"]) == SCENARIOS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite tests/golden/digests.json from this code")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        doc = dict(_versions(), scenarios={
            name: artifact_digests(name, Path(tmp) / name) for name in SCENARIOS})
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.write:
        DIGESTS.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
