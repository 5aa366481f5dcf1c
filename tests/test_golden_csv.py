"""Byte-identity guard on ``run`` output.

Refactors must leave ``trajectory.csv`` byte for byte unchanged. Each
case below runs the CLI for a short time (t_end = 0.05, default step and
initial state) and compares the sha256 of the CSV with a recorded
digest. A change that alters the output on purpose updates the digests
here in the same change and gives the reason in CHANGES.md; print the
new digests with

    PYTHONPATH=src python tests/test_golden_csv.py
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from dirac_thermo import cli

GOLDEN = {
    ("piston", "lagrangian"):
        "970667b24320828af48767bd8dfd5c0d9258737f3b426351b8002fd491b82bab",
    ("piston", "hamilton-dirac-N"):
        "2b8c59403b2d5f4e52b2e58dfe9ca847cf53a1b76b40534fc72cc82807b43eba",
    ("piston", "implicit-P"):
        "423fb88dc585acd36f65b71e51ddd11a5e44123437be42dfde6790283c0f79a7",
    ("membrane", "lagrangian"):
        "ff325bad3a129f0373f384599f58288e19eba6db90b29022cb73cb71dee9c466",
    ("membrane", "hamilton-dirac-N"):
        "af038798e890d3e3211eec89817a9fa7908e68a19a6b9322551caac94e65afc2",
    ("reactions", "lagrangian"):
        "18bbf62cc2396bc00299e428b2b3cc988ab49a58397577e08ecf44369878bf23",
}


def csv_digest(out_dir, kind, formulation):
    cfg = os.path.join(out_dir, "cfg.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"model": {"kind": kind}, "formulation": formulation,
                   "t_end": 0.05, "out": out_dir}, fh)
    code = cli.main(["run", "--config", cfg])
    assert code == 0, f"{kind}/{formulation} exited {code}"
    with open(os.path.join(out_dir, "trajectory.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("kind,formulation", sorted(GOLDEN))
def test_run_csv_is_byte_identical(tmp_path, kind, formulation):
    assert csv_digest(str(tmp_path), kind, formulation) == GOLDEN[(kind, formulation)]


if __name__ == "__main__":
    for key in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                digest = csv_digest(tmp, *key)
            finally:
                sys.stdout = stdout
        print(f"    {key!r}: {digest!r},")
