"""Byte-identity guard on CLI output.

Refactors must leave ``trajectory.csv`` byte for byte unchanged, and the
text that ``check``, ``compare`` and ``isotropy`` print as well. Each
case below runs the CLI for a short time (t_end = 0.05, default step and
initial state) and compares the sha256 of the CSV, or of stdout plus the
exit code, with a recorded digest. A change that alters the output on
purpose updates the digests here in the same change and gives the
reason in CHANGES.md; print the new digests with

    PYTHONPATH=src python tests/test_golden_csv.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from dirac_thermo import cli

GOLDEN = {
    ("piston", "lagrangian"):
        "970667b24320828af48767bd8dfd5c0d9258737f3b426351b8002fd491b82bab",
    ("piston", "hamilton-dirac-N"):
        "2b8c59403b2d5f4e52b2e58dfe9ca847cf53a1b76b40534fc72cc82807b43eba",
    ("piston", "implicit-P"):
        "4df110fcb72ef478c84337977ab3996e77df44fe28006ef03f3f70f1974ddc65",
    ("membrane", "lagrangian"):
        "ff325bad3a129f0373f384599f58288e19eba6db90b29022cb73cb71dee9c466",
    ("membrane", "hamilton-dirac-N"):
        "af038798e890d3e3211eec89817a9fa7908e68a19a6b9322551caac94e65afc2",
    ("reactions", "lagrangian"):
        "18bbf62cc2396bc00299e428b2b3cc988ab49a58397577e08ecf44369878bf23",
    ("reactions", "implicit-P"):
        "b212b6f7139e9b9b1e643f9750226506f3d794de5cd86377a21cc57e4f700e56",
}

# (model kind, formulation) -> (exit code, stderr) of a run that fails
GOLDEN_FAILURE = {
    # the known Newton stall of ROADMAP item 1; the residual pins the n = 3 bits
    ("membrane", "implicit-P"): (
        4,
        "integration failed: implicit step did not converge: "
        "residual 1.280e-10 after 25 iterations\n",
    ),
}

# (verb, model kind) -> (sha256 of stdout, exit code)
GOLDEN_TEXT = {
    ("check", "membrane"):
        ("e784cef3f307a943e3246be7be883e917fca5bcc86eadaf233f5b7df74d1754e", 0),
    ("check", "piston"):
        ("f124375d04249234d616093f083f9ec30528c607d7c5d2c50ae4bc71151d4159", 0),
    ("check", "reactions"):
        ("29d9cc7c0726ce0cf84cdab5147d0f9d6e95ce03d3407714ed168d68b00e3d90", 0),
    ("compare", "membrane"):
        ("05368337f3bfca1d283ca7b2a330cafababc9c4d370b8af356f1b619bf093b9a", 0),
    ("compare", "piston"):
        ("9f8c8203b903a4f5f3628de4dd5314a5abc2da16c90a698134036e2117b0e661", 0),
    ("compare", "reactions"):
        ("52e1577a251e71f69c278d1cabcbf2109aa07b0ebf2a1757f65c41c95d0b1715", 0),
    ("isotropy", "membrane"):
        ("deeb66164be23a1bb053bae01569434a9ec3959e8c537a82ef2c83f413b5206c", 0),
    ("isotropy", "piston"):
        ("d9f918f4b4a5acaede441712607c42aeb3151958cff9e25aca35e13fb5203536", 0),
    ("isotropy", "reactions"):
        ("aef78ae8ca966cececd6ef94e14fd0ca1bcc30332989cd5ebce9fa37d8233ddb", 0),
}


def write_config(out_dir, kind, **extra):
    cfg = os.path.join(out_dir, "cfg.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"model": {"kind": kind}, "t_end": 0.05, "out": out_dir, **extra}, fh)
    return cfg


def csv_digest(out_dir, kind, formulation):
    cfg = write_config(out_dir, kind, formulation=formulation)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", cfg])
    assert code == 0, f"{kind}/{formulation} exited {code}"
    with open(os.path.join(out_dir, "trajectory.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def text_digest(out_dir, verb, kind):
    """sha256 of what ``verb`` prints on the default seed, and its exit code."""
    cfg = write_config(out_dir, kind)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([verb, "--config", cfg, "--t-end", "0.05"])
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


@pytest.mark.parametrize("kind,formulation", sorted(GOLDEN))
def test_run_csv_is_byte_identical(tmp_path, kind, formulation):
    assert csv_digest(str(tmp_path), kind, formulation) == GOLDEN[(kind, formulation)]


@pytest.mark.parametrize("kind,formulation", sorted(GOLDEN_FAILURE))
def test_failing_run_keeps_its_exit_and_message(tmp_path, kind, formulation):
    cfg = write_config(str(tmp_path), kind, formulation=formulation)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", cfg])
    assert (code, err.getvalue()) == GOLDEN_FAILURE[(kind, formulation)]


@pytest.mark.parametrize("verb,kind", sorted(GOLDEN_TEXT))
def test_cli_text_is_byte_identical(tmp_path, monkeypatch, verb, kind):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert text_digest(str(tmp_path), verb, kind) == GOLDEN_TEXT[(verb, kind)]


if __name__ == "__main__":
    os.environ.pop(cli.SEED_ENV, None)
    for key in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {key!r}: {csv_digest(tmp, *key)!r},")
    for verb in ("check", "compare", "isotropy"):
        for kind in ("piston", "membrane", "reactions"):
            with tempfile.TemporaryDirectory() as tmp:
                print(f"    {(verb, kind)!r}: {text_digest(tmp, verb, kind)!r},")
