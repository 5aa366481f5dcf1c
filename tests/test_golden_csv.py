"""Byte-identity guard on CLI output.

Refactors must leave ``trajectory.csv`` byte for byte unchanged, and the
text that ``check``, ``compare`` and ``isotropy`` print as well. Each
case below runs the CLI for a short time (t_end = 0.05, default step and
initial state) and compares the sha256 of the CSV, or of stdout plus the
exit code, with a recorded digest. A change that alters the output on
purpose updates the digests here in the same change and gives the
reason in CHANGES.md; print the new digests with

    PYTHONPATH=src python tests/test_golden_csv.py

The ``run`` and ``compare`` outputs do not depend on the BLAS kernel:
the fused kernels and the diagnostics pass do their small linear algebra
in float code and column accumulations of one fixed order. One test runs
them under several OpenBLAS core types. The ``check`` and ``isotropy``
texts still read an SVD, which follows the BLAS kernel.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from dirac_thermo import cli

GOLDEN = {
    ("piston", "lagrangian"):
        "2b8c59403b2d5f4e52b2e58dfe9ca847cf53a1b76b40534fc72cc82807b43eba",
    ("piston", "hamilton-dirac-N"):
        "2b8c59403b2d5f4e52b2e58dfe9ca847cf53a1b76b40534fc72cc82807b43eba",
    ("piston", "implicit-P"):
        "4df110fcb72ef478c84337977ab3996e77df44fe28006ef03f3f70f1974ddc65",
    ("membrane", "lagrangian"):
        "54449197445cc66a094d25504e908d750d15e46b85506e8bbfd5125ff0d9ecd6",
    ("membrane", "hamilton-dirac-N"):
        "fcd33d830a77469255285efa4f4ca5a768707e2b7114c861ab6af675df884716",
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


# OpenBLAS kernels picked by ``OPENBLAS_CORETYPE`` (None: the host's own),
# from AVX-512 hosts down to SSE3
CORETYPES = (None, "Haswell", "Sandybridge", "Prescott")


def portable_digests() -> dict:
    """The digests of every ``GOLDEN`` and ``GOLDEN_FAILURE`` run and of
    ``compare`` on each model, by case, in this process."""
    out = {}
    for key in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            out[f"run {key}"] = csv_digest(tmp, *key)
    for key in sorted(GOLDEN_FAILURE):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(tmp, key[0], formulation=key[1])
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                out[f"run {key}"] = [cli.main(["run", "--config", cfg]), err.getvalue()]
    for kind in ("piston", "membrane", "reactions"):
        with tempfile.TemporaryDirectory() as tmp:
            out[f"compare {kind}"] = list(text_digest(tmp, "compare", kind))
    return out


def test_run_and_compare_do_not_depend_on_the_blas_kernel():
    # one fresh process per core type, the variable set in that child's
    # environment only, all at once: each must print the recorded digests
    tests = pathlib.Path(__file__).resolve().parent
    probe = "import json, test_golden_csv as g; print(json.dumps(g.portable_digests()))"
    children = []
    for coretype in CORETYPES:
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", cli.SEED_ENV)}
        env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        children.append(subprocess.Popen([sys.executable, "-c", probe], env=env, cwd=tests,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        outputs.append(json.loads(out))
    want = {f"run {key}": digest for key, digest in GOLDEN.items()}
    want.update({f"run {key}": list(failure) for key, failure in GOLDEN_FAILURE.items()})
    want.update({f"compare {kind}": list(GOLDEN_TEXT["compare", kind])
                 for kind in ("piston", "membrane", "reactions")})
    for coretype, got in zip(CORETYPES, outputs):
        assert got == want, coretype


if __name__ == "__main__":
    os.environ.pop(cli.SEED_ENV, None)
    for key in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {key!r}: {csv_digest(tmp, *key)!r},")
    for verb in ("check", "compare", "isotropy"):
        for kind in ("piston", "membrane", "reactions"):
            with tempfile.TemporaryDirectory() as tmp:
                print(f"    {(verb, kind)!r}: {text_digest(tmp, verb, kind)!r},")
