"""Every output ``pins.py`` computes against ``pins.json``: a changed RNG
draw order, which two runs of the same code cannot show, fails its key."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pins import manifest, outputs

OUTPUTS = outputs()
PINNED = manifest()
HERE = Path(__file__).resolve().parent


def test_manifest_pins_every_output():
    assert sorted(PINNED) == sorted(OUTPUTS)


@pytest.mark.parametrize("key", sorted(OUTPUTS))
def test_output_pinned(key):
    assert OUTPUTS[key]() == PINNED.get(key)


def test_manifest_does_not_depend_on_the_hash_seed():
    # tags and transits are kept in sets of strings, whose order follows the
    # hash seed: a report that iterates over one would differ between seeds
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "pins.py")],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for seed in ("0", "1")
    ]
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert err == b"" and run.returncode == 0
        assert out == (HERE / "pins.json").read_bytes()
