"""Every output ``pins.py`` computes against ``pins.json``: a changed RNG
draw order, which two runs of the same code cannot show, fails its key."""

import pytest

from pins import manifest, outputs

OUTPUTS = outputs()
PINNED = manifest()


def test_manifest_pins_every_output():
    assert sorted(PINNED) == sorted(OUTPUTS)


@pytest.mark.parametrize("key", sorted(OUTPUTS))
def test_output_pinned(key):
    assert OUTPUTS[key]() == PINNED.get(key)
