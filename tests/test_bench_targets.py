"""Every library name the benchmark's traced mode wraps must still exist.

``perfbench/run.py --trace 1`` replaces the functions listed in
``perfbench/tracer.py`` by name at run time.  A rename or deletion under
``src/`` would otherwise surface only when someone runs the traced
benchmark.  The tracer is loaded from its file and nothing is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(module, attr) for module, attr, _, _ in _load_tracer().TARGETS]
TARGETS.append(("pathtrace.network", "Knowledge.__init__"))


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name,attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_target_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


def test_hook_argument_positions():
    # the byte and scan counters read these arguments by position
    transmit = inspect.signature(_resolve("pathtrace.network", "Network.transmit"))
    assert list(transmit.parameters)[3] == "payload"
    physical_path = inspect.signature(_resolve("pathtrace.trace", "physical_path"))
    assert list(physical_path.parameters)[2] == "upto"
