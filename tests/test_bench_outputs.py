"""The benchmark's own output checks pass on the library as it stands.

``perfbench/workloads.py`` checks each pass's outputs against digests
committed beside it (``perfbench/digests.json``): the scale canary's
report bytes and the corpus matrix report.  It checks every audit verdict
and label set against the frozen oracles.  Running those checks here
makes a report-byte or verdict drift fail the test suite, not only the
benchmark.
The module is loaded from its file; nothing under ``perfbench/`` is
written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from pathtrace.protocols.tracker import PathPolyModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up while it executes
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    saved = {name: sys.modules.get(name) for name in ("reference", "perfbench_workloads")}
    try:
        _load("reference", "reference.py")  # imported by name in workloads.py
        yield _load("perfbench_workloads", "workloads.py")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_scale_canary_matches_the_committed_digests(workloads):
    res = workloads.PassResult()
    workloads.check_scale_canary(res)
    assert res.attempted and res.failed == 0, res.problems


def test_corpus_pass_matches_the_committed_digest(workloads):
    res = workloads.run_corpus_pass(workloads.prepare_corpus(0))
    assert res.attempted and res.failed == 0, res.problems


def test_audit_pass_matches_the_oracles(workloads):
    res = workloads.run_audit_pass(workloads.prepare_audit(0))
    assert res.attempted and res.failed == 0, res.problems


def test_scale_canary_matches_without_remembered_states(workloads, monkeypatch):
    # every Tracker and Checker state takes the generic path
    monkeypatch.setattr(PathPolyModel, "_remember", lambda self, tag, state: None)
    res = workloads.PassResult()
    workloads.check_scale_canary(res)
    assert res.attempted and res.failed == 0, res.problems
