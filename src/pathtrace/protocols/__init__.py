"""Executable models of the seven traceability schemes.

Importing this package registers every scheme in ``PROTOCOLS``.
"""

from __future__ import annotations

from pathtrace.protocols.base import (
    DEFAULT_TAG_CAPACITY,
    PROTOCOLS,
    ProtocolModel,
    Run,
    RunConfig,
    RunResult,
    VerifierPolicyError,
    build_run,
    finalize,
    play,
    register_protocol,
    run_protocol,
)
from pathtrace.protocols.burbridge import Burbridge
from pathtrace.protocols.checker import Checker
from pathtrace.protocols.ray import Ray
from pathtrace.protocols.resc import Resc
from pathtrace.protocols.rfchain import RfChain
from pathtrace.protocols.stepauth import StepAuth
from pathtrace.protocols.tracker import Tracker

__all__ = [
    "DEFAULT_TAG_CAPACITY",
    "PROTOCOLS",
    "ProtocolModel",
    "Run",
    "RunConfig",
    "RunResult",
    "VerifierPolicyError",
    "Burbridge",
    "Checker",
    "Ray",
    "Resc",
    "RfChain",
    "StepAuth",
    "Tracker",
    "build_run",
    "finalize",
    "play",
    "register_protocol",
    "run_protocol",
]
