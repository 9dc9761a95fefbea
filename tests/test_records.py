"""The thirteen records that were frozen dataclasses are named tuples with
the fields, defaults and reprs they had, and no pathtrace class is a frozen
dataclass."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import pathtrace
from pathtrace import attacks, crypto, matrix, privacy, scenario
from pathtrace import trace as tr
from pathtrace.network import AdvModel

P = crypto.TEST_PARAMS
PUB = crypto.ElgamalPublic(P, 8)
PRIV = crypto.ElgamalPrivate(P, 3, PUB)
GAME = privacy.PrivacyGame(privacy.GameKind.TAG, "rfchain")
PARAMS_REPR = "ElgamalParams(p=23, q=11, g=2)"
PUB_REPR = f"ElgamalPublic(params={PARAMS_REPR}, h=8)"
PRIV_REPR = f"ElgamalPrivate(params={PARAMS_REPR}, x=3, public={PUB_REPR})"
GAME_REPR = (
    "PrivacyGame(kind=<GameKind.TAG: 'tag-unlinkability'>, protocol='rfchain',"
    " distinguisher='random', trials=500, seed=0, mode='default',"
    " adversary=<AdvModel.ADV_T: 'AdvT'>, worlds=32)"
)

# (record, a field, the repr the frozen dataclass printed)
RECORDS = [
    (crypto.SigningKey("k1", b"\x01"), "secret", "SigningKey(key_id='k1', secret=b'\\x01')"),
    (crypto.VerifyKey("k1", b"\x01"), "key_id", "VerifyKey(key_id='k1', secret=b'\\x01')"),
    (PUB, "h", PUB_REPR),
    (PRIV, "x", PRIV_REPR),
    (crypto.Ciphertext(P, 4, 9), "c2", f"Ciphertext(params={PARAMS_REPR}, c1=4, c2=9)"),
    (crypto.BoxPublic("r1", PUB), "pub", f"BoxPublic(key_id='r1', pub={PUB_REPR})"),
    (crypto.BoxPrivate("r1", PRIV), "priv", f"BoxPrivate(key_id='r1', priv={PRIV_REPR})"),
    (GAME, "trials", GAME_REPR),
    (privacy.GameResult(GAME, 10, 7), "wins", f"GameResult(game={GAME_REPR}, trials=10, wins=7)"),
    (
        matrix.MatrixRow("ray", "centralized", "AdvT", "none", "AdvT[1]", "none", (1,)),
        "privacy",
        "MatrixRow(protocol='ray', architecture='centralized', sound_sorted='AdvT',"
        " complete='none', authorized='AdvT[1]', privacy='none', footnotes=(1,))",
    ),
    (
        attacks.AttackSpec("ray", "sorted", ("seed",), {"seed": 0}, {"seed": int}, True, None),
        "check",
        "AttackSpec(scheme='ray', violates='sorted', settings=('seed',), keywords={'seed': 0},"
        " types={'seed': <class 'int'>}, drives_run=True, check=None)",
    ),
    (
        scenario.MatrixDirective("sound_sorted", "hold", "AdvT"),
        "model",
        "MatrixDirective(prop='sound_sorted', action='hold', model='AdvT', footnote=None)",
    ),
    (
        tr.SystemVerdict({"sound": True, "complete": False}, {"complete": (0, 2)}),
        "holds",
        "SystemVerdict(holds={'sound': True, 'complete': False},"
        " counterexamples={'complete': (0, 2)})",
    ),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record,name,_", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, name, _):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) is before


@pytest.mark.parametrize("record,_,text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(record, _, text):
    assert repr(record) == text


def test_privacy_game_defaults():
    assert GAME == privacy.PrivacyGame(
        privacy.GameKind.TAG, "rfchain", "random", 500, 0, "default", AdvModel.ADV_T, 32
    )
    step = privacy.PrivacyGame(
        privacy.GameKind.STEP, "tracker", "transcript", 40, 7, "linked", AdvModel.ADV_R, 8
    )
    assert repr(step) == (
        "PrivacyGame(kind=<GameKind.STEP: 'step-unlinkability'>, protocol='tracker',"
        " distinguisher='transcript', trials=40, seed=7, mode='linked',"
        " adversary=<AdvModel.ADV_R: 'AdvR'>, worlds=8)"
    )


def test_matrix_directive_defaults():
    directive = scenario.MatrixDirective("complete", "break", footnote=2)
    assert (directive.model, directive.footnote) == (None, 2)
    assert repr(directive) == (
        "MatrixDirective(prop='complete', action='break', model=None, footnote=2)"
    )


def test_no_pathtrace_class_is_a_frozen_dataclass():
    frozen = []
    for info in pkgutil.walk_packages(pathtrace.__path__, "pathtrace."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or not dataclasses.is_dataclass(cls):
                continue
            if cls.__dataclass_params__.frozen:
                frozen.append(f"{module.__name__}.{name}")
    assert frozen == []
