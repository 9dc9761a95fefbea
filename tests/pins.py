"""Every pinned output of pathtrace, computed by name with the stdlib only.

``outputs()`` maps each key of ``pins.json`` to a zero-argument function
computing its value.  ``matrix`` and ``attack/<name>`` pin ``[exit code,
SHA-256 of stdout]`` of that ``pathtrace`` command.  Every other key pins
the SHA-256 of a report's newline-joined lines: ``corpus/<scenario>``,
``report/<protocol>/<mode>``, ``foreign/<protocol>/<kind>`` and each game
``game/<protocol>/<mode>/<kind>/<distinguisher>/<adversary>`` at 120
trials, 8 worlds and seed 3, or else the name of the exception refusing it;
``kat/<name>`` pins the hex of a crypto kernel's output.

With ``src`` on ``PYTHONPATH`` and no arguments, it prints the manifest:
``python tests/pins.py > tests/pins.json`` re-pins, and
``python tests/pins.py | diff tests/pins.json -`` checks an interpreter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from functools import partial
from pathlib import Path

from pathtrace import crypto
from pathtrace.attacks import ATTACKS
from pathtrace.cli import main
from pathtrace.network import AdvModel
from pathtrace.privacy import DISTINGUISHERS, GameKind, PrivacyGame, run_game
from pathtrace.protocols import PROTOCOLS, RunConfig, build_run, finalize, run_protocol
from pathtrace.scenario import corpus_dir, run_scenario


def with_manager(cfg: RunConfig) -> RunConfig:
    """``cfg``, and for Tracker its manager m, a reader on no path."""
    if cfg.protocol == "tracker":
        cfg.readers.append(("m", None))
        cfg.params["manager"] = "m"
    return cfg


def honest_config(protocol: str, seed: int = 7) -> RunConfig:
    """One tag travelling r1-w-r2-r3 (w is a bare transit) plus a claim."""
    cfg = RunConfig.along(
        protocol, {"t1": ("r1", "r2", "r3")}, seed=seed, transits=["w"],
        script=[("move", "t1", r) for r in ("r1", "w", "r2", "r3")] + [("claim", "t1")],
    )
    if protocol == "rfchain":
        cfg.valid_paths = []
    return with_manager(cfg)


MULTI_PATHS = {"t1": ("r1", "r2", "r3"), "t2": ("r2", "r4", "r1"), "t3": ("r4", "r3", "r2")}

# the multi-tag worlds whose reports are pinned
MULTI_TAG_RUNS = sorted([(p, "default") for p in PROTOCOLS] + [("rfchain", "patched")])


def multi_tag_config(protocol: str, mode: str = "default") -> RunConfig:
    """Three tags on their own 3-hop paths over four readers; the visits
    interleave hop by hop, then every tag is claimed in a fixed order."""
    tags = sorted(MULTI_PATHS)
    script = [("move", t, MULTI_PATHS[t][hop]) for hop in range(3) for t in tags]
    script += [("claim", t) for t in ("t2", "t3", "t1")]
    return with_manager(RunConfig(
        protocol=protocol,
        seed=29,
        mode=mode,
        readers=[("r1", "acme"), ("r2", "bolt"), ("r3", "crate"), ("r4", "dock")],
        tags=tags,
        valid_paths=[] if protocol == "rfchain" else sorted(MULTI_PATHS.items()),
        script=script,
        capacities={t: 8192 for t in tags},
    ))


def foreign_run(protocol: str, kind: str):
    """t1 and t2 visit r1; then ``kind`` replaces a state the model wrote,
    and the tag that presents it visits r2 and r3 and is claimed."""
    cfg = honest_config(protocol)
    cfg.tags.append("t2")
    cfg.valid_paths.append(("t2", ("r1", "r2")))
    cfg.capacities["t2"] = cfg.capacities["t1"]
    model, run = build_run(cfg)
    model.visit("t1", "r1")
    model.visit("t2", "r1")
    tag = "t2" if kind == "cloned" else "t1"
    if kind == "modified":
        # the accumulator's c2 times g: still a group element, another path
        def strategy(env, net):
            if (env.sender, env.receiver) != ("t1", "r2"):
                return env.payload
            c2 = crypto.bytes_to_int(env.payload[-8:]) * model.params.g % model.params.p
            return env.payload[:-8] + crypto.int_to_bytes(c2)

        run.net.strategy = strategy
    elif kind == "cloned":
        for name in model.STATE:
            run.memory("t2").store(name, run.memory("t1").load(name))
    else:
        rng = random.Random(3)
        state = model._read_state(model._state_blob("t1"))
        for name, ct in zip(model.STATE, state):
            run.memory("t1").store(name, crypto.rerandomize(model.pub, ct, rng).to_bytes())
    for reader in ("r2", "r3"):
        model.visit(tag, reader)
    model.claim(tag)
    return finalize(model, run)


# each crypto kernel's known answer, pinned when the kernels were byte-wise
# loops: a rewritten kernel must reproduce it exactly
KAT_KEY = bytes(range(32))
KAT_TEXT = b"pathtrace known-answer plaintext, 45 bytes.."
KNOWN_ANSWERS = {
    "mac": (crypto.mac, KAT_KEY, KAT_TEXT),
    "sym_enc": (crypto.sym_enc, KAT_KEY, KAT_TEXT),
    "sym_enc-empty": (crypto.sym_enc, KAT_KEY, b""),
    "xor_stream": (crypto.xor_stream, KAT_TEXT, b"stream-key"),
    "expand_key": (crypto.expand_key, b"short-key", 80),
}


def sha256_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _report(run, *args) -> str:
    return sha256_lines(run(*args).report_lines())


def _stdout(*argv: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def _hex(kernel, *args) -> str:
    return kernel(*args).hex()


def _game(game: PrivacyGame) -> str:
    try:
        return sha256_lines(run_game(game).report_lines())
    except Exception as exc:
        return type(exc).__name__


def outputs() -> dict:
    """Each pinned key mapped to the zero-argument function computing it."""
    pins = {"matrix": partial(_stdout, "matrix")}
    for name in ATTACKS:
        pins[f"attack/{name}"] = partial(_stdout, "attack", name)
    for name, (kernel, *args) in KNOWN_ANSWERS.items():
        pins[f"kat/{name}"] = partial(_hex, kernel, *args)
    for path in corpus_dir().glob("*.scn"):
        pins[f"corpus/{path.stem}"] = partial(_report, run_scenario, path)
    for protocol, mode in MULTI_TAG_RUNS:
        config = multi_tag_config(protocol, mode)
        pins[f"report/{protocol}/{mode}"] = partial(_report, run_protocol, config)
    for protocol in ("tracker", "checker"):
        for kind in ("modified", "cloned", "tests-built"):
            pins[f"foreign/{protocol}/{kind}"] = partial(_report, foreign_run, protocol, kind)
    for protocol, scheme in PROTOCOLS.items():
        for mode, kind, distinguisher, adversary in itertools.product(
            scheme.modes, GameKind, DISTINGUISHERS, AdvModel
        ):
            game = PrivacyGame(
                kind=kind, protocol=protocol, distinguisher=distinguisher,
                trials=120, seed=3, mode=mode, adversary=adversary, worlds=8,
            )
            key = f"game/{protocol}/{mode}/{kind.value}/{distinguisher}/{adversary.value}"
            pins[key] = partial(_game, game)
    return pins


def manifest() -> dict:
    """The pinned values, as ``pins.json`` holds them."""
    return json.loads(Path(__file__).with_name("pins.json").read_text())


if __name__ == "__main__":
    print(json.dumps({key: f() for key, f in outputs().items()}, indent=1, sort_keys=True))
