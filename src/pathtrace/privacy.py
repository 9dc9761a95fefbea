"""Path privacy as seeded indistinguishability experiments.

Two game kinds, both two-window challenges with matched path lengths so
that nothing can be decided from shape alone:

* tag unlinkability — both windows show transcript slices of a tag's
  journey, separated by at least one unobserved step; the adversary says
  whether they belong to the same tag;
* step unlinkability — each window shows one tag's whole journey, the
  challenger having drawn the two registered paths either overlapping in
  at least one reader or fully disjoint; the adversary says whether the
  paths share a step.

A transcript is the sequence of payload bytes the Dolev-Yao adversary
observed during the windowed visits — no direction metadata, since both
worlds are built over the same reader universe.  RF-Chain additionally
gets a ledger-eye variant where the two windows are single ledger
records, optionally with one tag read as auxiliary input, which is the
setting of the record-linking attack.

Challenge worlds are pre-built in a small pool and re-drawn across
trials; every trial's world choice, hidden bit and any distinguisher
coin come from one seeded stream, so results reproduce bit-exactly.
Advantage thresholds used in reports (break above 0.99, hold below 0.1)
are conventions of this artifact, not measured constants of the schemes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable

from pathtrace import crypto
from pathtrace.attacks import link_record, read_rfchain_tag
from pathtrace.network import AdvModel, decompose
from pathtrace.protocols import PROTOCOLS, RunConfig, build_run
from pathtrace.protocols.ray import Ray
from pathtrace.protocols.resc import storage_bits
from pathtrace.protocols.stepauth import secret_size_bits
from pathtrace.stats import advantage as _advantage, wilson_interval


class UnsupportedGameError(Exception):
    """The protocol/distinguisher combination has no game support."""


class GameKind(enum.Enum):
    TAG = "tag-unlinkability"
    STEP = "step-unlinkability"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PrivacyGame:
    kind: GameKind
    protocol: str
    distinguisher: str = "random"
    trials: int = 500
    seed: int = 0
    mode: str = "default"
    adversary: AdvModel = AdvModel.ADV_T
    worlds: int = 32


@dataclass(frozen=True)
class GameResult:
    game: PrivacyGame
    trials: int
    wins: int

    @property
    def advantage(self) -> float:
        return _advantage(self.wins, self.trials)

    @property
    def ci(self) -> tuple[float, float]:
        return wilson_interval(self.wins, self.trials)

    def report_lines(self) -> list[str]:
        lo, hi = self.ci
        return [
            f"protocol={self.game.protocol}",
            f"game={self.game.kind}",
            f"distinguisher={self.game.distinguisher}",
            f"mode={self.game.mode}",
            f"adversary={self.game.adversary}",
            f"seed={self.game.seed}",
            f"trials={self.trials}",
            f"wins={self.wins}",
            f"advantage={self.advantage:.6f}",
            f"winrate_ci={lo:.6f},{hi:.6f}",
        ]


# --- challenge worlds -------------------------------------------------------

TAG_PATH_LEN = 4
TAG_WINDOW_1 = (0, 1)
TAG_WINDOW_2 = (3,)  # step 2 stays unobserved: the gap between windows
STEP_PATH_LEN = 3
STEP_UNIVERSE = 6


@dataclass
class ChallengeWorld:
    tags: list[str]
    paths: dict[str, tuple[str, ...]]
    transcripts: dict[tuple[str, int], tuple[bytes, ...]]
    context: dict[str, Any] = field(default_factory=dict)

    def window(self, tag_token: str, steps: tuple[int, ...]) -> tuple[bytes, ...]:
        out: list[bytes] = []
        for step in steps:
            out.extend(self.transcripts[(tag_token, step)])
        return tuple(out)


def _world_config(
    protocol: str,
    seed: int,
    mode: str,
    adversary: AdvModel,
    readers: list[str],
    paths: dict[str, tuple[str, ...]],
) -> RunConfig:
    length = max(len(p) for p in paths.values())
    tokens = list(readers)
    params: dict[str, str] = {}
    if protocol == "tracker":
        tokens.append("m")  # dedicated manager; path readers all keep coefficients
        params["manager"] = "m"
    cfg = RunConfig(
        protocol=protocol,
        seed=seed,
        mode=mode,
        adversary=adversary,
        readers=[(t, None) for t in tokens],
        tags=sorted(paths),
        valid_paths=sorted(paths.items()),
        script=[],
        params=params,
    )
    for tag_token in cfg.tags:
        if protocol == "stepauth":
            cfg.capacities[tag_token] = secret_size_bits(length)
        elif protocol == "rfchain":
            cfg.capacities[tag_token] = 1024
        elif protocol == "ray":
            cfg.capacities[tag_token] = Ray.CHALLENGE_BITS * length
        elif protocol == "resc":
            cfg.capacities[tag_token] = storage_bits(length)
    return cfg


def _build_world(
    game: PrivacyGame,
    seed: int,
    readers: list[str],
    paths: dict[str, tuple[str, ...]],
    compromise: str | None = None,
) -> ChallengeWorld:
    cfg = _world_config(game.protocol, seed, game.mode, game.adversary, readers, paths)
    protocol, run = build_run(cfg)
    context: dict[str, Any] = {"mode": game.mode}
    if compromise is not None:
        context["secrets"] = run.adv.compromise(compromise)
    world = ChallengeWorld(tags=cfg.tags, paths=dict(paths), transcripts={})
    length = max(len(p) for p in paths.values())
    for step in range(length):
        for tag_token in cfg.tags:
            start = len(run.net.log)
            protocol.visit(tag_token, paths[tag_token][step])
            world.transcripts[(tag_token, step)] = tuple(
                m.seen for m in run.net.log[start:] if m.seen is not None
            )
    if run.stalled:
        raise RuntimeError(f"challenge world for {game.protocol} stalled")
    world.context = context
    return world


def _tag_world(game: PrivacyGame, seed: int) -> ChallengeWorld:
    """Two tags walking the same reader sequence, visits interleaved."""
    readers = [f"r{i}" for i in range(1, TAG_PATH_LEN + 1)]
    path = tuple(readers)
    # any compromised reader sits at the unobserved gap step, so the game
    # measures linkability of windows the corrupted party did not handle
    compromise = readers[2] if game.adversary is AdvModel.ADV_R else None
    return _build_world(
        game, seed, readers, {"ta": path, "tb": path}, compromise=compromise
    )


def _step_world(game: PrivacyGame, seed: int, shared: bool) -> ChallengeWorld:
    """Two tags on paths that do or do not share a reader."""
    rng = Random(seed)
    universe = [f"r{i}" for i in range(1, STEP_UNIVERSE + 1)]
    first = rng.sample(universe, STEP_PATH_LEN)
    rest = [t for t in universe if t not in first]
    if shared:
        overlap = rng.choice((1, 2))
        second = rng.sample(first, overlap) + rng.sample(rest, STEP_PATH_LEN - overlap)
        rng.shuffle(second)
    else:
        second = rng.sample(rest, STEP_PATH_LEN)
    world = _build_world(
        game, seed, universe, {"ta": tuple(first), "tb": tuple(second)}
    )
    world.context["pids"] = {
        t: crypto.hash_bytes(b"pid-" + t.encode()) for t in universe
    }
    world.context["shared"] = shared
    return world


def _rfchain_record_world(game: PrivacyGame, seed: int) -> ChallengeWorld:
    """Full two-tag RF-Chain journey plus the public ledger; tag `ta` is
    additionally read once, which is the linking attack's whole input."""
    readers = ["r1", "r2", "r3"]
    path = tuple(readers)
    paths = {"ta": path, "tb": path}
    cfg = _world_config(game.protocol, seed, game.mode, game.adversary, readers, paths)
    protocol, run = build_run(cfg)
    for step in range(len(path)):
        for tag_token in cfg.tags:
            protocol.visit(tag_token, path[step])
    if run.stalled:
        raise RuntimeError("rfchain record world stalled")
    snapshot = run.adv.read_tag("ta")
    world = ChallengeWorld(tags=cfg.tags, paths=dict(paths), transcripts={})
    world.context = {
        "mode": game.mode,
        "ledger": protocol.ledger.records(),
        "truth": list(protocol.ledger_truth),
        "snapshot": snapshot,
    }
    return world


# --- distinguishers ---------------------------------------------------------

_MIN_ATOM = 8  # ignore short framing atoms (greetings, acks, entity tokens)


def _atoms(payloads: tuple[bytes, ...]) -> set[bytes]:
    return {atom for atom in decompose(payloads) if len(atom) >= _MIN_ATOM}


def _guess_random(context, t1, t2, rng: Random) -> bool:
    return bool(rng.getrandbits(1))


def _guess_shared_atom(context, t1, t2, rng: Random) -> bool:
    if _atoms(t1) & _atoms(t2):
        return True
    return bool(rng.getrandbits(1))


def _guess_full_transcript(context, t1, t2, rng: Random) -> bool:
    """Shared-atom search, additionally decrypting under any compromised
    32-byte secrets before comparing."""
    sides = []
    secrets = [v for v in context.get("secrets", {}).values() if len(v) == 32]
    for t in (t1, t2):
        atoms = _atoms(t)
        opened: set[bytes] = set()
        for key in secrets:
            for atom in atoms:
                try:
                    opened.add(crypto.sym_dec(key, atom))
                except crypto.AuthenticationError:
                    continue
        sides.append(atoms | {a for a in opened if len(a) >= _MIN_ATOM})
    if sides[0] & sides[1]:
        return True
    return bool(rng.getrandbits(1))


def _pid_candidates(values: list[bytes], pids: set[bytes]) -> list[frozenset[bytes]]:
    out = []
    if not values:
        return out
    anchor_value = values[0]
    for anchor_pid in pids:
        candidate = frozenset(
            crypto.xor_bytes(crypto.xor_bytes(v, anchor_value), anchor_pid)
            for v in values
        )
        if candidate <= pids:
            out.append(candidate)
    return out


def _guess_xor_structure(context, t1, t2, rng: Random) -> bool:
    """Challenge values differ from each other only by public participant
    identifiers, so each window's participant set can be recovered up to
    an anchor guess; shared steps show up as intersecting sets."""
    pids = set(context["pids"].values())
    values1 = [p for p in t1 if len(p) == 32]
    values2 = [p for p in t2 if len(p) == 32]
    sets1 = _pid_candidates(values1, pids)
    sets2 = _pid_candidates(values2, pids)
    if not sets1 or not sets2:
        return bool(rng.getrandbits(1))
    return any(s1 & s2 for s1 in sets1 for s2 in sets2)


def _guess_record_linking(context, t1, t2, rng: Random) -> bool:
    """One tag read anchors the linking algebra; guess `same` iff both
    challenge records confirm against the read tag's chain levels."""
    snapshot = context.get("snapshot")
    if snapshot is None:
        return bool(rng.getrandbits(1))
    identity, levels = read_rfchain_tag(snapshot)
    linked1 = link_record(t1[0], t1[1], identity, levels) is not None
    linked2 = link_record(t2[0], t2[1], identity, levels) is not None
    if linked1 and linked2:
        return True
    if linked1 != linked2:
        return False
    return bool(rng.getrandbits(1))


def _guess_record_algebra(context, t1, t2, rng: Random) -> bool:
    """Ledger-only observer: tries the same confirmation algebra between
    the two records without any chain level to anchor on."""
    pseudo1, payload1 = t1[0], t1[1]
    pseudo2, payload2 = t2[0], t2[1]
    if pseudo1 == pseudo2:
        return True
    if len(payload1) >= 32 and len(payload2) >= 32:
        candidate = crypto.xor_bytes(payload1[:32], payload2[:32])
        if crypto.sym_matches(candidate, payload2[:16], pseudo1) or crypto.sym_matches(
            candidate, payload1[:16], pseudo2
        ):
            return True
    return bool(rng.getrandbits(1))


Distinguisher = Callable[[dict, tuple, tuple, Random], bool]

DISTINGUISHERS: dict[str, Distinguisher] = {
    "random": _guess_random,
    "shared-atom": _guess_shared_atom,
    "full-transcript": _guess_full_transcript,
    "xor-structure": _guess_xor_structure,
    "record-linking": _guess_record_linking,
    "record-algebra": _guess_record_algebra,
}

_RECORD_GAMES = {"record-linking", "record-algebra"}


# --- game execution ---------------------------------------------------------

def _validate(game: PrivacyGame) -> Distinguisher:
    if game.protocol not in PROTOCOLS:
        raise UnsupportedGameError(f"no games for unknown protocol {game.protocol!r}")
    if game.distinguisher not in DISTINGUISHERS:
        raise UnsupportedGameError(f"unknown distinguisher {game.distinguisher!r}")
    if game.distinguisher in _RECORD_GAMES and game.protocol != "rfchain":
        raise UnsupportedGameError(
            f"{game.distinguisher} needs a shared ledger; {game.protocol} has none"
        )
    if game.distinguisher == "xor-structure" and game.protocol != "ray":
        raise UnsupportedGameError(
            f"{game.distinguisher} targets challenge-set transcripts, not {game.protocol}"
        )
    if game.distinguisher == "xor-structure" and game.kind is not GameKind.STEP:
        raise UnsupportedGameError(
            f"{game.distinguisher} reads step pseudo-ids; it plays {GameKind.STEP} only"
        )
    if game.distinguisher in _RECORD_GAMES and game.kind is not GameKind.TAG:
        raise UnsupportedGameError(
            f"{game.distinguisher} compares ledger records; it plays {GameKind.TAG} only"
        )
    if game.trials < 1:
        raise ValueError("trials must be positive")
    if game.worlds < 1:
        raise ValueError("world pool must be positive")
    return DISTINGUISHERS[game.distinguisher]


def run_tag_unlinkability(game: PrivacyGame) -> GameResult:
    """Same tag or two tags?  Windows are separated journey slices."""
    if game.kind is not GameKind.TAG:
        raise ValueError("game kind must be tag unlinkability")
    guess_fn = _validate(game)
    rng = Random(game.seed)
    world_seeds = [rng.getrandbits(32) for _ in range(game.worlds)]
    if game.protocol == "rfchain" and game.distinguisher in _RECORD_GAMES:
        return _run_record_game(game, guess_fn, rng, world_seeds)

    pool: list[ChallengeWorld | None] = [None] * game.worlds
    wins = 0
    for _ in range(game.trials):
        idx = rng.randrange(game.worlds)
        if pool[idx] is None:
            pool[idx] = _tag_world(game, world_seeds[idx])
        world = pool[idx]
        same = bool(rng.getrandbits(1))
        t1 = world.window("ta", TAG_WINDOW_1)
        t2 = world.window("ta" if same else "tb", TAG_WINDOW_2)
        wins += guess_fn(world.context, t1, t2, rng) == same
    return GameResult(game=game, trials=game.trials, wins=wins)


def _run_record_game(
    game: PrivacyGame, guess_fn: Distinguisher, rng: Random, world_seeds: list[int]
) -> GameResult:
    pool: list[ChallengeWorld | None] = [None] * game.worlds
    wins = 0
    for _ in range(game.trials):
        idx = rng.randrange(game.worlds)
        if pool[idx] is None:
            pool[idx] = _rfchain_record_world(game, world_seeds[idx])
        world = pool[idx]
        truth = world.context["truth"]
        ledger = world.context["ledger"]
        a_positions = [j for j, (token, _) in enumerate(truth) if token == "ta"]
        b_positions = [j for j, (token, _) in enumerate(truth) if token == "tb"]
        same = bool(rng.getrandbits(1))
        i = rng.choice(a_positions)
        j = rng.choice([p for p in a_positions if p != i]) if same else rng.choice(b_positions)
        context = dict(world.context)
        if game.distinguisher == "record-algebra":
            context.pop("snapshot")  # ledger-only observation scope
        wins += guess_fn(context, ledger[i], ledger[j], rng) == same
    return GameResult(game=game, trials=game.trials, wins=wins)


def run_step_unlinkability(game: PrivacyGame) -> GameResult:
    """Do the two journeys share a reader?  One window per tag."""
    if game.kind is not GameKind.STEP:
        raise ValueError("game kind must be step unlinkability")
    guess_fn = _validate(game)
    rng = Random(game.seed)
    arm = game.worlds // 2 or 1
    shared_seeds = [rng.getrandbits(32) for _ in range(arm)]
    disjoint_seeds = [rng.getrandbits(32) for _ in range(arm)]
    shared_pool: list[ChallengeWorld | None] = [None] * arm
    disjoint_pool: list[ChallengeWorld | None] = [None] * arm
    steps = tuple(range(STEP_PATH_LEN))
    wins = 0
    for _ in range(game.trials):
        shared = bool(rng.getrandbits(1))
        idx = rng.randrange(arm)
        pool, seeds = (shared_pool, shared_seeds) if shared else (disjoint_pool, disjoint_seeds)
        if pool[idx] is None:
            pool[idx] = _step_world(game, seeds[idx], shared)
        world = pool[idx]
        t1 = world.window("ta", steps)
        t2 = world.window("tb", steps)
        wins += guess_fn(world.context, t1, t2, rng) == shared
    return GameResult(game=game, trials=game.trials, wins=wins)


def run_game(game: PrivacyGame) -> GameResult:
    if game.kind is GameKind.TAG:
        return run_tag_unlinkability(game)
    return run_step_unlinkability(game)
