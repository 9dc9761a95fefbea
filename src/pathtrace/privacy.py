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

A distinguisher is handed the two windows and a view that holds only
what the adversary knows: a compromised reader's ``secrets`` (AdvR tag
game), the public participant ``pids`` (step game) and the read tag's
``snapshot`` (record game, except for the ledger-only observer).  The
hidden bit, the ledger's ground truth and the game settings stay with
the challenger.

A distinguisher is a pure function of the view and the two windows: it
returns its guess, or None when the windows leave it undecided.  Its
answer is asked once per world and window pair in a game and kept for
the rest of that game; each undecided round draws a coin in its place.
Challenge worlds are pre-built in a small pool and re-drawn across
trials; every trial's world choice, hidden bit and coin come from one
seeded stream held by the challenger, so results reproduce bit-exactly.
Advantage thresholds used in reports (break above 0.99, hold below 0.1)
are conventions of this artifact, not measured constants of the schemes.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, NamedTuple

from pathtrace import crypto
from pathtrace.attacks import link_record, read_rfchain_tag
from pathtrace.network import AdvModel, decompose
from pathtrace.protocols import PROTOCOLS, ProtocolModel, RunConfig, build_run
from pathtrace.protocols.ray import Ray
from pathtrace.stats import advantage as _advantage, wilson_interval


class UnsupportedGameError(Exception):
    """The protocol/distinguisher combination has no game support."""


class GameKind(enum.Enum):
    TAG = "tag-unlinkability"
    STEP = "step-unlinkability"

    def __str__(self) -> str:
        return self.value


class PrivacyGame(NamedTuple):
    kind: GameKind
    protocol: str
    distinguisher: str = "random"
    trials: int = 500
    seed: int = 0
    mode: str = "default"
    adversary: AdvModel = AdvModel.ADV_T
    worlds: int = 32


class GameResult(NamedTuple):
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
STEP_WINDOW = tuple(range(STEP_PATH_LEN))  # each tag's whole journey
STEP_UNIVERSE = 6


@dataclass
class ChallengeWorld:
    """One pre-built world.  ``view`` is everything a distinguisher sees
    besides the two windows; an RF-Chain record world's ``ledger`` and
    ``truth`` (who wrote each record) stay with the challenger."""

    tags: list[str]
    paths: dict[str, tuple[str, ...]]
    transcripts: dict[tuple[str, int], tuple[bytes, ...]]
    view: dict[str, Any] = field(default_factory=dict)
    ledger: list[tuple[bytes, bytes]] = field(default_factory=list)
    truth: list[tuple[str, int]] = field(default_factory=list)

    @functools.cached_property
    def positions(self) -> dict[str, list[int]]:
        """Each tag's ledger positions, in ledger order."""
        out: dict[str, list[int]] = {tag_token: [] for tag_token in self.tags}
        for j, (tag_token, _) in enumerate(self.truth):
            out[tag_token].append(j)
        return out

    def window(self, tag_token: str, steps: tuple[int, ...]) -> tuple[bytes, ...]:
        out: list[bytes] = []
        for step in steps:
            out.extend(self.transcripts[(tag_token, step)])
        return tuple(out)


def _build_world(
    game: PrivacyGame,
    seed: int,
    readers: list[str],
    paths: dict[str, tuple[str, ...]],
    compromise: str | None = None,
) -> tuple[ChallengeWorld, ProtocolModel]:
    """Walk the tags of ``paths`` step by step, visits interleaved in
    ``paths`` order, and keep what the adversary saw at each visit.  The
    world comes back with the model that walked it."""
    params: dict[str, str] = {}
    if game.protocol == "tracker":
        # a dedicated manager, so every path reader keeps its coefficient
        readers = readers + ["m"]
        params["manager"] = "m"
    cfg = RunConfig.along(
        game.protocol,
        paths,
        readers,
        seed=seed,
        mode=game.mode,
        adversary=game.adversary,
        params=params,
    )
    protocol, run = build_run(cfg)
    world = ChallengeWorld(tags=cfg.tags, paths=dict(paths), transcripts={})
    if compromise is not None:
        world.view["secrets"] = run.net.compromise(compromise)
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
    return world, protocol


def _tag_world(game: PrivacyGame, seed: int) -> ChallengeWorld:
    """Two tags walking the same reader sequence, visits interleaved."""
    readers = [f"r{i}" for i in range(1, TAG_PATH_LEN + 1)]
    path = tuple(readers)
    # any compromised reader sits at the unobserved gap step, so the game
    # measures linkability of windows the corrupted party did not handle
    compromise = readers[2] if game.adversary is AdvModel.ADV_R else None
    return _build_world(game, seed, readers, {"ta": path, "tb": path}, compromise)[0]


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
    world, _ = _build_world(game, seed, universe, {"ta": tuple(first), "tb": tuple(second)})
    world.view["pids"] = {t: Ray.pid(t) for t in universe}
    return world


def _rfchain_record_world(game: PrivacyGame, seed: int) -> ChallengeWorld:
    """Full two-tag RF-Chain journey plus the public ledger.  Tag `ta` is
    read once, which is the linking attack's whole input, except for the
    ledger-only observer, which sees no tag."""
    readers = ["r1", "r2", "r3"]
    paths = dict.fromkeys(("ta", "tb"), tuple(readers))
    world, protocol = _build_world(game, seed, readers, paths)
    if game.distinguisher != "record-algebra":
        world.view["snapshot"] = protocol.net.read_tag("ta")
    world.ledger, world.truth = protocol.ledger.records(), list(protocol.ledger_truth)
    return world


# --- distinguishers ---------------------------------------------------------

_MIN_ATOM = 8  # ignore short framing atoms (greetings, acks, entity tokens)


def _atoms(payloads: tuple[bytes, ...]) -> set[bytes]:
    return {atom for atom in decompose(payloads) if len(atom) >= _MIN_ATOM}


def _guess_random(view, t1, t2) -> None:
    return None  # every round is a coin toss


def _guess_shared_atom(view, t1, t2) -> bool | None:
    """Full-transcript search with no secret to decrypt under."""
    return _guess_full_transcript({}, t1, t2)


def _guess_full_transcript(view, t1, t2) -> bool | None:
    """Shared-atom search, additionally decrypting under any compromised
    32-byte secrets before comparing."""
    sides = []
    secrets = [v for v in view.get("secrets", {}).values() if len(v) == 32]
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
    return None


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


def _guess_xor_structure(view, t1, t2) -> bool | None:
    """Challenge values differ from each other only by public participant
    identifiers, so each window's participant set can be recovered up to
    an anchor guess; shared steps show up as intersecting sets."""
    pids = set(view["pids"].values())
    values1 = [p for p in t1 if len(p) == 32]
    values2 = [p for p in t2 if len(p) == 32]
    sets1 = _pid_candidates(values1, pids)
    sets2 = _pid_candidates(values2, pids)
    if not sets1 or not sets2:
        return None
    return any(s1 & s2 for s1 in sets1 for s2 in sets2)


def _guess_record_linking(view, t1, t2) -> bool | None:
    """One tag read anchors the linking algebra; guess `same` iff both
    challenge records confirm against the read tag's chain levels."""
    snapshot = view.get("snapshot")
    if snapshot is None:
        return None
    identity, levels = read_rfchain_tag(snapshot)
    linked1 = link_record(t1[0], t1[1], identity, levels) is not None
    linked2 = link_record(t2[0], t2[1], identity, levels) is not None
    if linked1 and linked2:
        return True
    if linked1 != linked2:
        return False
    return None


def _guess_record_algebra(view, t1, t2) -> bool | None:
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
    return None


# (view, t1, t2) -> the guess that both windows come from the same tag
# (tag game) or from paths that share a reader (step game), or None when
# undecided; the game then tosses a coin for each such round.
Distinguisher = Callable[[dict, tuple, tuple], "bool | None"]

DISTINGUISHERS: dict[str, Distinguisher] = {
    "random": _guess_random,
    "shared-atom": _guess_shared_atom,
    "full-transcript": _guess_full_transcript,
    "xor-structure": _guess_xor_structure,
    "record-linking": _guess_record_linking,
    "record-algebra": _guess_record_algebra,
}

# The one scheme and the one game kind a distinguisher is limited to; one
# that is not listed plays every game.  The two limited to RF-Chain read
# its ledger records, so their game is played on record worlds.
SCOPES: dict[str, tuple[str, GameKind]] = {
    "xor-structure": ("ray", GameKind.STEP),
    "record-linking": ("rfchain", GameKind.TAG),
    "record-algebra": ("rfchain", GameKind.TAG),
}


# --- game execution ---------------------------------------------------------

# The largest world pool a game accepts.  ``run_game`` draws one seed per
# pool world before its first round, so the pool costs time and memory in
# proportion to its size however few worlds the rounds build.
MAX_WORLDS = 4096
# The most rounds a game plays: a round costs a few microseconds once the
# pool is built, so this keeps a game under about half a second.
MAX_TRIALS = 100_000


def _validate(game: PrivacyGame) -> Distinguisher:
    if game.protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {game.protocol!r}")
    if game.distinguisher not in DISTINGUISHERS:
        raise ValueError(f"unknown distinguisher {game.distinguisher!r}")
    protocol, kind = SCOPES.get(game.distinguisher, (game.protocol, game.kind))
    if protocol != game.protocol:
        raise UnsupportedGameError(
            f"{game.distinguisher} needs protocol {protocol}, not {game.protocol}"
        )
    if kind is not game.kind:
        raise UnsupportedGameError(f"{game.distinguisher} plays {kind} only, not {game.kind}")
    if game.trials < 1:
        raise ValueError("trials must be positive")
    if game.trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}")
    if game.worlds < 1:
        raise ValueError("world pool must be positive")
    if game.worlds > MAX_WORLDS:
        raise ValueError(f"world pool must be at most {MAX_WORLDS}")
    return DISTINGUISHERS[game.distinguisher]


def _windows(
    game: PrivacyGame, world: ChallengeWorld, bit: bool, rng: Random
) -> tuple[tuple, tuple]:
    """The round's two windows; ``bit`` is its hidden answer."""
    if world.truth:  # two ledger records: both by `ta`, or one each
        a_positions, b_positions = world.positions["ta"], world.positions["tb"]
        i = rng.choice(a_positions)
        j = rng.choice([p for p in a_positions if p != i]) if bit else rng.choice(b_positions)
        return world.ledger[i], world.ledger[j]
    if game.kind is GameKind.STEP:
        return world.window("ta", STEP_WINDOW), world.window("tb", STEP_WINDOW)
    return world.window("ta", TAG_WINDOW_1), world.window("ta" if bit else "tb", TAG_WINDOW_2)


def run_game(game: PrivacyGame) -> GameResult:
    """Play ``game.trials`` rounds over a pool of worlds, each built on
    first draw.  A round draws a world, a hidden bit and two windows; the
    distinguisher wins it by guessing the bit.  The step game's pool is an
    arm of shared-path worlds and an arm of disjoint ones, so its round
    draws the bit ("the paths share a reader") before the world.

    Each world offers only a few distinct window pairs, so the
    distinguisher's answer is kept per world index and pair for the rest
    of the game; an undecided answer costs a coin toss in every round."""
    guess = _validate(game)
    step = game.kind is GameKind.STEP
    on_ledger = SCOPES.get(game.distinguisher, ("",))[0] == "rfchain"
    rng = Random(game.seed)
    arm = (game.worlds // 2 or 1) if step else game.worlds
    seeds = [rng.getrandbits(32) for _ in range(2 * arm if step else arm)]
    pool: list[ChallengeWorld | None] = [None] * len(seeds)
    answers: dict[tuple[int, tuple, tuple], bool | None] = {}
    wins = 0
    for _ in range(game.trials):
        if step:
            bit = bool(rng.getrandbits(1))
            idx = rng.randrange(arm) + (0 if bit else arm)
        else:
            idx = rng.randrange(arm)
            bit = bool(rng.getrandbits(1))
        world = pool[idx]
        if world is None:
            if step:
                world = _step_world(game, seeds[idx], bit)
            elif on_ledger:
                world = _rfchain_record_world(game, seeds[idx])
            else:
                world = _tag_world(game, seeds[idx])
            pool[idx] = world
        t1, t2 = _windows(game, world, bit, rng)
        key = (idx, t1, t2)
        if key not in answers:
            answers[key] = guess(world.view, t1, t2)
        answer = answers[key]
        if answer is None:
            answer = bool(rng.getrandbits(1))
        wins += answer == bit
    return GameResult(game=game, trials=game.trials, wins=wins)
