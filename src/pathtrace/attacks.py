"""Scripted reproductions of each scheme's documented weakness.

Every attack drives a normal protocol run, performs the adversary's moves
through the run's ``Network`` (observing, injecting, reading tags,
compromising readers) and returns whether it succeeded, the finalized run
and evidence strong enough to re-check the violation from the outside:
with the run's trace, soundness/sortedness verdicts and classifier labels
can be recomputed, and linking attacks carry the ground-truth record
labels to count false positives against.  ``@attack`` registers each
script in ``ATTACKS`` with the scheme it targets and the property a
success violates, and builds its ``AttackOutcome``.

Attacks that the corresponding hardened configuration is supposed to
defeat return succeeded=False there; tests re-run those across many
seeds.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Iterable, NamedTuple

from pathtrace import crypto
from pathtrace import trace as tr
from pathtrace.network import AdvModel, Network, read_snapshot
from pathtrace.protocols import RunConfig, build_run, finalize, play, run_protocol
from pathtrace.protocols.base import ProtocolModel, RunResult
from pathtrace.protocols.ray import Ray
from pathtrace.protocols.resc import Resc
from pathtrace.protocols.rfchain import salted_key, split_salted, step_input
from pathtrace.stats import wilson_interval

# the run settings a scenario sets with directives of its own
RUN_SETTINGS = ("seed", "mode", "adversary")

# the largest worlds an attack builds: readers on its path, RF-Chain decoys
MAX_PATH_LEN = 16
MAX_DECOYS = 100
# the most trials a search draws (a Tracker order-search trial costs ~12 us)
MAX_TRIALS = 100_000


class BoundedSearchError(ValueError):
    """Search parameters exceed the supported exhaustive-search bounds."""


@dataclass
class AttackOutcome:
    """Machine-checkable result of one attack script.

    `violated_property` is the property the attack is registered to
    violate when it succeeded, else None.  `run` is the finalized run the
    script drove, if any; `evidence` holds the attack-specific material.
    """

    name: str
    succeeded: bool
    violated_property: str | None
    evidence: dict[str, Any] = field(default_factory=dict)
    run: RunResult | None = None

    def summary_lines(self) -> list[str]:
        lines = [
            f"attack={self.name}",
            f"succeeded={str(self.succeeded).lower()}",
            f"violated={self.violated_property or 'none'}",
        ]
        for key in sorted(self.evidence):
            value = self.evidence[key]
            if isinstance(value, bytes):
                value = value.hex()
            lines.append(f"evidence {key}={value}")
        return lines

    def report_lines(self) -> list[str]:
        """The summary, then the finalized run's report if there is one."""
        return self.summary_lines() + (self.run.report_lines() if self.run is not None else [])


class AttackSpec(NamedTuple):
    """One attack's declaration: the scheme it targets, the property a
    success violates, which ``RUN_SETTINGS`` it takes, the default and the
    value type of every keyword it accepts (those settings included),
    whether it drives a protocol run, and ``check``, which raises
    ValueError on a combination of keyword values the script refuses."""

    scheme: str
    violates: str
    settings: tuple[str, ...]
    keywords: dict[str, Any]
    types: dict[str, type]
    drives_run: bool
    check: Callable[[dict[str, Any]], None] | None


Script = Callable[..., tuple[bool, RunResult | None, dict[str, Any]]]
ATTACKS: dict[str, Callable[..., AttackOutcome]] = {}


def attack(
    name: str,
    scheme: str,
    violates: str,
    *,
    types: dict[str, type] | None = None,
    drives_run: bool = True,
    check: Callable[[dict[str, Any]], None] | None = None,
):
    """Register a script that returns ``(succeeded, run, evidence)`` in
    ``ATTACKS`` as a callable returning its ``AttackOutcome``; the
    callable's ``spec`` is the script's ``AttackSpec``.

    A keyword's type is its default's, and ``types`` states it for each
    keyword that defaults to None.  ``check`` receives every keyword's
    value, defaults included, before the script runs."""

    def register(script: Script) -> Callable[..., AttackOutcome]:
        signature = inspect.signature(script)
        keywords = {p.name: p.default for p in signature.parameters.values()}
        settings = tuple(s for s in RUN_SETTINGS if s in keywords)
        declared = types or {}
        untyped = [k for k, v in keywords.items() if v is None and k not in declared]
        if untyped:
            raise TypeError(f"attack {name}: state the type of {', '.join(untyped)}")
        value_types = {k: declared.get(k, type(v)) for k, v in keywords.items()}

        @functools.wraps(script)
        def replay(*args: Any, **kwargs: Any) -> AttackOutcome:
            if check is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                check(bound.arguments)
            succeeded, run, evidence = script(*args, **kwargs)
            return AttackOutcome(name, succeeded, violates if succeeded else None, evidence, run)

        replay.spec = AttackSpec(
            scheme, violates, settings, keywords, value_types, drives_run, check
        )
        ATTACKS[name] = replay
        return replay

    return register


def _claim_verdict(result: RunResult) -> tr.Verdict | None:
    return result.verdicts[-1] if result.verdicts else None


def _observed(net: Network, receiver: str) -> dict[str, bytes]:
    """What the adversary saw of each sender's message to ``receiver``."""
    return {m.sender: m.seen for m in net.log if m.receiver == receiver and m.seen is not None}


def _forge(
    protocol: ProtocolModel, forgeries: Iterable[tuple[str, bytes]]
) -> tuple[list[bool], RunResult, tr.Verdict | None]:
    """Inject each (sender, payload) into tag ``t1``, claim it and finalize:
    whether the tag accepted each payload, the result and its verdict."""
    net = protocol.net
    accepted = [net.inject(sender, "t1", payload) == b"ok" for sender, payload in forgeries]
    protocol.claim("t1")
    result = finalize(protocol, protocol.run)
    return accepted, result, _claim_verdict(result)


def _labels(result: RunResult) -> list[str]:
    out: list[str] = []
    for idx, _ in result.trace.claims():
        for label in sorted(tr.classify_claim(result.trace, idx), key=lambda l: l.value):
            out.append(label.value)
    return out


# --- RF-Chain: ledger linking via the shared step key ----------------------

def read_rfchain_tag(snapshot: bytes) -> tuple[bytes, list[bytes]]:
    """Identity and chain levels a_0 .. a_{n-1} of a skimmed RF-Chain tag:
    the chain value a_n carries a_{n-1} under a signature, and so on down
    to a_0, and stripping signatures needs no key."""
    fields = read_snapshot(snapshot)
    levels = [fields["chain"]]
    while (sig := crypto.parse_signature(levels[-1])) is not None:
        levels.append(sig.message)
    return fields["id"], levels[:0:-1]


def link_record(pseudo: bytes, payload: bytes, identity: bytes, prev_levels: list[bytes]) -> int | None:
    """The step i whose chain level a_{i-1} = ``prev_levels[i - 1]`` confirms
    the record, or None.  XORing the payload prefix against the level prefix
    proposes a step key; the pseudo-identity and the payload confirm it."""
    for i, prev in enumerate(prev_levels, start=1):
        if len(payload) < 32 or len(prev) < 32:
            continue
        candidate = crypto.xor_bytes(payload[:32], prev[:32])
        if crypto.sym_matches(candidate, identity, pseudo) and payload == crypto.xor_stream(
            prev, candidate
        ):
            return i
    return None


def _decoys_within_bound(kw: dict[str, Any]) -> None:
    if not 1 <= kw["decoys"] <= MAX_DECOYS:
        raise ValueError(f"decoys must lie within 1..{MAX_DECOYS}")


def _insider_link(
    pseudo: bytes, payload: bytes, identity: bytes, secrets: dict[str, bytes], mode: str, steps: int
) -> int | None:
    """The step whose pseudo-identity key, recomputed from the system
    secrets, produced the record, or None."""
    salt = None
    if mode == "patched":
        split = split_salted(payload)
        if split is None:
            return None
        salt = split[0]
    for i in range(1, steps + 1):
        h = step_input(identity, secrets["f"], secrets["pwd"], secrets["r"], i)
        key = crypto.hash_bytes(h) if salt is None else salted_key(h, salt, b"pid")
        if crypto.sym_matches(key, identity, pseudo):
            return i
    return None


@attack("rfchain-linking", scheme="rfchain", violates="privacy", check=_decoys_within_bound)
def attack_rfchain_linking(
    seed: int = 0, mode: str = "default", decoys: int = 10, insider: bool = False
):
    """Link every ledger record of one tag after a single tag read.

    The record payload is the previous chain value XORed with a keystream
    whose first block is the step key itself, and the pseudo-identity is
    the tag identity encrypted under the same key.  Reading the chain once
    yields every a_i level by stripping signatures; XORing a payload
    prefix against a level prefix then proposes a candidate key that the
    pseudo-identity confirms or refutes.  With `insider`, a compromised
    reader's system secrets recompute the keys directly instead, which
    links records even in the patched mode.
    """
    target = "t0"
    tags = [target] + [f"d{i:02d}" for i in range(1, decoys + 1)]
    hops = ("r1", "r2", "r3")
    cfg = RunConfig.along(
        "rfchain",
        dict.fromkeys(tags, hops),
        seed=seed,
        mode=mode,
        adversary=AdvModel.ADV_R if insider else AdvModel.ADV_T,
        script=[("move", tag, hop) for hop in hops for tag in tags] + [("claim", target)],
    )
    protocol, run = build_run(cfg)
    play(protocol, cfg.script)

    identity, prev_levels = read_rfchain_tag(run.net.read_tag(target))
    steps = len(prev_levels)

    secrets: dict[str, bytes] | None = None
    if insider:
        secrets = run.net.compromise(hops[0])

    records = protocol.ledger.records()
    linked: dict[int, int] = {}
    for j, (pseudo, payload) in enumerate(records):
        if secrets is None:
            step = link_record(pseudo, payload, identity, prev_levels)
        else:
            step = _insider_link(pseudo, payload, identity, secrets, mode, steps)
        if step is not None:
            linked[j] = step

    result = finalize(protocol, run)
    truth = protocol.ledger_truth
    target_positions = {j for j, (token, _) in enumerate(truth) if token == target}
    false_positives = sorted(set(linked) - target_positions)
    succeeded = bool(target_positions) and set(linked) == target_positions
    return succeeded, result, {
        "mode": mode,
        "insider": insider,
        "records": len(records),
        "target_records": sorted(target_positions),
        "linked": dict(sorted(linked.items())),
        "false_positives": false_positives,
        "chain_levels": steps,
        "identity": identity,
    }


@attack("rfchain-length-extension", scheme="rfchain", violates="sound")
def probe_rfchain_length_extension(seed: int = 0):
    """Show the step-key hash is length-extendable, and why that is not
    enough to forge a record.

    The chain base is a raw hash of concatenated secrets, so an adversary
    holding only that digest can compute the hash of the secrets plus
    padding-glue plus a chosen suffix.  But honest step keys hash the
    secrets with a bare index appended, never with the glue bytes, so the
    extended digest is the key of an input the scheme never uses and no
    ledger record accepts it.  A weakness in the construction, not a
    break of the deployed checks: the probe succeeds only if the forged
    record is accepted.
    """
    cfg = RunConfig.along(
        "rfchain", {"t1": ("r1", "r2", "r3")}, seed=seed, script=[("move", "t1", "r1")]
    )
    protocol, run = build_run(cfg)
    fields = read_snapshot(run.net.read_tag("t1"))
    identity = fields["id"]
    base = fields["chain"]  # a_0 = H(ID || f || pwd || r), secrets unknown
    secret_len = len(identity) + 48  # ID plus three 16-byte system values
    suffix = b"1"
    extended, glue = crypto.extend_sha256(base, secret_len, suffix)

    # ground truth from the model's secrets: the extension really is the
    # hash of the glued input, and really differs from the honest step key
    secret_preimage = crypto.concat_raw(identity, protocol.f, protocol.pwd, protocol.nonce)
    extension_matches = extended == crypto.hash_bytes(secret_preimage + glue + suffix)
    honest_key = protocol.step_key(identity, 1)

    # attempt to use the extended digest as the step-1 key
    play(protocol, cfg.script)
    forged_pseudo = crypto.sym_enc(extended, identity)
    forged_payload = crypto.xor_stream(base, extended)
    accepted = protocol._record_matches(forged_pseudo, forged_payload, identity, 1, base)

    result = finalize(protocol, run)
    return accepted, result, {
        "extension_matches": extension_matches,
        "glue_bytes": len(glue),
        "forged_key_differs": extended != honest_key,
        "forged_record_accepted": accepted,
    }


# --- Ray: order not enforced, challenges derivable -------------------------

def _path_len_within_bound(kw: dict[str, Any]) -> None:
    if not 1 <= kw["path_len"] <= MAX_PATH_LEN:
        raise ValueError(f"path_len must lie within 1..{MAX_PATH_LEN}")


def _order_permutes_path(kw: dict[str, Any]) -> None:
    _path_len_within_bound(kw)
    order, path_len = kw["order"], kw["path_len"]
    if order is not None and path_len >= 2 and sorted(order) != list(range(path_len)):
        raise ValueError(f"order must permute 0..{path_len - 1}: {order!r}")


@attack(
    "ray-out-of-order",
    scheme="ray",
    violates="sorted",
    types={"order": tuple},
    check=_order_permutes_path,
)
def attack_ray_out_of_order(
    seed: int = 0,
    order: tuple[int, ...] | None = None,
    mode: str = "default",
    path_len: int = 3,
):
    """Reorder challenge consumption while the tag travels the true path.

    The network adversary suppresses every reader-to-tag message, keeps
    the observed challenge values and re-delivers them in a permuted
    order; the tag accepts any pending challenge, so every authentication
    succeeds and the owner's claim reports the permuted order.  Against
    the Move events — which follow the real journey — the claim fails the
    sorted check.
    """
    readers = [f"r{i}" for i in range(1, path_len + 1)]
    cfg = RunConfig.along(
        "ray", {"t1": tuple(readers)}, seed=seed, mode=mode, strategy="drop_to_tags"
    )
    if path_len < 2:
        return False, run_protocol(cfg), {"reason": "single-step path has no permutation"}
    if order is None:
        order = (1, 0) + tuple(range(2, path_len))

    protocol, run = build_run(cfg)
    # the radio to the tag is suppressed, but each Move is still recorded
    play(protocol, [("move", "t1", token) for token in readers])

    observed = _observed(run.net, "t1")
    accepted, result, verdict = _forge(
        protocol, ((readers[idx], observed[readers[idx]]) for idx in order)
    )
    succeeded = all(accepted) and verdict is not None and not verdict.sorted
    return succeeded, result, {
        "order": tuple(order),
        "accepted": accepted,
        "claimed": [readers[i] for i in order],
        "labels": _labels(result),
    }


def _observed_index_on_path(kw: dict[str, Any]) -> None:
    _path_len_within_bound(kw)
    if not 0 <= kw["observed_index"] < kw["path_len"]:
        raise ValueError(f"observed_index must lie within 0..{kw['path_len'] - 1}")


@attack("ray-impersonation", scheme="ray", violates="sound", check=_observed_index_on_path)
def attack_ray_impersonation(
    seed: int = 0,
    mode: str = "default",
    path_len: int = 4,
    observed_index: int = 1,
    observe: bool = True,
):
    """Derive every participant's challenge from one observed challenge.

    Challenges differ only by public participant identifiers: XORing the
    observed value with the observed reader's PID and the target reader's
    PID yields the target's challenge, with any path-level PRF term
    cancelling out.  The adversary then answers for all remaining readers
    without the tag moving anywhere.
    """
    readers = [f"r{i}" for i in range(1, path_len + 1)]
    protocol, run = build_run(RunConfig.along("ray", {"t1": tuple(readers)}, seed=seed, mode=mode))

    if not observe:
        return False, finalize(protocol, run), {"reason": "no challenge observed, c unknown"}

    obs_token = readers[observed_index]
    protocol.visit("t1", obs_token)  # the single over-the-air observation
    # PID values are public; c xor term is path-level, so it cancels
    shared = crypto.xor_bytes(_observed(run.net, "t1")[obs_token], Ray.pid(obs_token))
    derived = [token for token in readers if token != obs_token]
    accepted, result, verdict = _forge(
        protocol, ((token, crypto.xor_bytes(shared, Ray.pid(token))) for token in derived)
    )
    succeeded = bool(accepted) and all(accepted)
    return succeeded, result, {
        "observed_reader": obs_token,
        "impersonated": derived,
        "accepted": accepted,
        "claim_unsound": verdict is not None and not verdict.sound,
        "labels": _labels(result),
    }


# --- Burbridge: colluding readers re-sign across overlapping paths ---------

@attack("burbridge-bypass", scheme="burbridge", violates="sound")
def attack_burbridge_bypass(
    seed: int = 3, mode: str = "default", adversary: AdvModel = AdvModel.ADV_R
):
    """Route a tag around a mandatory station using another tag's edges.

    Two compromised readers accept the tag on edges registered for a
    second tag's path; with a supply-chain-wide re-signature key the
    bypassed station never notices and the final claim names the full
    registered path — authorized, yet unsound.  Per-tag keys stop the
    re-signing and the journey stalls instead.
    """
    cfg = RunConfig.along(
        "burbridge",
        {"t1": ("ra", "rb", "rc", "rd", "re"), "t2": ("ra", "rb", "rd", "re")},
        seed=seed,
        mode=mode,
        adversary=adversary,
        compromise=["rb", "rd"],
        script=[
            ("move", "t1", "ra"),
            ("move", "t1", "rb"),
            ("move", "t1", "rd"),
            ("move", "t1", "re"),
            ("claim", "t1"),
        ],
    )
    result = run_protocol(cfg)
    verdict = _claim_verdict(result)
    succeeded = verdict is not None and verdict.authorized and not verdict.sound
    return succeeded, result, {
        "mode": mode,
        "bypassed": "rc",
        "claim_authorized": verdict.authorized if verdict else False,
        "labels": _labels(result),
    }


# --- ReSC: session keys readable on the tag --------------------------------

def _honest_steps_within_path(kw: dict[str, Any]) -> None:
    _path_len_within_bound(kw)
    if not 0 <= kw["honest_steps"] <= kw["path_len"]:
        raise ValueError("honest_steps must lie within the path")


@attack(
    "resc-key-disclosure", scheme="resc", violates="sound", check=_honest_steps_within_path
)
def attack_resc_key_disclosure(seed: int = 0, honest_steps: int = 2, path_len: int = 4):
    """Deposit signatures for readers the tag never met.

    Session keys for every step sit in readable tag memory from the day
    of registration.  Reading the tag mid-journey discloses the keys of
    all remaining steps; the adversary then speaks the deposit protocol
    itself — greeting, MAC over the fresh nonce, signature record — and
    the database later finds every slot correctly filled and claims the
    registered path, ghost steps included.
    """
    readers = [f"r{i}" for i in range(1, path_len + 1)]
    cfg = RunConfig.along(
        "resc",
        {"t1": tuple(readers)},
        seed=seed,
        adversary=AdvModel.ADV_R,
        script=[("move", "t1", token) for token in readers[:honest_steps]],
    )
    protocol, run = build_run(cfg)
    play(protocol, cfg.script)

    fields = read_snapshot(run.net.read_tag("t1"))
    tid = fields["tid"]
    remaining = list(range(honest_steps + 1, path_len + 1))
    if not remaining:
        protocol.claim("t1")
        return False, finalize(protocol, run), {"reason": "journey complete, no unused keys"}

    def deposits():
        # each greeting is injected just before its slot's deposit
        last_ts = crypto.bytes_to_int(fields[f"ts{honest_steps}"]) if honest_steps else 0
        for slot in remaining:
            hello = run.net.inject(readers[slot - 1], "t1", b"HELLO")
            _, nonce, _ = crypto.split_length_prefixed(hello)
            last_ts += 1
            yield readers[slot - 1], Resc.deposit(tid, slot, last_ts, fields[f"k{slot}"], nonce)

    deposited, result, verdict = _forge(protocol, deposits())
    succeeded = all(deposited) and verdict is not None and not verdict.sound
    return succeeded, result, {
        "honest_steps": honest_steps,
        "ghost_slots": remaining,
        "deposited": deposited,
        "labels": _labels(result),
    }


# --- Tracker: path evaluation forgets the order ----------------------------

def _draws_fit(kw: dict[str, Any]) -> None:
    if kw["trials"] < 1:
        raise ValueError("trials must be at least 1")
    if kw["trials"] > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}")
    for name in ("n_readers", "length"):
        if kw[name] < 1:
            raise ValueError(f"{name} must be at least 1")
    # each trial draws n_readers distinct coefficients from 1..q-1
    if kw["q"] <= kw["n_readers"]:
        raise ValueError(f"q must exceed n_readers ({kw['n_readers']})")


@attack(
    "tracker-order-search", scheme="tracker", violates="sorted", drives_run=False, check=_draws_fit
)
def attack_tracker_order_search(
    seed: int = 0,
    q: int = 1009,
    n_readers: int = 4,
    length: int = 3,
    trials: int = 2000,
    equal: bool = False,
):
    """Search visit-order permutations for accepted out-of-order paths.

    Each trial draws a fresh evaluation point, blinding coefficient and
    per-reader step coefficients (distinct, unless `equal` forces the
    first two readers to share one), fixes the registered path and tests
    every non-identity permutation of it for an evaluation collision —
    exactly the check the path manager performs.  Shared coefficients
    make the adjacent swap collide always; distinct coefficients leave a
    residual acceptance rate on the order of 1/q.
    """
    if q > 1009:
        raise BoundedSearchError(f"field size {q} exceeds the search bound of 1009")
    if n_readers > 4:
        raise BoundedSearchError(f"{n_readers} readers exceed the search bound of 4")
    if length > 4 or length > n_readers:
        raise BoundedSearchError(f"path length {length} out of bounds")

    from itertools import permutations

    rng = Random(seed)
    perms = [p for p in permutations(range(length)) if p != tuple(range(length))]
    if not perms:
        return False, None, {"reason": "single-step path has no permutation", "trials": 0}

    checks = 0
    accepted = 0
    adjacent_checks = 0
    adjacent_accepted = 0
    witnesses: list[dict[str, Any]] = []
    adjacent = {
        tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, length))
        for i in range(length - 1)
    }
    for trial in range(trials):
        x0 = rng.randrange(1, q)
        a0 = rng.randrange(1, q)
        coeffs = rng.sample(range(1, q), n_readers)
        if equal:
            coeffs[1] = coeffs[0]
        path = list(range(length))
        reference = crypto.path_poly_eval(q, a0, [coeffs[r] for r in path], x0)
        for perm in perms:
            value = crypto.path_poly_eval(q, a0, [coeffs[path[i]] for i in perm], x0)
            checks += 1
            hit = value == reference
            accepted += hit
            if perm in adjacent:
                adjacent_checks += 1
                adjacent_accepted += hit
            if hit and len(witnesses) < 20:
                witnesses.append({"trial": trial, "perm": perm, "x0": x0})

    rate = accepted / checks
    lo, hi = wilson_interval(accepted, checks)
    adj_rate = adjacent_accepted / adjacent_checks if adjacent_checks else 0.0
    return accepted > 0, None, {
        "q": q,
        "trials": trials,
        "equal_coefficients": equal,
        "checks": checks,
        "accepted": accepted,
        "rate": rate,
        "rate_ci": (lo, hi),
        "adjacent_checks": adjacent_checks,
        "adjacent_accepted": adjacent_accepted,
        "adjacent_rate": adj_rate,
        "witnesses": witnesses,
    }


def tracker_collision_rate(
    q: int, pairs: int, seed: int = 0, n_readers: int = 8, length: int = 4
) -> tuple[int, int]:
    """Collision count for evaluations of random distinct path pairs.

    Each pair gets a fresh evaluation point, blinding coefficient and
    coefficient table; two distinct reader sequences of equal length are
    drawn and their polynomial evaluations compared.  Distinct paths
    collide with probability about 1/q.  The reader universe is kept
    comfortably larger than the path so that a random pair is rarely a
    rearrangement of the same readers (rearranged pairs share the
    coefficient sum and collide roughly twice as often).
    """
    below = randbelow(Random(seed))
    collisions = 0
    for _ in range(pairs):
        x0 = 1 + below(q - 1)
        a0 = 1 + below(q - 1)
        coeffs = [1 + below(q - 1) for _ in range(n_readers)]
        first = [below(n_readers) for _ in range(length)]
        second = [below(n_readers) for _ in range(length)]
        while second == first:
            second = [below(n_readers) for _ in range(length)]
        # crypto.path_poly_eval of both paths, Horner style (0 < a0 < q)
        v1 = v2 = a0
        for r1, r2 in zip(first, second):
            v1 = (v1 * x0 + coeffs[r1]) % q
            v2 = (v2 * x0 + coeffs[r2]) % q
        collisions += v1 == v2
    return collisions, pairs


def randbelow(rng: Random) -> Callable[[int], int]:
    """``rng.randrange(n)`` for n >= 1 as CPython's ``Random._randbelow``
    draws it: ``n.bit_length()`` bits at a time until a draw is below n.
    So ``1 + below(q - 1)`` is ``rng.randrange(1, q)``, without
    ``randrange``'s argument checks; tests pin the two sequences equal on
    the running interpreter."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below
