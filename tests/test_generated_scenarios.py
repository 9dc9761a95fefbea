"""Seeded, generated run scenarios for all seven schemes.

Each generated text is a valid scenario file: it varies path length (1-8),
repeated, shared, spare and transit readers, whether the scheme's params
and a mode are given, honest or permuted moves and, under AdvR,
``compromise`` lines.  Every text must end in exit 0, 1 or 3, or in exit 2
at a ``file:line`` refusal; and every claim a run emits must get the
verdict that ``tests/oracles.py`` gives for that run's physical path.
"""

from __future__ import annotations

import random
import re

from oracles import (
    oracle_authorized,
    oracle_complete,
    oracle_physical,
    oracle_sorted,
    oracle_sound,
)

from pathtrace.protocols import PROTOCOLS
from pathtrace.scenario import EXIT_CAPABILITY, EXIT_EXPECT, EXIT_OK, EXIT_PARSE, run_scenario

READERS = [f"r{i}" for i in range(1, 9)]
TRANSITS = ["x1", "x2"]
CASES_PER_SCHEME = 14
PROPERTIES = ("sound", "complete", "sorted", "authorized")


def _path(rng: random.Random, transits: list[str]) -> tuple[str, ...]:
    """A path of 1-8 steps over the readers, with repeated readers and
    transit readers sometimes."""
    length = rng.randint(1, 8)
    pool = READERS + transits if rng.random() < 0.3 else READERS
    if rng.random() < 0.3:
        return tuple(rng.choice(pool) for _ in range(length))  # repeats allowed
    return tuple(rng.sample(pool, min(length, len(pool))))


def generate(rng: random.Random, protocol: str) -> str:
    scheme = PROTOCOLS[protocol]
    adversary = rng.choice(["AdvT", "AdvR"])
    lines = [f"protocol {protocol}", "kind run", f"seed {rng.randrange(1000)}"]
    lines.append(f"adversary {adversary}")
    if len(scheme.modes) > 1 and rng.random() < 0.5:
        lines.append(f"mode {rng.choice(scheme.modes)}")
    transits = TRANSITS[: rng.randrange(3)]
    tags = [f"t{i}" for i in range(1, rng.randint(1, 3) + 1)]
    paths: dict[str, list[tuple[str, ...]]] = {}
    for tag in tags:
        if scheme.path_rule == "none":
            count = 0
        elif scheme.path_rule == "exactly one":
            count = 1
        else:
            count = rng.randint(1 if scheme.path_rule == "at least one" else 0, 2)
        # tags share readers, since every path draws from the same readers
        paths[tag] = [_path(rng, transits) for _ in range(count)]
    on_paths = [r for tag in tags for path in paths[tag] for r in path if r in READERS]
    spare = [r for r in READERS if r not in on_paths and rng.random() < 0.2]
    readers = list(dict.fromkeys(on_paths + spare)) or [rng.choice(READERS)]
    for reader in readers:
        lines.append(f"reader {reader}")
    if protocol == "tracker" and rng.random() < 0.7:
        lines += ["reader m", "param manager m"]  # a manager on no path
    if protocol == "tracker" and len(readers) > 1 and rng.random() < 0.3:
        lines.append("param equal " + ",".join(rng.sample(readers, 2)))
    if transits:
        lines.append("transit " + " ".join(transits))
    lines.append("tag " + " ".join(tags))
    for tag in tags:
        if rng.random() < 0.85:
            lines.append(f"capacity {tag} 16384")
        lines += [f"validpath {tag} " + " ".join(path) for path in paths[tag]]
    if adversary == "AdvR" and rng.random() < 0.7:
        lines.append(f"compromise {rng.choice(readers)}")
    # each tag walks its first path (or any readers), honestly or permuted,
    # sometimes through a transit waypoint; the tags' moves interleave
    walks = []
    for tag in tags:
        walk = list(paths[tag][0] if paths[tag] else _path(rng, transits))
        walk = [r for r in walk if r in readers or r in transits]
        if transits and rng.random() < 0.3:
            walk.insert(rng.randrange(len(walk) + 1), rng.choice(transits))
        if rng.random() < 0.4:
            rng.shuffle(walk)
        walks.append([f"move {tag} {r}" for r in walk])
    while any(walks):
        walk = rng.choice([w for w in walks if w])
        lines.append(walk.pop(0))
    lines += [f"claim {tag}" for tag in tags]
    if rng.random() < 0.3:
        lines.append("expect stalled false")
    return "\n".join(lines) + "\n"


def report_claims(lines: list[str]):
    """(verdict, tag, claimed path, visits, valid paths) of each judged
    claim, read from a run report: its verdict lines and its trace dump."""
    dump = lines[lines.index("trace-begin") + 1 : lines.index("trace-end")]
    events = [line.split() for line in dump]
    for line in lines:
        if not line.startswith("verdict "):
            continue
        fields = dict(field.split("=") for field in line.split()[1:])
        index = int(fields["claim_index"])
        kind, tag, _claimant, *claimed = events[index]
        assert kind == "CLAIM"
        visits = [e[2] for e in events[:index] if e[0] == "MOVE" and e[1] == tag]
        valid = [e[2:] for e in events[:index] if e[0] == "VALIDPATH" and e[1] == tag]
        verdict = tuple(fields[p] == "true" for p in PROPERTIES)
        yield verdict, tag, tuple(claimed), visits, valid


def test_generated_scenarios_end_in_a_documented_exit_and_oracle_verdicts(tmp_path):
    rng = random.Random(20261019)
    codes: dict[str, set[int]] = {p: set() for p in PROTOCOLS}
    refusals: set[str] = set()
    judged = 0
    for protocol in sorted(PROTOCOLS):
        for k in range(CASES_PER_SCHEME):
            text = generate(rng, protocol)
            path = tmp_path / f"{protocol}-{k}.scn"
            path.write_text(text)
            result = run_scenario(path)
            codes[protocol].add(result.exit_code)
            assert result.exit_code in (EXIT_OK, EXIT_EXPECT, EXIT_PARSE, EXIT_CAPABILITY), text
            if result.exit_code == EXIT_PARSE:
                failure = result.failures[0]
                assert re.match(rf"{re.escape(path.name)}:\d+: ", failure), (failure, text)
                if "is not a protocol reader" in failure:
                    refusals.add(protocol)
                continue
            if result.exit_code == EXIT_CAPABILITY:
                continue
            for verdict, tag, claimed, visits, valid in report_claims(result.lines):
                physical = oracle_physical(visits)
                want = (
                    oracle_sound(physical, claimed),
                    oracle_complete(physical, claimed),
                    oracle_sorted(physical, claimed),
                    oracle_authorized(valid, claimed),
                )
                assert verdict == want, (tag, claimed, visits, valid, text)
                judged += 1
    # the generator reaches what the test is for: runs with claims in every
    # scheme, and a transit on a registered path in each scheme that keys
    # its path readers
    assert all(EXIT_OK in c for c in codes.values()), codes
    assert set().union(*codes.values()) == {EXIT_OK, EXIT_EXPECT, EXIT_PARSE, EXIT_CAPABILITY}
    assert refusals >= {"tracker", "checker", "stepauth", "ray", "resc"}, refusals
    assert judged > 100
