"""Event traces for path-based traceability and the four path properties.

A system run is modelled as an ordered trace of three event kinds:

* ``Move(tag, reader)``    - the tag was physically present at a reader
* ``ValidPath(tag, path)`` - the supply chain registered an intended path
* ``PathClaim(tag, path, claimant)`` - a verifier asserted the tag took a path

The physical path of a tag is derived from its Move events by collapsing
consecutive repeats: a tag sitting at the same reader produces one step, but
revisiting a reader later yields a new step (cycles are kept, loops are not).

A claim is judged against the trace prefix strictly before it:

* sound      - every claimed reader was physically visited (set inclusion)
* complete   - claimed and physical reader sets coincide
* sorted     - the claimed path is a subsequence of the physical path
* authorized - some earlier ValidPath for the tag has the claim as a prefix

Mismatched claims are classified against a set of valid paths into the
attack labels of :class:`AttackLabel`.

:class:`Trace` keeps each tag's collapsed physical path and its ValidPaths,
and the index of every claim, up to date as events are appended.  It
resolves each claim once: its tag's physical path before it (and that
path's reader set) and valid paths before it are bisected out of the index
on the claim's first verdict, check or label, and kept for the rest.
Nothing scales with trace length, with the tag's repeated Moves or with
other tags.

Everything the checkers hash or compare is a string or a tuple, so that
work runs in C: a reader, a tag or a backend is the token that names it,
and events, :class:`CheckResult` and :class:`Verdict` are named tuples.
:func:`parse_trace` builds each event as a bare tuple of its class, without
the named tuple's Python ``__new__``, and hands it to :meth:`Trace.append`,
which keeps the index in one place.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple, Sequence


def _token(value: str) -> str:
    """``value``, when it is a non-empty token without whitespace."""
    if not value or any(c.isspace() for c in value):
        raise ValueError(f"identifier must be a non-empty token: {value!r}")
    return value


# a reader, a tag or a backend is the token that names it
reader = tag = backend = _token


class Move(NamedTuple):
    tag: str
    reader: str


class ValidPath(NamedTuple):
    tag: str
    path: tuple[str, ...]


class PathClaim(NamedTuple):
    tag: str
    path: tuple[str, ...]
    claimant: str


Event = Move | ValidPath | PathClaim


class _TagIndex:
    """One tag's collapsed physical path and its ValidPaths.

    ``steps`` is the tag's physical path over the whole trace so far, and
    ``step_at[k]`` the event index of the first Move of ``steps[k]``.  The
    Moves before any index collapse to a prefix of ``steps``.
    """

    __slots__ = ("steps", "step_at", "valid_at", "valid_paths")

    def __init__(self) -> None:
        self.steps: list[str] = []
        self.step_at: list[int] = []
        self.valid_at: list[int] = []
        self.valid_paths: list[tuple[str, ...]] = []


class Trace:
    """Append-only ordered sequence of events with dense indices."""

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._events: list[Event] = []
        self._by_tag: defaultdict[str, _TagIndex] = defaultdict(_TagIndex)
        self._claim_at: list[int] = []  # the index of every PathClaim, in order
        self._resolved: dict[int, tuple] = {}  # claim index -> _resolve's answer
        for e in events:
            self.append(e)

    def append(self, event: Event) -> int:
        """Append an event, returning its index.  An event is a Move, a
        ValidPath or a PathClaim, of exactly that class."""
        index = len(self._events)
        cls = event.__class__
        if cls is Move:
            entry = self._by_tag[event.tag]
            steps = entry.steps
            if not steps or steps[-1] != event.reader:
                steps.append(event.reader)
                entry.step_at.append(index)
        elif cls is ValidPath:
            entry = self._by_tag[event.tag]
            entry.valid_at.append(index)
            entry.valid_paths.append(event.path)
        elif cls is PathClaim:
            self._claim_at.append(index)
        else:
            raise TypeError(f"not a trace event: {event!r}")
        self._events.append(event)
        return index

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def claims(self) -> Iterator[tuple[int, PathClaim]]:
        """Yield (index, claim) for every PathClaim in order."""
        events = self._events
        for i in self._claim_at:
            yield i, events[i]

    def tags(self) -> list[str]:
        """All tags mentioned, in first-appearance order."""
        seen: dict[str, None] = {}
        for e in self._events:
            seen.setdefault(e.tag, None)
        return list(seen)


def collapse(readers: Sequence[str]) -> tuple[str, ...]:
    """Drop consecutive duplicates, keeping later revisits."""
    out: list[str] = []
    for r in readers:
        if not out or out[-1] != r:
            out.append(r)
    return tuple(out)


def physical_path(trace: Trace, tag: str, upto: int | None = None) -> tuple[str, ...]:
    """The tag's physical path from Move events strictly before ``upto``.

    ``upto=None`` uses the whole trace.  Consecutive repeats collapse; an
    empty result means the tag never moved in the window.  A negative
    ``upto`` raises ValueError.
    """
    if upto is None:
        upto = len(trace)
    elif upto < 0:
        raise ValueError(f"upto must be non-negative, got {upto}")
    entry = trace._by_tag.get(tag)
    if entry is None:
        return ()
    return tuple(entry.steps[: bisect_left(entry.step_at, upto)])


def is_subsequence(needle: Sequence[str], hay: Sequence[str]) -> bool:
    """True when ``needle`` appears in ``hay`` in order (gaps allowed)."""
    it = iter(hay)
    for x in needle:
        if x not in it:  # consumes the iterator up to and including a match
            return False
    return True


class CheckResult(NamedTuple):
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _resolve(
    trace: Trace, claim_index: int
) -> tuple[PathClaim, tuple[str, ...], set[str], list[tuple[str, ...]]]:
    """The claim at ``claim_index``, its tag's physical path before it, the
    set of that path's readers, and the tag's valid paths before it.  The
    trace keeps the answer: an append adds events only after the claim, so
    it never goes stale."""
    resolved = trace._resolved.get(claim_index)
    if resolved is None:
        if claim_index < 0:
            raise ValueError(f"claim index must be non-negative, got {claim_index}")
        if claim_index >= len(trace):
            raise ValueError(
                f"claim index {claim_index} is past the end of a trace of {len(trace)} events"
            )
        claim = trace[claim_index]
        if not isinstance(claim, PathClaim):
            raise ValueError(f"event {claim_index} is not a PathClaim: {claim!r}")
        entry = trace._by_tag.get(claim.tag)
        valid = entry.valid_paths[: bisect_left(entry.valid_at, claim_index)] if entry else []
        phys = physical_path(trace, claim.tag, claim_index)
        resolved = trace._resolved[claim_index] = (claim, phys, set(phys), valid)
    return resolved


# Each property helper returns the witness of a violation, or None when the
# property holds.

def _sound(phys_set: set[str], claimed: Sequence[str]) -> str | None:
    for r in claimed:
        if r not in phys_set:
            return f"claimed reader {r} never visited"
    return None


def _complete(
    phys: tuple[str, ...], phys_set: set[str], claimed: Sequence[str]
) -> str | None:
    claimed_set = set(claimed)
    if not claimed_set <= phys_set:
        return _sound(phys_set, claimed)
    if len(claimed_set) == len(phys_set):
        return None
    missing = next(r for r in phys if r not in claimed_set)
    return f"visited reader {missing} absent from claim"


def _sorted(phys: tuple[str, ...], claimed: Sequence[str]) -> str | None:
    it = iter(phys)
    for i, r in enumerate(claimed):
        if r not in it:  # consumes the iterator up to and including a match
            return f"claimed step {i} ({r}) out of physical order"
    return None


def _authorized(valid: Sequence[tuple[str, ...]], claimed: Sequence[str]) -> str | None:
    claim = tuple(claimed)
    n = len(claim)
    for path in valid:
        if tuple(path[:n]) == claim:
            return None
    return "no earlier ValidPath has the claim as a prefix"


def _result(witness: str | None) -> CheckResult:
    return CheckResult(witness is None, witness)


def check_sound(trace: Trace, claim_index: int) -> CheckResult:
    """Claimed readers are a subset of the physically visited readers."""
    claim, _phys, phys_set, _valid = _resolve(trace, claim_index)
    return _result(_sound(phys_set, claim.path))


def check_complete(trace: Trace, claim_index: int) -> CheckResult:
    """Claimed and physical reader sets are equal."""
    claim, phys, phys_set, _valid = _resolve(trace, claim_index)
    return _result(_complete(phys, phys_set, claim.path))


def check_sorted(trace: Trace, claim_index: int) -> CheckResult:
    """The claimed path is a subsequence of the physical path."""
    claim, phys, _phys_set, _valid = _resolve(trace, claim_index)
    return _result(_sorted(phys, claim.path))


def check_authorized(trace: Trace, claim_index: int) -> CheckResult:
    """Some strictly earlier ValidPath for the tag has the claim as a prefix."""
    claim, _phys, _phys_set, valid = _resolve(trace, claim_index)
    return _result(_authorized(valid, claim.path))


class Verdict(NamedTuple):
    """Evaluation of one PathClaim against its trace prefix."""

    claim_index: int
    sound: bool
    complete: bool
    sorted: bool
    authorized: bool
    witness: str | None = None

    def properties(self) -> dict[str, bool]:
        return {
            "sound": self.sound,
            "complete": self.complete,
            "sorted": self.sorted,
            "authorized": self.authorized,
        }


def verdict_for(trace: Trace, claim_index: int) -> Verdict:
    """Run all four property checks on one claim.

    ``witness`` carries the explanation of the first failing check, in the
    order sound, complete, sorted, authorized.
    """
    claim, phys, phys_set, valid = _resolve(trace, claim_index)
    claimed = claim.path
    unsound = _sound(phys_set, claimed)
    if unsound is None:
        incomplete = _complete(phys, phys_set, claimed)
        unsorted = _sorted(phys, claimed)
    else:  # a reader never visited breaks completeness and order too
        incomplete = unsorted = unsound
    unauthorized = _authorized(valid, claimed)
    if unsound is not None:
        witness = f"sound: {unsound}"
    elif incomplete is not None:
        witness = f"complete: {incomplete}"
    elif unsorted is not None:
        witness = f"sorted: {unsorted}"
    elif unauthorized is not None:
        witness = f"authorized: {unauthorized}"
    else:
        witness = None
    return Verdict(
        claim_index,
        unsound is None,
        incomplete is None,
        unsorted is None,
        unauthorized is None,
        witness,
    )


class SystemVerdict(NamedTuple):
    """Do the properties hold for every claim in every trace?

    ``counterexamples`` maps a property name to the (trace_index, claim_index)
    of the first violating claim, when one exists.
    """

    holds: dict[str, bool]
    counterexamples: dict[str, tuple[int, int]]


def evaluate_system(traces: Sequence[Trace]) -> SystemVerdict:
    """A property holds for the system iff it holds for all claims of all traces."""
    holds = {"sound": True, "complete": True, "sorted": True, "authorized": True}
    counterexamples: dict[str, tuple[int, int]] = {}
    for ti, trace in enumerate(traces):
        for ci, _claim in trace.claims():
            verdict = verdict_for(trace, ci)
            for prop, ok in verdict.properties().items():
                if not ok and holds[prop]:
                    holds[prop] = False
                    counterexamples[prop] = (ti, ci)
    return SystemVerdict(holds=holds, counterexamples=counterexamples)


class AttackLabel(enum.Enum):
    OUT_OF_ORDER = "OutOfOrder"
    SKIP_STEP = "SkipStep"
    REROUTE = "Reroute"
    GHOST_STEP = "GhostStep"
    UNAUTHORIZED_PATH = "UnauthorizedPath"


def classify(
    physical: Sequence[str],
    claimed: Sequence[str],
    valid: Iterable[Sequence[str]],
) -> frozenset[AttackLabel]:
    """Label the discrepancy between a claim and the physical path.

    ``valid`` is the set of registered paths the verifier would accept.  An
    honest claim yields the empty set.  Several labels can apply at once,
    one per matching pattern:

    * GhostStep         - a claimed reader was never visited (unsound claim)
    * SkipStep          - sound but incomplete, and the claim sits inside a
                          valid path with at least one hole
    * Reroute           - the tag physically visited a reader that belongs to
                          no valid path and is absent from the claim
    * OutOfOrder        - the claim lists exactly the first visited readers
                          but in a different order
    * UnauthorizedPath  - no valid path has the claim as a prefix
    """
    phys = collapse(physical)
    return _classify(phys, set(phys), tuple(claimed), [tuple(p) for p in valid])


def _classify(
    phys: tuple[str, ...],
    phys_set: set[str],
    claim: tuple[str, ...],
    valid_paths: Sequence[tuple[str, ...]],
) -> frozenset[AttackLabel]:
    """``classify`` of an already collapsed physical path and the set of
    its readers, on tuples."""
    labels: set[AttackLabel] = set()

    claim_set = set(claim)
    sound = claim_set <= phys_set

    if not sound:
        labels.add(AttackLabel.GHOST_STEP)
    elif len(claim_set) < len(phys_set):
        # sound but incomplete: the claim fits strictly inside some valid
        # path, i.e. steps were skipped
        if any(len(claim) < len(vp) and is_subsequence(claim, vp) for vp in valid_paths):
            labels.add(AttackLabel.SKIP_STEP)

    unclaimed = phys_set - claim_set
    if unclaimed and not unclaimed <= {r for vp in valid_paths for r in vp}:
        labels.add(AttackLabel.REROUTE)

    if sound and not is_subsequence(claim, phys):
        # the first len(claim) visited readers are the claim's as a multiset:
        # equal counts of every claimed reader leave no room for another
        head = phys[: len(claim)]
        if all(head.count(r) == claim.count(r) for r in claim_set):
            labels.add(AttackLabel.OUT_OF_ORDER)

    n = len(claim)
    if not any(vp[:n] == claim for vp in valid_paths):
        labels.add(AttackLabel.UNAUTHORIZED_PATH)

    return frozenset(labels)


def classify_claim(trace: Trace, claim_index: int) -> frozenset[AttackLabel]:
    """Classify one in-trace claim against the movement that preceded it."""
    claim, phys, phys_set, valid = _resolve(trace, claim_index)
    return _classify(phys, phys_set, claim.path, valid)


# --- line serialization ----------------------------------------------------

def format_event(event: Event) -> str:
    """One event per line: MOVE / VALIDPATH / CLAIM followed by tokens."""
    if isinstance(event, Move):
        return f"MOVE {event.tag} {event.reader}"
    if isinstance(event, ValidPath):
        return " ".join(["VALIDPATH", event.tag, *event.path])
    if isinstance(event, PathClaim):
        return " ".join(["CLAIM", event.tag, event.claimant, *event.path])
    raise TypeError(f"not a trace event: {event!r}")


def dump_trace(trace: Trace) -> str:
    return "".join(format_event(e) + "\n" for e in trace)


class TraceParseError(ValueError):
    pass


_KINDS = ("MOVE", "VALIDPATH", "CLAIM")


def parse_trace(text: str) -> Trace:
    """Parse a trace dump.

    Kinds are case-insensitive.  Blank lines are skipped, and so is any
    line whose first token starts with ``#``.  Events are built from the
    split tokens as bare tuples of their class, without the named tuple's
    Python ``__new__``, and each one goes through :meth:`Trace.append`.
    """
    trace = Trace()
    append = trace.append
    new = tuple.__new__
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind not in _KINDS:
            kind = kind.upper()
            if kind not in _KINDS:
                if kind.startswith("#"):
                    continue
                raise TraceParseError(f"line {lineno}: unknown event {kind}")
        if kind == "MOVE":
            if len(parts) != 3:
                raise TraceParseError(f"line {lineno}: MOVE wants <tag> <reader>")
            append(new(Move, (parts[1], parts[2])))
        elif kind == "VALIDPATH":
            if len(parts) < 3:
                raise TraceParseError(f"line {lineno}: VALIDPATH wants <tag> <r1> ...")
            append(new(ValidPath, (parts[1], tuple(parts[2:]))))
        else:  # CLAIM
            if len(parts) < 4:
                raise TraceParseError(f"line {lineno}: CLAIM wants <tag> <claimant> <r1> ...")
            append(new(PathClaim, (parts[1], tuple(parts[3:]), parts[2])))
    return trace
