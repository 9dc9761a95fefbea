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

:class:`Trace` keeps each tag's collapsed physical path and its ValidPaths
up to date as events are appended, and judges each claim as it is
appended: the tag's index then holds exactly the prefix before the claim,
and one function works out the witness of each property's violation and,
with them, the claim's attack labels.  The trace keeps only that answer,
never a copy of the tag's path, and the checks, the verdict and the labels
read it.  Nothing scales with trace length, with the tag's repeated Moves
or with other tags.

Everything the checkers hash or compare is a string or a tuple, so that
work runs in C: a reader, a tag or a backend is the token that names it,
and events, :class:`CheckResult` and :class:`Verdict` are named tuples.
:func:`parse_trace` builds each event as a bare tuple of its class, without
the named tuple's Python ``__new__``, and hands it to :meth:`Trace.append`,
which keeps the index in one place.
"""

from __future__ import annotations

import enum
import math
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

    __slots__ = ("steps", "step_at", "valid_paths")

    def __init__(self) -> None:
        self.steps: list[str] = []
        self.step_at: list[int] = []
        self.valid_paths: list[tuple[str, ...]] = []


class Trace:
    """Append-only ordered sequence of events with dense indices."""

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._events: list[Event] = []
        self._by_tag: defaultdict[str, _TagIndex] = defaultdict(_TagIndex)
        self._judged: dict[int, tuple] = {}  # claim index -> _judge's answer, in order
        for e in events:
            self.append(e)

    def append(self, event: Event) -> int:
        """Append an event, returning its index.  An event is a Move, a
        ValidPath or a PathClaim, of exactly that class.  A claim is judged
        here, against its tag's index, which holds exactly the events before
        it."""
        index = len(self._events)
        cls = event.__class__
        if cls is Move:
            entry = self._by_tag[event.tag]
            steps = entry.steps
            if not steps or steps[-1] != event.reader:
                steps.append(event.reader)
                entry.step_at.append(index)
        elif cls is ValidPath:
            self._by_tag[event.tag].valid_paths.append(tuple(event.path))
        elif cls is PathClaim:
            entry = self._by_tag[event.tag]
            self._judged[index] = _judge(entry.steps, tuple(event.path), entry.valid_paths)
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
        for i in self._judged:
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


def _resolve(trace: Trace, claim_index: int) -> tuple:
    """:func:`_judge`'s answer for the claim at ``claim_index``, as
    :meth:`Trace.append` judged it."""
    judged = trace._judged.get(claim_index)
    if judged is None:
        if claim_index < 0:
            raise ValueError(f"claim index must be non-negative, got {claim_index}")
        if claim_index >= len(trace):
            raise ValueError(
                f"claim index {claim_index} is past the end of a trace of {len(trace)} events"
            )
        raise ValueError(f"event {claim_index} is not a PathClaim: {trace[claim_index]!r}")
    return judged


_PROPERTIES = ("sound", "complete", "sorted", "authorized")


class AttackLabel(enum.Enum):
    OUT_OF_ORDER = "OutOfOrder"
    SKIP_STEP = "SkipStep"
    REROUTE = "Reroute"
    GHOST_STEP = "GhostStep"
    UNAUTHORIZED_PATH = "UnauthorizedPath"


# every label set _judge answers, at the mask whose bit k stands for the k-th AttackLabel
_LABEL_SETS = tuple(
    frozenset(label for k, label in enumerate(AttackLabel) if mask >> k & 1) for mask in range(32)
)


def _judge(
    phys: Sequence[str],
    claim: tuple[str, ...],
    valid: Sequence[tuple[str, ...]],
) -> tuple[str | None, str | None, str | None, str | None, frozenset[AttackLabel]]:
    """A claim's whole answer: the witness of each property's violation, in
    the order of ``_PROPERTIES`` or None where the property holds, then its
    attack labels as one of ``_LABEL_SETS``.  Each property is judged on its
    own: a reader never visited is the witness of both unsoundness and
    incompleteness.  Every label but Reroute is read off the witnesses."""
    phys_set = set(phys)
    unsound = incomplete = None
    for r in claim:
        if r not in phys_set:
            unsound = incomplete = f"claimed reader {r} never visited"
            break
    else:
        claim_set = set(claim)
        if len(claim_set) != len(phys_set):
            for r in phys:
                if r not in claim_set:
                    incomplete = f"visited reader {r} absent from claim"
                    break
    unsorted = None
    it = iter(phys)
    for i, r in enumerate(claim):
        if r not in it:  # consumes the iterator up to and including a match
            unsorted = f"claimed step {i} ({r}) out of physical order"
            break
    unauthorized = "no earlier ValidPath has the claim as a prefix"
    n = len(claim)
    for path in valid:
        if path[:n] == claim:
            unauthorized = None
            break
    mask = 0 if unauthorized is None else 16  # UnauthorizedPath
    if unsound is not None:
        mask |= 8  # GhostStep
    else:
        if incomplete is not None:
            # the claim fits strictly inside some valid path: steps were skipped
            for path in valid:
                if n < len(path) and is_subsequence(claim, path):
                    mask |= 2  # SkipStep
                    break
        if unsorted is not None and sorted(phys[:n]) == sorted(claim):
            # the first n visited readers are the claim's, reordered
            mask |= 1  # OutOfOrder
    # a complete claim names every visited reader, so only an incomplete
    # one can leave one that is neither claimed nor on any valid path
    if incomplete is not None and phys_set.difference(claim, *valid):
        mask |= 4  # Reroute
    return unsound, incomplete, unsorted, unauthorized, _LABEL_SETS[mask]


def _check(trace: Trace, claim_index: int, prop: int) -> CheckResult:
    witness = _resolve(trace, claim_index)[prop]
    return CheckResult(witness is None, witness)


def check_sound(trace: Trace, claim_index: int) -> CheckResult:
    """Claimed readers are a subset of the physically visited readers."""
    return _check(trace, claim_index, 0)


def check_complete(trace: Trace, claim_index: int) -> CheckResult:
    """Claimed and physical reader sets are equal."""
    return _check(trace, claim_index, 1)


def check_sorted(trace: Trace, claim_index: int) -> CheckResult:
    """The claimed path is a subsequence of the physical path."""
    return _check(trace, claim_index, 2)


def check_authorized(trace: Trace, claim_index: int) -> CheckResult:
    """Some strictly earlier ValidPath for the tag has the claim as a prefix."""
    return _check(trace, claim_index, 3)


class Verdict(NamedTuple):
    """Evaluation of one PathClaim against its trace prefix."""

    claim_index: int
    sound: bool
    complete: bool
    sorted: bool
    authorized: bool
    witness: str | None = None

    def properties(self) -> dict[str, bool]:
        return dict(zip(_PROPERTIES, (self.sound, self.complete, self.sorted, self.authorized)))


def verdict_for(trace: Trace, claim_index: int) -> Verdict:
    """The four property checks of one claim, built as a bare tuple of
    :class:`Verdict`.

    ``witness`` carries the explanation of the first failing check, in the
    order sound, complete, sorted, authorized.
    """
    unsound, incomplete, unsorted, unauthorized, _ = judged = _resolve(trace, claim_index)
    witness = None
    for prop, w in zip(_PROPERTIES, judged):
        if w is not None:
            witness = f"{prop}: {w}"
            break
    return tuple.__new__(Verdict, (
        claim_index, unsound is None, incomplete is None, unsorted is None,
        unauthorized is None, witness,
    ))


class SystemVerdict(NamedTuple):
    """Do the properties hold for every claim in every trace?

    ``counterexamples`` maps a property name to the (trace_index, claim_index)
    of the first violating claim, when one exists.
    """

    holds: dict[str, bool]
    counterexamples: dict[str, tuple[int, int]]


def evaluate_system(traces: Sequence[Trace]) -> SystemVerdict:
    """A property holds for the system iff it holds for all claims of all traces."""
    holds = dict.fromkeys(_PROPERTIES, True)
    counterexamples: dict[str, tuple[int, int]] = {}
    for ti, trace in enumerate(traces):
        for ci, _claim in trace.claims():
            verdict = verdict_for(trace, ci)
            for prop, ok in verdict.properties().items():
                if not ok and holds[prop]:
                    holds[prop] = False
                    counterexamples[prop] = (ti, ci)
    return SystemVerdict(holds=holds, counterexamples=counterexamples)


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
    * OutOfOrder        - sound but unsorted, and the claim lists exactly the
                          first visited readers in a different order
    * UnauthorizedPath  - no valid path has the claim as a prefix
    """
    return _judge(collapse(physical), tuple(claimed), [tuple(p) for p in valid])[4]


def classify_claim(trace: Trace, claim_index: int) -> frozenset[AttackLabel]:
    """Classify one in-trace claim against the movement that preceded it."""
    return _resolve(trace, claim_index)[4]


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


# kind -> (its event class, the fewest and most tokens of its line, its refusal)
_KINDS = {
    "MOVE": (Move, 3, 3, "MOVE wants <tag> <reader>"),
    "VALIDPATH": (ValidPath, 3, math.inf, "VALIDPATH wants <tag> <r1> ..."),
    "CLAIM": (PathClaim, 3, math.inf, "CLAIM wants <tag> <claimant> <r1> ..."),
}


def parse_trace(text: str) -> Trace:
    """Parse a trace dump.

    Kinds are case-insensitive.  Blank lines are skipped, and so is any
    line whose first token starts with ``#``.  A CLAIM may name no reader,
    as :func:`dump_trace` writes an empty claim.  Events are built from the
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
        shape = _KINDS.get(parts[0])
        if shape is None:
            kind = parts[0].upper()
            shape = _KINDS.get(kind)
            if shape is None:
                if kind.startswith("#"):
                    continue
                raise TraceParseError(f"line {lineno}: unknown event {kind}")
        cls, fewest, most, refusal = shape
        if not fewest <= len(parts) <= most:
            raise TraceParseError(f"line {lineno}: {refusal}")
        if cls is Move:
            append(new(Move, (parts[1], parts[2])))
        elif cls is ValidPath:
            append(new(ValidPath, (parts[1], tuple(parts[2:]))))
        else:
            append(new(PathClaim, (parts[1], tuple(parts[3:]), parts[2])))
    return trace
