"""Line-oriented scenario files: one reproducible experiment per file.

A scenario describes either a scripted protocol run, a named attack
replay, or a privacy game, plus `expect` assertions over the outcome and
optional `matrix` evidence directives.  Example::

    protocol tracker
    kind run
    seed 11
    reader r1 acme
    reader r2 bolt
    reader m
    param manager m
    transit w
    tag t1
    validpath t1 r1 r2
    move t1 r1
    move t1 w
    move t1 r2
    claim t1
    expect sound true
    expect complete false
    matrix ss hold AdvT

The run settings (protocol, seed, mode, adversary, readers, script, ...)
parse straight into the scenario's ``RunConfig``; the rest of the
scenario says what to execute with them and what to expect.

``DIRECTIVES`` states, for each directive, the kinds that take it, its
fewest and most values and the roles of the values that name a tag or
reader.  A directive it does not know, or with too few or too many
values, fails at its line, and so does one the scenario's kind does not
take; so do a ``strategy`` outside the network's ``STRATEGIES``, a
``distinguisher`` outside ``DISTINGUISHERS`` and a ``param`` key outside
the scheme's ``param_keys``: only Tracker reads any, ``manager`` (the
verifying reader) and ``equal`` (readers sharing one coefficient).  The
network routes by bare token, so one token names one party: a token
declared twice (across ``tag``, ``reader`` and ``transit``) fails at its
second line, and one that is the scheme's fixed verifier fails at its
declaring line.  A tag whose paths break the scheme's ``path_rule``
fails at its ``tag`` line, a ``validpath`` line for a scheme that
registers no paths (RF-Chain) fails at the first such line, and a path
that breaks a precondition of the scheme's setup (``check_setup``: a
transit reader, or Tracker's manager, on a path whose readers the scheme
keys) fails at its first ``validpath`` line.  A value that names a tag
or reader the file does not declare as one, ``param manager`` and
``param equal`` readers included, fails at its line; a claim may also
name the scheme's fixed verifier, which no file declares.  An ``attack`` registered for another
scheme than the file's ``protocol`` fails at its line, and so does a
keyword the attack does not take, of another type than its default's,
or refused by the attack's ``check`` (an index off the path, a size
below 1 or above its ``attacks`` bound); a ``mode`` line fails when the
attack takes no mode.  A distinguisher that is known but limited to another
scheme or game is refused only at execution, as exit 3.

Matrix directives feed the solution table: `matrix <prop> hold <model>`
claims the property held in this scenario's adversary model (a hold
naming another model fails at its line), while `break`/`weakness`/`caveat`
attach a numbered footnote.  A directive counts as evidence only when
every `expect` line of its scenario holds.

Exit codes: 0 all expectations hold, 1 some expectation failed, 2 the
file does not parse, 3 the scenario demands a capability the configured
model or verifier policy refuses (any of ``CAPABILITY_ERRORS``, a tag too
small for the scheme's state included).  A file whose execution raises
any other exception also comes back as exit 2, with a
``file: Type: message`` failure line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from pathtrace import trace as tr
from pathtrace.attacks import ATTACKS, AttackOutcome, BoundedSearchError
from pathtrace.network import STRATEGIES, AdvModel, CapabilityError, TagCapacityError
from pathtrace.privacy import (
    DISTINGUISHERS,
    MAX_TRIALS,
    MAX_WORLDS,
    GameKind,
    PrivacyGame,
    UnsupportedGameError,
    run_game,
)
from pathtrace.protocols import PROTOCOLS, RunConfig, run_protocol
from pathtrace.protocols.base import (
    PathRuleError,
    RunResult,
    SetupError,
    VerifierPolicyError,
    check_setting,
)

EXIT_OK = 0
EXIT_EXPECT = 1
EXIT_PARSE = 2
EXIT_CAPABILITY = 3

# What a scenario may demand that the configured model refuses: exit 3.
CAPABILITY_ERRORS = (
    CapabilityError,
    TagCapacityError,
    VerifierPolicyError,
    BoundedSearchError,
    UnsupportedGameError,
)

KINDS = ("run", "attack", "privacy")


class Directive(NamedTuple):
    """What a scenario line may hold: the kinds that take it, its fewest
    and most values (refused as ``<key> needs <needs>``), and, when its
    values name tags or readers, the role of its first value and of each
    other value (None: they name neither)."""

    kinds: tuple[str, ...]
    fewest: int = 0
    most: float = math.inf
    needs: str = ""
    roles: tuple[str, str | None] | None = None


_ONE = (1, 1, "exactly one value")  # the bounds and refusal of a single value
_RUN, _ANY = ("run",), math.inf

# every directive; `protocol`, `kind`, `adversary`, `attack`, `game` and
# `matrix` check their values themselves
DIRECTIVES = {
    "protocol": Directive(KINDS),
    "kind": Directive(KINDS),
    "seed": Directive(KINDS, *_ONE),
    "mode": Directive(KINDS, *_ONE),
    "adversary": Directive(KINDS),
    "expect": Directive(KINDS, 2, 2, "a key and a value"),
    "matrix": Directive(KINDS),
    "strategy": Directive(_RUN, *_ONE),
    "compromise": Directive(_RUN, 1, _ANY, "at least one reader", ("reader", "reader")),
    "reader": Directive(_RUN, 1, 2, "a token and at most one participant"),
    "transit": Directive(_RUN, 1, _ANY, "at least one reader"),
    "tag": Directive(_RUN, 1, _ANY, "at least one tag"),
    "validpath": Directive(_RUN, 2, _ANY, "a tag and at least one reader", ("tag", "reader")),
    "capacity": Directive(_RUN, 2, 2, "a tag and a bit count", ("tag", None)),
    "param": Directive(_RUN, 2, _ANY, "a key and a value"),
    "move": Directive(_RUN, 2, 2, "a tag and a reader", ("tag", "reader")),
    "claim": Directive(_RUN, 1, 2, "a tag and at most one verifier", ("tag", "verifier")),
    "attack": Directive(("attack",)),
    "game": Directive(("privacy",)),
    "distinguisher": Directive(("privacy",), *_ONE),
    "trials": Directive(("privacy",), *_ONE),
    "worlds": Directive(("privacy",), *_ONE),
}

# expect keys whose value is a float threshold on a game's advantage
_THRESHOLD_KEYS = ("advantage_min", "advantage_max")

MATRIX_PROPERTIES = {
    "ss": "sound_sorted",
    "ssc": "complete",
    "auth": "authorized",
    "priv": "privacy",
}
MATRIX_ACTIONS = ("hold", "break", "weakness", "caveat")
FOOTNOTE_LEGEND = {
    1: "attack reproduced in corpus",
    2: "weakness reproduced in corpus",
    4: "holds only with a single registered path",
}
KNOWN_FOOTNOTES = tuple(FOOTNOTE_LEGEND)


class ScenarioError(Exception):
    """Malformed scenario file; message carries file:line diagnostics, and
    ``scenario`` what was parsed of the file before the fault."""

    def __init__(self, message: str, scenario: Scenario) -> None:
        super().__init__(message)
        self.scenario = scenario


class MatrixDirective(NamedTuple):
    prop: str  # MatrixRow field name
    action: str
    model: str | None = None  # hold
    footnote: int | None = None  # break / weakness / caveat


@dataclass
class Scenario:
    """One parsed file: the ``RunConfig`` it holds, what to execute with it
    (a run, an attack or a game) and the expectations over the outcome."""

    path: Path
    config: RunConfig = field(default_factory=lambda: RunConfig(protocol=""))
    kind: str = "run"
    attack: str | None = None
    attack_args: dict[str, object] = field(default_factory=dict)
    game: GameKind | None = None
    distinguisher: str = "random"
    trials: int = 500
    worlds: int = 32
    expects: list[tuple[str, str]] = field(default_factory=list)
    directives: list[MatrixDirective] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.path.stem


@dataclass
class ScenarioResult:
    scenario: Scenario
    exit_code: int
    failures: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    @property
    def validated_directives(self) -> list[MatrixDirective]:
        return list(self.scenario.directives) if self.exit_code == EXIT_OK else []

    def report_lines(self) -> list[str]:
        head = [
            f"scenario {self.scenario.name}",
            f"protocol={self.scenario.config.protocol}",
            f"kind={self.scenario.kind}",
            f"exit={self.exit_code}",
        ]
        body = list(self.lines)
        tail = [f"expect-failed {f}" for f in self.failures]
        return head + body + tail


# --- parsing ---------------------------------------------------------------

# how a refusal names an attack keyword's type, where its name would not do
_TYPE_WORDS = {tuple: "a list of integers"}


def _attack_value(token: str) -> object:
    if token in ("true", "false"):
        return token == "true"
    if "," in token:
        return tuple(int(p) for p in token.split(","))
    try:
        return int(token)
    except ValueError:
        return token


def parse_scenario(path: Path) -> Scenario:
    scn = Scenario(path=Path(path))
    cfg = scn.config
    line_of: dict[str, int] = {}  # the last line of each directive
    # (line, setting, value) of each mode, an attack's included, and of
    # each param key: checking them needs the protocol, which may come last
    settings: list[tuple[int, str, str]] = []
    # the declaring line of each tag, reader and transit token, and whether
    # it names a tag or a reader
    declared: dict[str, tuple[int, str]] = {}
    path_line: dict[tuple[str, tuple[str, ...]], int] = {}  # first line of each valid path
    # (line, roles, tokens) of the names each line that is not a
    # declaration uses: a declaration may come later in the file
    uses: list[tuple[int, tuple[str, str | None], list[str]]] = []
    holds: list[tuple[int, str]] = []  # (line, model) of each matrix hold

    def err(lineno: int, message: str) -> ScenarioError:
        return ScenarioError(f"{scn.path.name}:{lineno}: {message}", scn)

    def declare(lineno: int, role: str, tokens: list[str]) -> list[str]:
        for token in tokens:
            if token in declared:
                raise err(lineno, f"{token} is declared twice, first at line {declared[token][0]}")
            declared[token] = (lineno, role)
        return tokens

    def integer(
        lineno: int, key: str, token: str, minimum: float = -math.inf, maximum: float = math.inf
    ) -> int:
        try:
            value = int(token)
        except ValueError:
            raise err(lineno, f"{key} {token!r} is not an integer") from None
        if value < minimum:
            raise err(lineno, f"{key} must be at least {minimum}")
        if value > maximum:
            raise err(lineno, f"{key} must be at most {maximum}")
        return value

    try:
        text = scn.path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}", scn) from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        key, args = words[0], words[1:]
        rule = DIRECTIVES.get(key)
        if rule is None:
            raise err(lineno, f"unknown directive {key!r}")
        if not rule.fewest <= len(args) <= rule.most:
            raise err(lineno, f"{key} needs {rule.needs}")
        if rule.roles:
            uses.append((lineno, rule.roles, args))
        line_of[key] = lineno
        if key == "protocol":
            if len(args) != 1 or args[0] not in PROTOCOLS:
                raise err(lineno, f"unknown protocol {' '.join(args) or '?'}")
            cfg.protocol = args[0]
        elif key == "kind":
            if len(args) != 1 or args[0] not in (*KINDS, "probe"):
                raise err(lineno, "kind must be run, attack, privacy or probe")
            scn.kind = "attack" if args[0] == "probe" else args[0]
        elif key == "seed":
            cfg.seed = integer(lineno, key, args[0])
        elif key == "mode":
            cfg.mode = args[0]
            settings.append((lineno, key, cfg.mode))
        elif key == "adversary":
            try:
                cfg.adversary = AdvModel(" ".join(args))
            except ValueError:
                raise err(lineno, "adversary must be AdvT or AdvR") from None
        elif key == "strategy":
            cfg.strategy = args[0]
        elif key == "compromise":
            cfg.compromise.extend(args)
        elif key == "reader":
            declare(lineno, "reader", args[:1])
            cfg.readers.append((args[0], args[1] if len(args) > 1 else None))
        elif key == "transit":
            cfg.transits.extend(declare(lineno, "reader", args))
        elif key == "tag":
            cfg.tags.extend(declare(lineno, "tag", args))
        elif key == "validpath":
            cfg.valid_paths.append((args[0], tuple(args[1:])))
            path_line.setdefault(cfg.valid_paths[-1], lineno)
        elif key == "capacity":
            cfg.capacities[args[0]] = integer(lineno, key, args[1], minimum=0)
        elif key == "param":
            cfg.params[args[0]] = value = " ".join(args[1:])
            settings.append((lineno, key, args[0]))
            if args[0] == "manager":
                uses.append((lineno, ("manager", None), [value]))
            elif args[0] == "equal":
                uses.append((lineno, ("reader", "reader"), [r for r in value.split(",") if r]))
        elif key in ("move", "claim"):
            cfg.script.append((key, *args))
        elif key == "attack":
            if not args or args[0] not in ATTACKS:
                raise err(lineno, f"unknown attack {' '.join(args[:1]) or '?'}")
            scn.attack, scn.attack_args = args[0], {}
            types = ATTACKS[scn.attack].spec.types
            for pair in args[1:]:
                if "=" not in pair:
                    raise err(lineno, f"attack argument {pair!r} is not key=value")
                k, v = pair.split("=", 1)
                if k not in types:
                    raise err(lineno, f"attack {scn.attack} does not take {k}")
                if k == "mode":
                    settings.append((lineno, k, v))
                try:
                    value = scn.attack_args[k] = _attack_value(v)
                except ValueError:
                    value = None
                if type(value) is not types[k]:
                    kind = _TYPE_WORDS.get(types[k], f"of type {types[k].__name__}")
                    raise err(lineno, f"attack argument {pair!r} is not {kind}")
        elif key == "game":
            kinds = {k.value: k for k in GameKind}
            if len(args) != 1 or args[0] not in kinds:
                raise err(lineno, f"game must be one of {sorted(kinds)}")
            scn.game = kinds[args[0]]
        elif key == "distinguisher":
            scn.distinguisher = args[0]
        elif key == "trials":
            scn.trials = integer(lineno, key, args[0], minimum=1, maximum=MAX_TRIALS)
        elif key == "worlds":
            scn.worlds = integer(lineno, key, args[0], minimum=1, maximum=MAX_WORLDS)
        elif key == "expect":
            if args[0] in _THRESHOLD_KEYS:
                try:
                    threshold = float(args[1])
                except ValueError:
                    threshold = math.nan
                # a nan threshold would hold whatever the advantage
                if not math.isfinite(threshold):
                    raise err(lineno, f"{args[0]} {args[1]!r} is not a finite number")
            scn.expects.append((args[0], args[1]))
        else:  # matrix
            directive = _parse_matrix(err, lineno, args)
            scn.directives.append(directive)
            if directive.model is not None:
                holds.append((lineno, directive.model))

    if "protocol" not in line_of:
        raise ScenarioError(f"{scn.path.name}: missing protocol directive", scn)
    for key, lineno in line_of.items():
        if scn.kind not in DIRECTIVES[key].kinds:
            article = "an" if scn.kind == "attack" else "a"
            raise err(lineno, f"{key} does not apply to {article} {scn.kind} scenario")
    if cfg.strategy not in STRATEGIES:
        raise err(line_of["strategy"], f"unknown strategy {cfg.strategy}")
    if scn.distinguisher not in DISTINGUISHERS:
        raise err(line_of["distinguisher"], f"unknown distinguisher {scn.distinguisher}")
    for lineno, model in holds:
        if model != cfg.adversary.value:
            message = f"matrix hold {model} is not this scenario's adversary {cfg.adversary}"
            raise err(lineno, message)
    if scn.kind == "attack":
        if scn.attack is None:
            message = f"{scn.path.name}: attack scenario without attack directive"
            raise ScenarioError(message, scn)
        spec = ATTACKS[scn.attack].spec
        if spec.scheme != cfg.protocol:
            message = f"attack {scn.attack} targets {spec.scheme}, not {cfg.protocol}"
            raise err(line_of["attack"], message)
        if "mode" in line_of and "mode" not in spec.settings:
            raise err(line_of["mode"], f"attack {scn.attack} does not take a mode")
        # an attack that drives a run is held to the declared adversary when
        # it executes; one that drives none would leave the line unchecked
        if "adversary" in line_of and "adversary" not in spec.settings and not spec.drives_run:
            message = f"attack {scn.attack} drives no run and takes no adversary"
            raise err(line_of["adversary"], message)
        if spec.check is not None:
            try:
                spec.check(_attack_kwargs(scn))
            except ValueError as exc:
                raise err(line_of["attack"], str(exc)) from None
    for lineno, setting, value in settings:
        try:
            check_setting(cfg.protocol, setting, value)
        except ValueError as exc:
            raise err(lineno, str(exc)) from None
    if scn.kind == "run":
        scheme = PROTOCOLS[cfg.protocol]
        # the network routes by bare token: one token names one party
        if scheme.verifier in declared:
            message = f"{scheme.verifier} is the fixed verifier of {cfg.protocol}"
            raise err(declared[scheme.verifier][0], message)
        if path_line and scheme.path_rule == "none":
            message = f"validpath does not apply: {cfg.protocol} registers no paths"
            raise err(min(path_line.values()), message)
        for lineno, (first, rest), tokens in uses:
            for i, token in enumerate(tokens):
                role = rest if i else first
                if role is None or (role == "verifier" and token == scheme.verifier):
                    continue
                if declared.get(token, (0, None))[1] != ("tag" if role == "tag" else "reader"):
                    raise err(lineno, f"{role} {token} is not declared")
        try:
            scheme.check_setup(cfg, scheme.registered_paths(cfg.tags, cfg.valid_paths))
        except PathRuleError as exc:
            raise err(declared[exc.tag][0], str(exc)) from None
        except SetupError as exc:
            raise err(path_line[exc.tag, exc.path], str(exc)) from None
    if scn.kind == "privacy" and scn.game is None:
        raise ScenarioError(f"{scn.path.name}: privacy scenario without game directive", scn)
    return scn


def _parse_matrix(err, lineno: int, args: list[str]) -> MatrixDirective:
    if len(args) < 2 or args[0] not in MATRIX_PROPERTIES or args[1] not in MATRIX_ACTIONS:
        raise err(lineno, "matrix directive is `matrix <ss|ssc|auth|priv> <action> [arg]`")
    prop = MATRIX_PROPERTIES[args[0]]
    action = args[1]
    if action == "hold":
        if len(args) != 3 or args[2] not in [m.value for m in AdvModel]:
            raise err(lineno, "matrix hold needs a model, AdvT or AdvR")
        return MatrixDirective(prop=prop, action=action, model=args[2])
    try:
        footnote = int(args[2]) if len(args) > 2 else 1
    except ValueError:
        raise err(lineno, f"footnote {args[2]!r} is not a number")
    if footnote not in KNOWN_FOOTNOTES:
        raise err(lineno, f"unknown footnote {footnote}; known: {KNOWN_FOOTNOTES}")
    return MatrixDirective(prop=prop, action=action, footnote=footnote)


# --- execution -------------------------------------------------------------

def _stringify(value: object) -> str:
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return ",".join(_stringify(v) for v in value)
    return str(value)


def _check_expects(
    expects: list[tuple[str, str]],
    facts: dict[str, str],
    membership: dict[str, list[str]],
    advantage: float | None = None,
) -> list[str]:
    """The failed ``expects``: each key against its membership list or its
    fact, then, when a game's ``advantage`` is given, each threshold key
    against it."""
    failures, thresholds = [], []
    for key, want in expects:
        if advantage is not None and key in _THRESHOLD_KEYS:
            if key == "advantage_min" and advantage < float(want):
                thresholds.append(f"advantage {advantage:.4f} below {want}")
            elif key == "advantage_max" and advantage > float(want):
                thresholds.append(f"advantage {advantage:.4f} above {want}")
        elif key in membership:
            if want not in membership[key]:
                failures.append(f"{key}: {want!r} not in {membership[key]}")
        elif key not in facts:
            failures.append(f"{key}: nothing to compare against")
        elif facts[key] != want:
            failures.append(f"{key}: expected {want!r}, got {facts[key]!r}")
    return failures + thresholds


def _run_facts(result: RunResult) -> tuple[dict[str, str], dict[str, list[str]]]:
    claim_indices = [idx for idx, _ in result.trace.claims()]
    facts = {
        "stalled": _stringify(result.stalled),
        "claims": str(len(claim_indices)),
        "anomalies": str(len(result.anomalies)),
    }
    membership: dict[str, list[str]] = {}
    if result.verdicts:
        last = result.verdicts[-1]
        for prop, value in last.properties().items():
            facts[prop] = _stringify(value)
        labels = sorted(
            label.value for label in tr.classify_claim(result.trace, last.claim_index)
        )
        facts["labels"] = ",".join(labels)
        membership["label"] = labels
    return facts, membership


def _execute_run(scn: Scenario) -> tuple[list[str], list[str]]:
    result = run_protocol(scn.config)
    facts, membership = _run_facts(result)
    return _check_expects(scn.expects, facts, membership), result.report_lines()


def _attack_facts(outcome: AttackOutcome) -> tuple[dict[str, str], dict[str, list[str]]]:
    facts = {
        "succeeded": _stringify(outcome.succeeded),
        "violated": _stringify(outcome.violated_property),
    }
    membership: dict[str, list[str]] = {}
    for key, value in outcome.evidence.items():
        facts[f"evidence.{key}"] = _stringify(value)
        if isinstance(value, (list, tuple, dict)):
            facts[f"evidence.{key}_count"] = str(len(value))
    labels = outcome.evidence.get("labels")
    if isinstance(labels, (list, tuple)):
        membership["label"] = [str(l) for l in labels]
    return facts, membership


def _attack_kwargs(scn: Scenario) -> dict[str, object]:
    """Every keyword of the scenario's attack: its defaults, then the run
    settings it takes from the scenario, then the attack line's values."""
    spec = ATTACKS[scn.attack].spec
    settings = {name: getattr(scn.config, name) for name in spec.settings}
    return {**spec.keywords, **settings, **scn.attack_args}


def _execute_attack(scn: Scenario) -> tuple[list[str], list[str]]:
    cfg = scn.config
    outcome = ATTACKS[scn.attack](**_attack_kwargs(scn))
    facts, membership = _attack_facts(outcome)
    failures = _check_expects(scn.expects, facts, membership)
    run = outcome.run
    if run is not None and run.config.adversary is not cfg.adversary:
        failures.append(
            f"adversary: scenario declares {cfg.adversary}, run used {run.config.adversary}"
        )
    return failures, outcome.report_lines()


def _execute_privacy(scn: Scenario) -> tuple[list[str], list[str]]:
    cfg = scn.config
    game = PrivacyGame(
        kind=scn.game,
        protocol=cfg.protocol,
        distinguisher=scn.distinguisher,
        trials=scn.trials,
        seed=cfg.seed,
        mode=cfg.mode,
        adversary=cfg.adversary,
        worlds=scn.worlds,
    )
    result = run_game(game)
    facts = {
        "wins": str(result.wins),
        "trials": str(result.trials),
    }
    return _check_expects(scn.expects, facts, {}, result.advantage), result.report_lines()


def execute_scenario(scn: Scenario) -> ScenarioResult:
    # Called by module name, not through a table, so that wrapping a
    # module attribute (as a tracer does) sees every call.
    try:
        if scn.kind == "run":
            failures, lines = _execute_run(scn)
        elif scn.kind == "attack":
            failures, lines = _execute_attack(scn)
        else:
            failures, lines = _execute_privacy(scn)
    except CAPABILITY_ERRORS as exc:
        code, failures, lines = EXIT_CAPABILITY, [f"capability: {exc}"], []
    else:
        code = EXIT_EXPECT if failures else EXIT_OK
    return ScenarioResult(scenario=scn, exit_code=code, failures=failures, lines=lines)


def run_scenario(path: Path | str) -> ScenarioResult:
    """Parse + execute.  A parse problem comes back as an exit 2 result
    over what was parsed before it, and so does any other exception
    execution raises, as a ``file: Type: message`` failure: one bad file
    never ends a run or a corpus in a traceback."""
    path = Path(path)
    try:
        scn = parse_scenario(path)
    except ScenarioError as exc:
        return ScenarioResult(scenario=exc.scenario, exit_code=EXIT_PARSE, failures=[str(exc)])
    try:
        return execute_scenario(scn)
    except Exception as exc:
        failure = f"{path.name}: {type(exc).__name__}: {exc}"
        return ScenarioResult(scenario=scn, exit_code=EXIT_PARSE, failures=[failure])


def run_corpus(directory: Path | str) -> list[ScenarioResult]:
    """Execute every .scn file in name order."""
    paths = sorted(Path(directory).glob("*.scn"), key=lambda p: p.stem)
    return [run_scenario(path) for path in paths]


def corpus_dir() -> Path:
    """The bundled scenario corpus shipped inside the package."""
    return Path(__file__).parent / "corpus"
