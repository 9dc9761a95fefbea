"""Scenario parsing, execution, corpus runs and matrix assembly."""

import math
import random
import re
import signal

import pytest

from pathtrace.attacks import ATTACKS, MAX_DECOYS, MAX_PATH_LEN, MAX_TRIALS
from pathtrace.matrix import (
    MatrixRow,
    build_matrix,
    emit_matrix,
    render_records,
    render_table,
    split_cell,
)
from pathtrace.network import AdvModel
from pathtrace.privacy import MAX_TRIALS as MAX_GAME_TRIALS, MAX_WORLDS
from pathtrace.protocols import PROTOCOLS
from pathtrace.scenario import (
    DIRECTIVES,
    EXIT_CAPABILITY,
    EXIT_EXPECT,
    EXIT_OK,
    EXIT_PARSE,
    KINDS,
    MatrixDirective,
    Scenario,
    ScenarioError,
    ScenarioResult,
    corpus_dir,
    parse_scenario,
    run_corpus,
    run_scenario,
)

TRACKER_RUN = """\
# swap the first two hops
protocol tracker
kind run
seed 7
adversary AdvT

reader r1 acme
reader r2
reader m
param manager m
transit w
tag t1
validpath t1 r1 r2
capacity t1 512

move t1 r1
move t1 w
move t1 r2
claim t1

expect sound true
expect sorted true
matrix ss hold AdvT
"""


def write(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_full_run_scenario(self, tmp_path):
        scn = parse_scenario(write(tmp_path, TRACKER_RUN))
        assert scn.config.protocol == "tracker"
        assert scn.kind == "run"
        assert scn.config.seed == 7
        assert scn.config.adversary is AdvModel.ADV_T
        assert scn.config.readers == [("r1", "acme"), ("r2", None), ("m", None)]
        assert scn.config.transits == ["w"]
        assert scn.config.tags == ["t1"]
        assert scn.config.valid_paths == [("t1", ("r1", "r2"))]
        assert scn.config.capacities == {"t1": 512}
        assert scn.config.params == {"manager": "m"}
        assert scn.config.script == [
            ("move", "t1", "r1"),
            ("move", "t1", "w"),
            ("move", "t1", "r2"),
            ("claim", "t1"),
        ]
        assert scn.expects == [("sound", "true"), ("sorted", "true")]
        assert scn.directives == [
            MatrixDirective(prop="sound_sorted", action="hold", model="AdvT")
        ]
        assert scn.name == "case"

    def test_probe_kind_is_attack(self, tmp_path):
        scn = parse_scenario(
            write(tmp_path, "protocol rfchain\nkind probe\nattack rfchain-length-extension\n")
        )
        assert scn.kind == "attack"

    def test_attack_argument_types(self, tmp_path):
        scn = parse_scenario(
            write(
                tmp_path,
                "protocol ray\nkind attack\n"
                "attack ray-out-of-order order=1,0,2 path_len=3 mode=prf\n",
            )
        )
        assert scn.attack == "ray-out-of-order"
        assert scn.attack_args == {"order": (1, 0, 2), "path_len": 3, "mode": "prf"}

    def test_boolean_attack_argument(self, tmp_path):
        scn = parse_scenario(
            write(tmp_path, "protocol rfchain\nkind attack\nattack rfchain-linking insider=true\n")
        )
        assert scn.attack_args == {"insider": True}

    def test_matrix_break_defaults_to_footnote_one(self, tmp_path):
        scn = parse_scenario(write(tmp_path, "protocol ray\nmatrix ss break\n"))
        assert scn.directives == [
            MatrixDirective(prop="sound_sorted", action="break", footnote=1)
        ]

    def test_privacy_directives(self, tmp_path):
        scn = parse_scenario(
            write(
                tmp_path,
                "protocol rfchain\nkind privacy\ngame tag-unlinkability\n"
                "distinguisher record-linking\ntrials 200\nworlds 16\n"
                "expect advantage_min 0.99\n",
            )
        )
        assert scn.game is not None
        assert scn.distinguisher == "record-linking"
        assert scn.trials == 200
        assert scn.worlds == 16

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("protocol nosuch\n", "unknown protocol"),
            ("protocol tracker\nfrobnicate x\n", "unknown directive"),
            ("protocol tracker\nadversary AdvX\n", "AdvT or AdvR"),
            ("protocol tracker\nkind warble\n", "kind must be"),
            ("protocol tracker\nvalidpath t1\n", "at least one reader"),
            ("protocol tracker\nmove t1\n", "move needs"),
            ("protocol tracker\nexpect sound\n", "expect needs"),
            ("protocol tracker\nmatrix zz hold AdvT\n", "matrix directive is"),
            ("protocol tracker\nmatrix ss hold Foo\n", "matrix hold needs a model"),
            ("protocol tracker\nmatrix ss break 9\n", "unknown footnote"),
            ("protocol tracker\nmatrix ss caveat x\n", "not a number"),
            ("protocol tracker\nkind attack\nattack nosuch\n", "unknown attack"),
            ("protocol tracker\nkind attack\nattack rfchain-linking k\n", "not key=value"),
            ("protocol tracker\nkind privacy\ngame bingo\n", "game must be"),
        ],
    )
    def test_parse_errors(self, tmp_path, text, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario(write(tmp_path, text))

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("seed\n", "seed needs exactly one value"),
            ("seed 1 2\n", "seed needs exactly one value"),
            ("seed x\n", "seed 'x' is not an integer"),
            ("mode\n", "mode needs exactly one value"),
            ("strategy\n", "strategy needs exactly one value"),
            ("distinguisher a b\n", "distinguisher needs exactly one value"),
            ("reader\n", "reader needs a token"),
            ("reader r1 acme extra\n", "reader needs a token"),
            ("capacity t1\n", "capacity needs a tag and a bit count"),
            ("capacity t1 big\n", "capacity 'big' is not an integer"),
            ("capacity t1 -5\n", "capacity must be at least 0"),
            ("trials\n", "trials needs exactly one value"),
            ("trials abc\n", "trials 'abc' is not an integer"),
            ("trials 0\n", "trials must be at least 1"),
            ("worlds -2\n", "worlds must be at least 1"),
            ("worlds 1.5\n", "worlds '1.5' is not an integer"),
            ("worlds 4097\n", "worlds must be at most 4096"),
            ("trials 100001\n", "trials must be at most 100000"),
            ("expect advantage_max abc\n", "advantage_max 'abc' is not a finite number"),
            ("expect advantage_min nan\n", "advantage_min 'nan' is not a finite number"),
            ("attack ray-out-of-order order=1,x\n", "attack argument 'order=1,x' is not a list"),
            ("claim\n", "claim needs a tag and at most one verifier"),
            ("claim t1 r1 junk\n", "claim needs a tag and at most one verifier"),
            ("tag\n", "tag needs at least one tag"),
            ("transit\n", "transit needs at least one reader"),
            ("compromise\n", "compromise needs at least one reader"),
            ("adversary AdvT AdvR\n", "adversary must be AdvT or AdvR"),
            ("mode bogus\n", "tracker does not know mode bogus; its modes are default"),
            ("strategy nosuch\n", "unknown strategy nosuch"),
            ("distinguisher bogus\nkind privacy\ngame tag-unlinkability\n",
             "unknown distinguisher bogus"),
            # a directive the scenario's kind ignores; `kind` may come after it
            ("strategy nosuch\nkind attack\nattack ray-out-of-order\n",
             "strategy does not apply to an attack scenario"),
            ("move t9 r9\nkind probe\nattack ray-out-of-order\n",
             "move does not apply to an attack scenario"),
            ("compromise r9\nkind privacy\ngame tag-unlinkability\n",
             "compromise does not apply to a privacy scenario"),
            ("reader zz\nkind privacy\ngame tag-unlinkability\n",
             "reader does not apply to a privacy scenario"),
            ("attack ray-out-of-order\nkind privacy\ngame tag-unlinkability\n",
             "attack does not apply to a privacy scenario"),
            ("game tag-unlinkability\n", "game does not apply to a run scenario"),
            ("trials 3\n", "trials does not apply to a run scenario"),
            # a param key the scheme does not read; `protocol` may come after it
            ("param bogus 1\n", "tracker does not know param bogus; its params are manager, equal"),
            ("param bogus 1\nprotocol ray\n", "ray does not know param bogus; its params are none"),
            ("param manager r1\nprotocol checker\n",
             "checker does not know param manager; its params are none"),
            ("param group test\n", "tracker does not know param group"),
            # a tag that breaks its scheme's path rule fails at its tag line
            ("tag t1\nprotocol ray\n", "ray needs exactly one registered path for t1"),
            ("tag t1\nprotocol stepauth\nvalidpath t1 r1\nvalidpath t1 r2\nreader r1\nreader r2\n",
             "stepauth needs exactly one registered path for t1"),
            ("tag t1 t2\nprotocol resc\nvalidpath t1 r1\nreader r1\n",
             "resc needs exactly one registered path for t2"),
            ("tag t1\nprotocol burbridge\nvalidpath t9 r1\ntag t9\nreader r1\n",
             "burbridge needs at least one registered path for t1"),
            # a token declared twice on one line
            ("tag t1 t1\n", "t1 is declared twice, first at line 2"),
            ("transit w w\n", "w is declared twice, first at line 2"),
        ],
    )
    def test_malformed_values_fail_closed(self, tmp_path, body, fragment):
        path = write(tmp_path, "protocol tracker\n" + body)
        with pytest.raises(ScenarioError, match=r"case\.scn:2: " + fragment):
            parse_scenario(path)
        result = run_scenario(path)
        assert result.exit_code == EXIT_PARSE
        assert result.failures[0].startswith("case.scn:2: ")

    @pytest.mark.parametrize(
        "body,token",
        [
            ("tag t1\ntag t2 t1\n", "t1"),
            ("reader r1\nreader r1 acme\n", "r1"),
            ("reader r1\ntransit w r1\n", "r1"),
            ("transit w\nreader w\n", "w"),
            # a tag shares no token with a reader or transit: the network
            # routes by bare token, and would send the reader's messages to it
            ("reader r2\ntag t1 r2\n", "r2"),
            ("tag t9\ntransit t9\n", "t9"),
            ("tag t1\nreader t1 acme\n", "t1"),
        ],
    )
    def test_repeated_token_fails_at_its_second_line(self, tmp_path, body, token):
        path = write(tmp_path, "protocol tracker\n" + body)
        with pytest.raises(
            ScenarioError, match=rf"case\.scn:3: {token} is declared twice, first at line 2"
        ):
            parse_scenario(path)
        assert run_scenario(path).exit_code == EXIT_PARSE

    @pytest.mark.parametrize(
        "protocol,directive",
        [("burbridge", "tag"), ("rfchain", "reader"), ("resc", "transit"), ("ray", "tag")],
    )
    def test_token_of_the_fixed_verifier_fails_at_its_declaring_line(
        self, tmp_path, protocol, directive
    ):
        verifier = PROTOCOLS[protocol].verifier
        # checked once the whole file is read: the protocol may come last
        path = write(tmp_path, f"kind run\n{directive} {verifier}\nprotocol {protocol}\n")
        failure = f"case.scn:2: {verifier} is the fixed verifier of {protocol}"
        with pytest.raises(ScenarioError, match=f"^{failure}$"):
            parse_scenario(path)
        assert run_scenario(path).failures == [failure]

    @pytest.mark.parametrize(
        "text,old,new,failure",
        [
            # drop_to_tags dropped reader r2's message as if r2 were the tag
            (TRACKER_RUN.replace("seed 7", "seed 7\nstrategy drop_to_tags"),
             "tag t1\n", "tag t1 r2\n", "case.scn:13: r2 is declared twice, first at line 9"),
            # Ray's owner loaded tag co's challenges onto itself
            ((corpus_dir() / "ray-honest.scn").read_text(), "tag t1\n", "tag t1 co\n",
             "case.scn:13: co is the fixed verifier of ray"),
        ],
        ids=["tracker-tag-named-as-a-reader", "ray-tag-named-as-the-owner"],
    )
    def test_world_whose_token_names_two_parties_is_refused(self, tmp_path, text, old, new, failure):
        # unrefused, each ran to exit 0 or 1 with a message misrouted
        assert old in text
        result = run_scenario(write(tmp_path, text.replace(old, new)))
        assert (result.exit_code, result.failures) == (EXIT_PARSE, [failure])

    @pytest.mark.parametrize(
        "line,message",
        [
            ("move t9 r1", "tag t9 is not declared"),
            ("move t1 r9", "reader r9 is not declared"),
            ("claim t9", "tag t9 is not declared"),
            ("claim t1 r9", "verifier r9 is not declared"),
            ("compromise r1 r7", "reader r7 is not declared"),
            ("param manager r9", "manager r9 is not declared"),
        ],
    )
    def test_undeclared_name_fails_at_its_line(self, tmp_path, line, message):
        # checked once the whole file is read; line 4 is the offending one
        path = write(tmp_path, f"protocol tracker\nreader r1\ntag t1\n{line}\nreader m\n")
        with pytest.raises(ScenarioError, match=rf"case\.scn:4: {message}$"):
            parse_scenario(path)
        result = run_scenario(path)
        assert result.exit_code == EXIT_PARSE
        assert result.failures == [f"case.scn:4: {message}"]

    @pytest.mark.parametrize(
        "text,failure",
        [
            ("protocol tracker\nkind attack\nattack ray-out-of-order order=1,0,2\n"
             "matrix ss break 1\n",
             "case.scn:3: attack ray-out-of-order targets ray, not tracker"),
            ("kind attack\nattack rfchain-linking\nprotocol resc\n",
             "case.scn:2: attack rfchain-linking targets rfchain, not resc"),
            ("protocol ray\nkind attack\nattack ray-out-of-order bogus=3\n",
             "case.scn:3: attack ray-out-of-order does not take bogus"),
            ("protocol resc\nkind attack\nattack resc-key-disclosure honest_steps=a\n",
             "case.scn:3: attack argument 'honest_steps=a' is not of type int"),
            ("protocol rfchain\nkind attack\nattack rfchain-linking insider=1\n",
             "case.scn:3: attack argument 'insider=1' is not of type bool"),
            ("protocol rfchain\nkind probe\nmode patched\nattack rfchain-length-extension\n",
             "case.scn:3: attack rfchain-length-extension does not take a mode"),
            ("protocol tracker\nkind attack\nattack tracker-order-search\nmode default\n",
             "case.scn:4: attack tracker-order-search does not take a mode"),
            ("protocol ray\nkind attack\nattack ray-out-of-order mode=patched\n",
             "case.scn:3: ray does not know mode patched; its modes are default, prf"),
            (TRACKER_RUN + "validpath t9 r1 r9\n", "case.scn:24: tag t9 is not declared"),
            (TRACKER_RUN + "validpath t1 r1 r9\n", "case.scn:24: reader r9 is not declared"),
            (TRACKER_RUN + "capacity t9 5\n", "case.scn:24: tag t9 is not declared"),
            (TRACKER_RUN + "param equal r1,r7\n", "case.scn:24: reader r7 is not declared"),
            ("protocol tracker\nkind attack\nadversary AdvR\n"
             "attack tracker-order-search trials=50 equal=true\nexpect succeeded true\n",
             "case.scn:3: attack tracker-order-search drives no run and takes no adversary"),
            ("protocol ray\nkind attack\nattack ray-out-of-order order=1\n",
             "case.scn:3: attack argument 'order=1' is not a list of integers"),
            ("protocol ray\nkind attack\nattack ray-out-of-order order=0,0,1\n",
             "case.scn:3: order must permute 0..2: (0, 0, 1)"),
            ("protocol ray\nkind attack\nattack ray-out-of-order order=1,0,2 path_len=4\n",
             "case.scn:3: order must permute 0..3: (1, 0, 2)"),
            ("protocol resc\nkind attack\nattack resc-key-disclosure honest_steps=9\n",
             "case.scn:3: honest_steps must lie within the path"),
            ("protocol ray\nkind attack\nattack ray-impersonation observed_index=9\n",
             "case.scn:3: observed_index must lie within 0..3"),
            ("protocol ray\nkind attack\nattack ray-impersonation observed_index=-1\n",
             "case.scn:3: observed_index must lie within 0..3"),
            ("protocol ray\nkind attack\nattack ray-impersonation path_len=1\n",
             "case.scn:3: observed_index must lie within 0..0"),
            ("protocol ray\nkind attack\nattack ray-out-of-order path_len=0\n",
             f"case.scn:3: path_len must lie within 1..{MAX_PATH_LEN}"),
            ("protocol rfchain\nkind attack\nattack rfchain-linking decoys=-3\n",
             f"case.scn:3: decoys must lie within 1..{MAX_DECOYS}"),
            ("protocol tracker\nkind attack\nattack tracker-order-search trials=0\n",
             "case.scn:3: trials must be at least 1"),
            ("protocol tracker\nkind attack\nattack tracker-order-search trials=100001\n",
             f"case.scn:3: trials must be at most {MAX_TRIALS}"),
            ("protocol tracker\nkind attack\nattack tracker-order-search q=2\n",
             "case.scn:3: q must exceed n_readers (4)"),
            ("protocol tracker\nkind attack\nattack tracker-order-search q=-5\n",
             "case.scn:3: q must exceed n_readers (4)"),
        ],
        ids=["attack-for-another-scheme", "protocol-after-attack", "unknown-keyword",
             "keyword-of-another-type", "bool-keyword-given-an-int", "mode-on-modeless-probe",
             "mode-on-modeless-attack", "unknown-mode-keyword", "validpath-tag",
             "validpath-reader", "capacity-tag", "equal-reader", "adversary-on-runless-attack",
             "order-not-a-list", "order-not-a-permutation", "order-shorter-than-path",
             "honest-steps-beyond-path", "observed-index-beyond-path",
             "observed-index-negative", "observed-index-on-one-reader-path",
             "path-len-zero", "decoys-negative", "trials-zero", "trials-above-bound",
             "q-below-draws", "q-negative"],
    )
    def test_refused_at_its_line(self, tmp_path, text, failure):
        path = write(tmp_path, text)
        with pytest.raises(ScenarioError, match="^" + re.escape(failure) + "$"):
            parse_scenario(path)
        result = run_scenario(path)
        assert result.exit_code == EXIT_PARSE
        assert result.failures == [failure]

    def test_later_attack_line_replaces_the_earlier(self, tmp_path):
        text = (
            "protocol ray\nkind attack\nattack ray-impersonation observe=false\n"
            "attack ray-out-of-order\n"
        )
        scn = parse_scenario(write(tmp_path, text))
        assert (scn.attack, scn.attack_args) == ("ray-out-of-order", {})

    def test_adversary_line_parses_for_attacks_that_drive_a_run(self, tmp_path):
        text = "protocol ray\nkind attack\nadversary AdvR\nattack ray-out-of-order\n"
        scn = parse_scenario(write(tmp_path, text))
        assert scn.config.adversary is AdvModel.ADV_R

    def test_every_attack_targets_a_registered_scheme(self):
        for name, op in ATTACKS.items():
            assert op.spec.scheme in PROTOCOLS, name
            assert op.spec.violates in ("sound", "complete", "sorted", "authorized", "privacy")

    def test_names_may_be_declared_after_their_use(self, tmp_path):
        text = (
            "protocol tracker\nparam manager m\ncompromise r1\nmove t1 w\nmove t1 r1\n"
            "claim t1 m\nreader r1\nreader m\ntransit w\ntag t1\n"
        )
        scn = parse_scenario(write(tmp_path, text))
        assert scn.config.script == [("move", "t1", "w"), ("move", "t1", "r1"), ("claim", "t1", "m")]

    def test_claim_may_name_the_schemes_fixed_verifier(self, tmp_path):
        text = (
            "protocol rfchain\nreader r1\ntag t1\ncapacity t1 1024\nmove t1 r1\nclaim t1 bc\n"
            "expect sound true\n"
        )
        assert run_scenario(write(tmp_path, text)).exit_code == EXIT_OK
        with pytest.raises(ScenarioError, match=r"case\.scn:6: verifier bc is not declared"):
            parse_scenario(write(tmp_path, text.replace("rfchain", "ray")))

    def test_repeated_tag_in_bundled_scenario_refused(self, tmp_path):
        text = (corpus_dir() / "ray-honest.scn").read_text()
        assert "\ntag t1\n" in text
        path = write(tmp_path, text.replace("\ntag t1\n", "\ntag t1 t1\n"))
        result = run_scenario(path)
        assert result.exit_code == EXIT_PARSE
        assert "t1 is declared twice" in result.failures[0]

    def test_scheme_without_path_rule_parses(self, tmp_path):
        # Tracker takes any number of paths, RF-Chain registers none
        for protocol in ("tracker", "rfchain"):
            scn = parse_scenario(write(tmp_path, f"protocol {protocol}\ntag t1\n"))
            assert scn.config.tags == ["t1"]

    @pytest.mark.parametrize(
        "text,refusal",
        [
            ("protocol tracker\nmatrix ss hold AdvR\n", "case.scn:2: matrix hold AdvR"),
            ("protocol tracker\nmatrix ss hold AdvT\nadversary AdvR\n",
             "case.scn:2: matrix hold AdvT is not this scenario's adversary AdvR"),
            ("protocol tracker\nmatrix ss hold AdvR\nadversary AdvR\n", None),
        ],
        ids=["absent-adversary-is-AdvT", "adversary-after-hold", "matching"],
    )
    def test_matrix_hold_names_the_scenarios_adversary(self, tmp_path, text, refusal):
        if refusal is None:
            assert parse_scenario(write(tmp_path, text)).directives[0].model == "AdvR"
        else:
            with pytest.raises(ScenarioError, match=re.escape(refusal)):
                parse_scenario(write(tmp_path, text))

    def test_corpus_hold_under_another_model_fails_at_its_line(self, tmp_path):
        lines = (corpus_dir() / "rfchain-honest.scn").read_text().splitlines()
        assert "adversary AdvT" in lines
        lineno = lines.index("matrix ss hold AdvT") + 1
        lines[lineno - 1] = "matrix ss hold AdvR"
        result = run_scenario(write(tmp_path, "\n".join(lines) + "\n"))
        assert result.exit_code == EXIT_PARSE
        assert result.failures == [
            f"case.scn:{lineno}: matrix hold AdvR is not this scenario's adversary AdvT"
        ]

    def test_validpath_refused_for_a_scheme_that_registers_no_paths(self, tmp_path):
        lines = (corpus_dir() / "rfchain-honest.scn").read_text().splitlines()
        text = "\n".join([*lines, "validpath t1 r1 r2 r3", "validpath t1 r1", ""])
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_PARSE
        assert result.failures == [
            f"case.scn:{len(lines) + 1}: validpath does not apply: rfchain registers no paths"
        ]

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"case\.scn:3"):
            parse_scenario(write(tmp_path, "protocol tracker\nseed 1\nfrobnicate\n"))

    def test_missing_protocol(self, tmp_path):
        with pytest.raises(ScenarioError, match="missing protocol"):
            parse_scenario(write(tmp_path, "seed 3\n"))

    def test_attack_kind_needs_attack(self, tmp_path):
        with pytest.raises(ScenarioError, match="without attack directive"):
            parse_scenario(write(tmp_path, "protocol ray\nkind attack\n"))

    def test_privacy_kind_needs_game(self, tmp_path):
        with pytest.raises(ScenarioError, match="without game directive"):
            parse_scenario(write(tmp_path, "protocol ray\nkind privacy\n"))


# a value each directive with a check of its own takes, for a line that
# must get past that check
VALID_VALUES = {"attack": ["ray-out-of-order"], "game": ["tag-unlinkability"]}


def _table_refusals():
    """(kind, line, refusal) from ``DIRECTIVES``: each directive with one
    value fewer than its fewest and one more than its most, in a kind that
    takes it, then with a count it takes in each kind that does not."""
    for key, rule in DIRECTIVES.items():
        for count in (rule.fewest - 1, rule.most + 1):
            if 0 <= count < math.inf:
                yield rule.kinds[0], " ".join([key, *["1"] * count]), f"{key} needs {rule.needs}"
        line = " ".join([key, *VALID_VALUES.get(key, ["1"] * rule.fewest)])
        for kind in KINDS:
            if kind not in rule.kinds:
                article = "an" if kind == "attack" else "a"
                yield kind, line, f"{key} does not apply to {article} {kind} scenario"


class TestDirectiveTable:
    @pytest.mark.parametrize(
        "kind,line,refusal",
        list(_table_refusals()),
        ids=[f"{kind}:{line}" for kind, line, _ in _table_refusals()],
    )
    def test_refused_at_its_line(self, tmp_path, kind, line, refusal):
        path = write(tmp_path, f"protocol tracker\nkind {kind}\n{line}\n")
        result = run_scenario(path)
        assert (result.exit_code, result.failures) == (EXIT_PARSE, [f"case.scn:3: {refusal}"])


# readers r1 r2 r3 and no manager: the last reader, r3, would manage
TRACKER_DEFAULT_MANAGER = """\
protocol tracker
kind run
reader r1
reader r2
reader r3
tag t1
validpath t1 r1 r2 r3
move t1 r1
claim t1
"""


class TestSetupPreconditions:
    """A world its scheme's setup cannot build fails to parse, at the line
    that breaks the precondition, with exit 2."""

    def test_default_manager_on_the_path_fails_at_the_validpath_line(self, tmp_path):
        path = write(tmp_path, TRACKER_DEFAULT_MANAGER, "trk.scn")
        with pytest.raises(ScenarioError, match=r"trk\.scn:7: tracker reader r3 .* is the manager"):
            parse_scenario(path)
        result = run_scenario(path)
        assert result.exit_code == EXIT_PARSE
        assert result.failures[0].startswith("trk.scn:7: ")

    @pytest.mark.parametrize("name", ["tracker-honest", "tracker-advr-demo", "tracker-out-of-order"])
    def test_corpus_run_without_its_manager_fails_at_the_validpath_line(self, tmp_path, name):
        lines = (corpus_dir() / f"{name}.scn").read_text().splitlines()
        kept = [line for line in lines if line not in ("param manager m", "reader m")]
        assert len(kept) == len(lines) - 2
        lineno = next(n for n, line in enumerate(kept, start=1) if line.startswith("validpath"))
        result = run_scenario(write(tmp_path, "\n".join(kept) + "\n", f"{name}.scn"))
        assert result.exit_code == EXIT_PARSE
        assert result.failures[0].startswith(f"{name}.scn:{lineno}: tracker reader r3 ")

    @pytest.mark.parametrize(
        "body,lineno,fragment",
        [
            # a named manager on the path, at the first line of that path
            ("reader r1\nreader m\nparam manager r1\ntag t1\nvalidpath t1 m\nvalidpath t1 r1\n"
             "validpath t1 r1\n", 8, "tracker reader r1 on a registered path of t1 is the manager"),
            # a transit holds no coefficient either
            ("reader r1\nreader m\ntransit w\ntag t1\nvalidpath t1 r1 w\n", 7,
             "tracker reader w on a registered path of t1 is not a protocol reader"),
        ],
        ids=["named-manager-on-path", "transit-on-path"],
    )
    def test_tracker_preconditions(self, tmp_path, body, lineno, fragment):
        path = write(tmp_path, "protocol tracker\nkind run\n" + body)
        with pytest.raises(ScenarioError, match=rf"case\.scn:{lineno}: {fragment}"):
            parse_scenario(path)
        assert run_scenario(path).exit_code == EXIT_PARSE

    @pytest.mark.parametrize(
        "protocol,holds",
        [
            ("checker", "path coefficient"),
            ("stepauth", "box key"),
            ("ray", "challenge"),
            ("resc", "reader key"),
        ],
    )
    def test_transit_on_a_registered_path_fails_at_the_validpath_line(
        self, tmp_path, protocol, holds
    ):
        # only protocol readers get keys: the parent ended in KeyError: 'x1'
        body = (
            f"protocol {protocol}\nkind run\nreader r1\nreader r2\ntransit x1\ntag t1\n"
            "capacity t1 16384\nvalidpath t1 r1 x1 r2\nmove t1 r1\nmove t1 x1\nmove t1 r2\n"
            "claim t1\n"
        )
        fragment = (
            f"{protocol} reader x1 on a registered path of t1 is not a protocol reader"
            f" and holds no {holds}"
        )
        path = write(tmp_path, body)
        with pytest.raises(ScenarioError, match=rf"case\.scn:8: {fragment}"):
            parse_scenario(path)
        result = run_scenario(path)
        assert result.exit_code == EXIT_PARSE
        assert result.failures == [f"case.scn:8: {fragment}"]
        # a transit that is only walked through stays a waypoint
        waypoint = write(tmp_path, body.replace("validpath t1 r1 x1 r2", "validpath t1 r1 r2"))
        assert run_scenario(waypoint).exit_code == EXIT_OK

    @pytest.mark.parametrize("length", [254, 255])
    def test_resc_path_beyond_its_slot_pointer_fails_at_the_validpath_line(
        self, tmp_path, length
    ):
        # a 255th slot needs pointer 256, which its byte cannot hold: unrefused,
        # the run made every visit and then ended in OverflowError, with no line
        readers = [f"r{i}" for i in range(1, length + 1)]
        text = "\n".join(
            ["protocol resc", "kind run", *(f"reader {r}" for r in readers), "tag t1"]
            + ["capacity t1 1000000", "validpath t1 " + " ".join(readers)]
            + [*(f"move t1 {r}" for r in readers), "claim t1", ""]
        )
        result = run_scenario(write(tmp_path, text))
        if length == 254:
            assert result.exit_code == EXIT_OK
        else:
            assert result.exit_code == EXIT_PARSE
            assert result.failures == [
                f"case.scn:{length + 5}: resc path of t1 has 255 readers; its tag's"
                " one-byte slot pointer counts at most 254"
            ]

    def test_tracker_without_a_manager_transmits_nothing(self, tmp_path):
        # no reader and no param manager: nobody can verify the claim
        result = run_scenario(write(tmp_path, "protocol tracker\nkind run\ntag t1\nclaim t1\n"))
        assert result.exit_code == EXIT_OK
        assert "anomaly tracker has no manager to verify t1" in result.lines
        transcript = result.lines[result.lines.index("transcript-begin") + 1 :]
        assert transcript == ["transcript-end"]


class TestExecution:
    def test_run_scenario_ok(self, tmp_path):
        result = run_scenario(write(tmp_path, TRACKER_RUN))
        assert result.exit_code == EXIT_OK
        assert not result.failures
        assert result.validated_directives
        assert "scenario case" in result.report_lines()

    def test_expect_mismatch(self, tmp_path):
        text = TRACKER_RUN.replace("expect sorted true", "expect sorted false")
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_EXPECT
        assert any("sorted" in f for f in result.failures)
        assert result.validated_directives == []

    def test_unknown_expect_key(self, tmp_path):
        text = TRACKER_RUN + "expect frobnication true\n"
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_EXPECT
        assert any("nothing to compare" in f for f in result.failures)

    def test_label_membership(self, tmp_path):
        text = TRACKER_RUN + "expect label Reroute\n"
        assert run_scenario(write(tmp_path, text)).exit_code == EXIT_OK
        text = TRACKER_RUN + "expect label GhostStep\n"
        assert run_scenario(write(tmp_path, text)).exit_code == EXIT_EXPECT

    def test_parse_failure_exit_code(self, tmp_path):
        result = run_scenario(write(tmp_path, "protocol tracker\nbogus\n"))
        assert result.exit_code == EXIT_PARSE
        assert "bogus" in result.failures[0]

    def test_parse_failure_after_protocol_reports_what_was_parsed(self, tmp_path):
        text = (
            "protocol tracker\nkind privacy\ngame tag-unlinkability\n"
            "matrix priv hold AdvT\ntrials abc\n"
        )
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_PARSE
        assert result.failures == ["case.scn:5: trials 'abc' is not an integer"]
        assert result.report_lines()[:4] == [
            "scenario case", "protocol=tracker", "kind=privacy", "exit=2"
        ]
        assert result.scenario.directives and result.validated_directives == []

    def test_missing_file_is_parse_error(self, tmp_path):
        assert run_scenario(tmp_path / "absent.scn").exit_code == EXIT_PARSE

    def test_non_text_file_is_parse_error(self, tmp_path):
        path = tmp_path / "binary.scn"
        path.write_bytes(b"protocol tracker\n\xff\xfe\n")
        assert run_scenario(path).exit_code == EXIT_PARSE

    def test_verifier_policy_exit(self, tmp_path):
        text = (
            "protocol burbridge\nseed 1\nreader ra\nreader rb\ntag t1\n"
            "validpath t1 ra rb\nmove t1 ra\nmove t1 rb\nclaim t1 ra\n"
        )
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_CAPABILITY
        assert any("capability" in f for f in result.failures)

    def test_capability_exit_for_compromise_under_advt(self, tmp_path):
        text = (
            "protocol checker\nseed 1\nadversary AdvT\ncompromise r1\n"
            "reader r1\nreader r2\ntag t1\nvalidpath t1 r1 r2\n"
            "move t1 r1\nmove t1 r2\nclaim t1\n"
        )
        assert run_scenario(write(tmp_path, text)).exit_code == EXIT_CAPABILITY

    def test_bounded_search_exit(self, tmp_path):
        text = "protocol tracker\nkind attack\nattack tracker-order-search q=2003\n"
        assert run_scenario(write(tmp_path, text)).exit_code == EXIT_CAPABILITY

    def test_unsupported_game_exit(self, tmp_path):
        text = (
            "protocol tracker\nkind privacy\ngame tag-unlinkability\n"
            "distinguisher xor-structure\ntrials 100\n"
        )
        assert run_scenario(write(tmp_path, text)).exit_code == EXIT_CAPABILITY

    @pytest.mark.parametrize(
        "text,exit_code,failure",
        [
            (
                TRACKER_RUN.replace("capacity t1 512", "capacity t1 8"),
                EXIT_CAPABILITY,
                "capability: 128 bits exceed tag capacity of 8",
            ),
            (
                TRACKER_RUN.replace("seed 7", "seed 7\nstrategy nosuch"),
                EXIT_PARSE,
                "case.scn:5: unknown strategy nosuch",
            ),
            (
                TRACKER_RUN.replace("move t1 r2", "move t1 r9"),
                EXIT_PARSE,
                "case.scn:18: reader r9 is not declared",
            ),
            (
                "protocol ray\nkind attack\nattack ray-out-of-order bogus=1\n",
                EXIT_PARSE,
                "case.scn:3: attack ray-out-of-order does not take bogus",
            ),
        ],
        ids=["tag-capacity", "unknown-strategy", "undeclared-reader",
             "unknown-attack-keyword"],
    )
    def test_execution_error_is_a_result(self, tmp_path, text, exit_code, failure):
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == exit_code
        assert result.failures == [failure]

    def test_attack_adversary_consistency(self, tmp_path):
        # the key-disclosure replay runs under AdvR; declaring AdvT is a lie
        text = (
            "protocol resc\nkind attack\nseed 0\nadversary AdvT\n"
            "attack resc-key-disclosure\nexpect succeeded true\n"
        )
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_EXPECT
        assert any("adversary" in f for f in result.failures)

    def test_scenario_seed_feeds_attack(self, tmp_path):
        text = (
            "protocol burbridge\nkind attack\nseed 3\nadversary AdvR\n"
            "attack burbridge-bypass\nexpect succeeded true\n"
        )
        assert run_scenario(write(tmp_path, text)).exit_code == EXIT_OK

    def test_privacy_scenario(self, tmp_path):
        text = (
            "protocol rfchain\nkind privacy\nseed 7\ngame tag-unlinkability\n"
            "distinguisher record-linking\ntrials 150\n"
            "expect advantage_min 0.99\nexpect trials 150\n"
        )
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_OK

    def test_privacy_threshold_failure(self, tmp_path):
        text = (
            "protocol rfchain\nkind privacy\nseed 7\ngame tag-unlinkability\n"
            "distinguisher random\ntrials 200\nexpect advantage_min 0.99\n"
        )
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_EXPECT
        assert any("below" in f for f in result.failures)

    def test_privacy_advantage_above_its_maximum_fails(self, tmp_path):
        text = (
            "protocol rfchain\nkind privacy\nseed 7\ngame tag-unlinkability\n"
            "distinguisher record-linking\ntrials 500\nexpect advantage_max 0.1\n"
        )
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_EXPECT
        assert result.failures == ["advantage 1.0000 above 0.1"]


class TestCorpus:
    def test_bundled_corpus_all_green(self):
        results = run_corpus(corpus_dir())
        assert len(results) == 25
        bad = {r.scenario.name: r.failures for r in results if r.exit_code != EXIT_OK}
        assert not bad

    def test_corpus_sorted_and_deterministic(self):
        first = run_corpus(corpus_dir())
        names = [r.scenario.name for r in first]
        assert names == sorted(names)
        second = run_corpus(corpus_dir())
        assert [r.report_lines() for r in first] == [r.report_lines() for r in second]

    def test_empty_directory(self, tmp_path):
        assert run_corpus(tmp_path) == []

    def test_execution_error_becomes_that_files_result(self, tmp_path, monkeypatch):
        def broken(**kwargs):
            raise IndexError("list index out of range")

        broken.spec = ATTACKS["ray-impersonation"].spec
        monkeypatch.setitem(ATTACKS, "ray-impersonation", broken)
        write(tmp_path, TRACKER_RUN, name="a-good.scn")
        write(tmp_path, "protocol ray\nkind attack\nattack ray-impersonation\n", name="b-bad.scn")
        write(tmp_path, TRACKER_RUN, name="c-good.scn")
        results = run_corpus(tmp_path)
        assert [r.scenario.name for r in results] == ["a-good", "b-bad", "c-good"]
        assert [r.exit_code for r in results] == [EXIT_OK, EXIT_PARSE, EXIT_OK]
        assert results[1].failures == [
            "b-bad.scn: IndexError: list index out of range"
        ]


# the attack keywords that size a world or a search, and their bounds
SIZE_BOUNDS = {"path_len": MAX_PATH_LEN, "decoys": MAX_DECOYS, "trials": MAX_TRIALS}


def _keyword_sweep():
    """(attack, keyword, value): every int keyword of every attack at -1, 0
    and 1, and each size keyword also just above its bound."""
    for name in sorted(ATTACKS):
        for key, kind in ATTACKS[name].spec.types.items():
            if kind is not int:
                continue
            for value in (-1, 0, 1):
                yield name, key, value
            if key in SIZE_BOUNDS:
                yield name, key, SIZE_BOUNDS[key] + 1


class TestAttackKeywordSweep:
    @pytest.mark.parametrize(
        "name,key,value",
        list(_keyword_sweep()),
        ids=[f"{n}-{k}={v}" for n, k, v in _keyword_sweep()],
    )
    def test_keyword_value_runs_or_fails_at_its_line(self, tmp_path, name, key, value):
        scheme = ATTACKS[name].spec.scheme
        path = write(tmp_path, f"protocol {scheme}\nkind attack\nattack {name} {key}={value}\n")
        result = run_scenario(path)
        if key in SIZE_BOUNDS and value > SIZE_BOUNDS[key]:
            assert result.exit_code == EXIT_PARSE
        if result.exit_code == EXIT_PARSE:
            assert result.failures[0].startswith("case.scn:3: ")
        else:
            assert result.exit_code in (EXIT_OK, EXIT_EXPECT, EXIT_CAPABILITY)


def _mutate(rng, lines):
    """Drop, duplicate, truncate or corrupt one line, or swap two of its
    tokens."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    line = lines[i]
    op = rng.choice(("drop", "duplicate", "truncate", "corrupt", "swap"))
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, line)
    elif op == "truncate":
        lines[i] = line[: rng.randrange(len(line) + 1)]
    elif op == "corrupt" and line:
        j = rng.randrange(len(line))
        lines[i] = line[:j] + rng.choice("abxz019=,.-# ") + line[j + 1 :]
    elif op == "swap" and len(line.split()) > 1:
        words = line.split()
        a, b = rng.sample(range(len(words)), 2)
        words[a], words[b] = words[b], words[a]
        lines[i] = " ".join(words)
    return lines


class MutantOverran(BaseException):
    """A mutant ran past its clock.  Not an Exception, which
    ``run_scenario``'s catch-all would turn into exit 2."""


class TestMutationFuzz:
    """200 seeded mutants of the bundled corpus, then each privacy file
    with a ``trials`` or ``worlds`` line just above its bound: each ends in
    a documented exit code within ``CLOCK_S`` seconds, and a file that does
    not parse names its line unless the whole file lacks a directive."""

    CLOCK_S = 10
    WHOLE_FILE = (
        "missing protocol directive",
        "attack scenario without attack directive",
        "privacy scenario without game directive",
    )

    def run_within_clock(self, path):
        def overran(signum, frame):
            raise MutantOverran(f"{path.name} ran past {self.CLOCK_S} s")

        previous = signal.signal(signal.SIGALRM, overran)
        signal.setitimer(signal.ITIMER_REAL, self.CLOCK_S)
        try:
            return run_scenario(path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_mutants_end_in_a_documented_exit_code(self, tmp_path):
        rng = random.Random(20261018)
        codes = set()
        for source in sorted(corpus_dir().glob("*.scn")):
            lines = source.read_text().splitlines()
            for k in range(8):
                text = "\n".join(_mutate(rng, lines)) + "\n"
                path = write(tmp_path, text, f"{source.stem}-{k}.scn")
                result = self.run_within_clock(path)
                codes.add(result.exit_code)
                assert result.exit_code in (EXIT_OK, EXIT_EXPECT, EXIT_PARSE, EXIT_CAPABILITY)
                if result.exit_code == EXIT_PARSE:
                    failure = result.failures[0]
                    assert re.match(rf"{re.escape(path.name)}:\d+: ", failure) or failure in [
                        f"{path.name}: {message}" for message in self.WHOLE_FILE
                    ], failure
        assert {EXIT_OK, EXIT_EXPECT, EXIT_PARSE} <= codes
        for source in sorted(corpus_dir().glob("*.scn")):
            lines = source.read_text().splitlines()
            if "kind privacy" not in lines:
                continue
            for line in (f"trials {MAX_GAME_TRIALS + 1}", f"worlds {MAX_WORLDS + 1}"):
                path = write(tmp_path, "\n".join([*lines, line, ""]), f"{source.stem}-big.scn")
                result = self.run_within_clock(path)
                assert result.exit_code == EXIT_PARSE
                assert result.failures[0].startswith(f"{path.name}:{len(lines) + 1}: "), line


def _result(name, protocol, adversary, exit_code=EXIT_OK, directives=()):
    scn = Scenario(path=corpus_dir() / f"{name}.scn")
    scn.config.protocol = protocol
    scn.config.adversary = adversary
    scn.directives = list(directives)
    return ScenarioResult(scenario=scn, exit_code=exit_code)


def _covering(protocol):
    """Two green no-directive results so coverage is satisfied."""
    return [
        _result(f"{protocol}-t", protocol, AdvModel.ADV_T),
        _result(f"{protocol}-r", protocol, AdvModel.ADV_R),
    ]


class TestMatrixAssembly:
    def test_strongest_hold_wins(self):
        results = _covering("tracker")
        results[0].scenario.directives = [
            MatrixDirective(prop="sound_sorted", action="hold", model="AdvT")
        ]
        results[1].scenario.directives = [
            MatrixDirective(prop="sound_sorted", action="hold", model="AdvR")
        ]
        rows, _ = build_matrix(results)
        row = next(r for r in rows if r.protocol == "tracker")
        assert row.sound_sorted == "AdvR"

    def test_breaks_attach_without_downgrading(self):
        results = _covering("ray")
        results[0].scenario.directives = [
            MatrixDirective(prop="sound_sorted", action="hold", model="AdvT"),
            MatrixDirective(prop="sound_sorted", action="break", footnote=1),
        ]
        results[1].scenario.directives = [
            MatrixDirective(prop="sound_sorted", action="break", footnote=1),
            MatrixDirective(prop="authorized", action="weakness", footnote=2),
        ]
        rows, _ = build_matrix(results)
        row = next(r for r in rows if r.protocol == "ray")
        assert row.sound_sorted == "AdvT[1]"  # deduplicated footnote
        assert row.authorized == "X[2]"
        assert row.footnotes == (1, 2)

    def test_failed_scenario_evidence_ignored(self):
        results = _covering("checker")
        results[0].scenario.directives = [
            MatrixDirective(prop="privacy", action="hold", model="AdvT")
        ]
        results[0].exit_code = EXIT_EXPECT
        rows, warnings = build_matrix(results)
        assert any("evidence ignored" in w for w in warnings)
        # the failed scenario also no longer counts as AdvT coverage
        assert any("not exercised under AdvT" in w for w in warnings)
        row = next(r for r in rows if r.protocol == "checker")
        assert row.privacy == "X"

    def test_missing_protocol_warning(self):
        rows, warnings = build_matrix(_covering("tracker"))
        assert len(rows) == 1
        assert sum("no validated scenarios" in w for w in warnings) == 6

    def test_split_cell(self):
        assert split_cell("AdvT") == ("AdvT", ())
        assert split_cell("X") == ("X", ())
        assert split_cell("AdvT[1][4]") == ("AdvT", (1, 4))

    def test_records_expand_models(self):
        row = MatrixRow(
            protocol="resc",
            architecture="Online",
            sound_sorted="AdvT[1]",
            complete="X",
            authorized="AdvR",
            privacy="X",
            footnotes=(1,),
        )
        records = render_records([row])
        assert len(records) == 8
        assert (
            "record protocol=resc architecture=Online property=sound_sorted"
            " model=AdvT holds=true notes=1" in records
        )
        assert (
            "record protocol=resc architecture=Online property=sound_sorted"
            " model=AdvR holds=false notes=1" in records
        )
        assert (
            "record protocol=resc architecture=Online property=authorized"
            " model=AdvR holds=true notes=-" in records
        )

    def test_render_table_legend(self):
        rows, _ = build_matrix(
            [
                _result(
                    "ray-x",
                    "ray",
                    AdvModel.ADV_T,
                    directives=[MatrixDirective(prop="sound_sorted", action="caveat", footnote=4)],
                ),
                _result("ray-y", "ray", AdvModel.ADV_R),
            ]
        )
        lines = render_table(rows)
        assert any(line.startswith("[4] ") for line in lines)
        assert not any(line.startswith("[1] ") for line in lines)


class TestEmitMatrix:
    def test_bundled_corpus_complete(self):
        code, lines = emit_matrix(corpus_dir())
        assert code == 0
        assert "table-begin" in lines
        assert sum(1 for l in lines if l.startswith("record ")) == 7 * 4 * 2
        assert not any(l.startswith("warning") for l in lines)

    def test_incomplete_corpus_nonzero(self, tmp_path):
        (tmp_path / "one.scn").write_text(TRACKER_RUN)
        code, lines = emit_matrix(tmp_path)
        assert code == 1
        assert any("incomplete matrix" in l for l in lines)

    def test_empty_corpus_nonzero(self, tmp_path):
        code, lines = emit_matrix(tmp_path)
        assert code == 1
        assert any("no scenarios found" in l for l in lines)
