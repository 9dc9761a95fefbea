"""Command-line interface: exit codes, output, --out files."""

import io
import os
import sys

import pytest

from pathtrace.attacks import ATTACKS, attack
from pathtrace.cli import main
from pathtrace.scenario import corpus_dir, run_scenario

HONEST = corpus_dir() / "tracker-honest.scn"

class TestRun:
    def test_ok_scenario(self, capsys):
        assert main(["run", str(HONEST)]) == 0
        out = capsys.readouterr().out
        assert "scenario tracker-honest" in out
        assert "exit=0" in out

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        main(["run", str(HONEST), "--out", str(target)])
        out = capsys.readouterr().out
        assert target.read_text() == out

    def test_expect_failure(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(HONEST.read_text().replace("expect sound true", "expect sound false"))
        assert main(["run", str(scn)]) == 1
        assert "expect-failed" in capsys.readouterr().out

    def test_parse_failure(self, tmp_path, capsys):
        scn = tmp_path / "broken.scn"
        scn.write_text("protocol tracker\nwibble\n")
        assert main(["run", str(scn)]) == 2
        assert "broken.scn:2" in capsys.readouterr().out

    def test_execution_error_is_reported(self, tmp_path, capsys):
        scn = tmp_path / "stray.scn"
        scn.write_text(HONEST.read_text().replace("move t1 r2", "move t1 r9"))
        assert main(["run", str(scn)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "scenario stray" in captured.out
        assert "expect-failed stray.scn:20: reader r9 is not declared" in captured.out

    def test_unknown_mode_is_reported(self, tmp_path, capsys):
        scn = tmp_path / "bogus.scn"
        scn.write_text(HONEST.read_text().replace("seed 11", "seed 11\nmode bogus"))
        assert main(["run", str(scn)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert (
            "expect-failed bogus.scn:7: tracker does not know mode bogus;"
            " its modes are default"
        ) in captured.out

    def test_capability_failure(self, tmp_path):
        scn = tmp_path / "cap.scn"
        scn.write_text(
            "protocol tracker\nkind attack\nattack tracker-order-search q=2003\n"
        )
        assert main(["run", str(scn)]) == 3


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has already exited."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    @pytest.mark.parametrize("expect,code", [("true", 0), ("false", 1)])
    def test_command_keeps_its_exit_code(self, tmp_path, monkeypatch, expect, code):
        scn = tmp_path / "case.scn"
        scn.write_text(HONEST.read_text().replace("expect sound true", f"expect sound {expect}"))
        target = tmp_path / "report.txt"
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["run", str(scn), "--out", str(target)]) == code
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert target.read_text() == "\n".join(run_scenario(scn).report_lines()) + "\n"


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", str(HONEST)],
            ["attack", "burbridge-bypass"],
            ["privacy", "ray", "tag-unlinkability", "--trials", "10"],
        ],
    )
    def test_report_printed_then_exit_2(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "report.txt"
        assert main(argv + ["--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out.strip()
        assert captured.err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()


class TestMatrix:
    def test_bundled_corpus(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "table-begin" in out
        assert "record protocol=tracker" in out

    def test_explicit_directory(self, capsys):
        assert main(["matrix", str(corpus_dir())]) == 0

    def test_incomplete_directory(self, tmp_path, capsys):
        (tmp_path / "only.scn").write_text(HONEST.read_text())
        assert main(["matrix", str(tmp_path)]) == 1
        assert "incomplete matrix" in capsys.readouterr().out

    def test_malformed_file_is_listed(self, tmp_path, capsys):
        for scn in corpus_dir().glob("*.scn"):
            (tmp_path / scn.name).write_text(scn.read_text())
        (tmp_path / "bad-trials.scn").write_text(
            "protocol tracker\nkind privacy\ngame tag-unlinkability\ntrials abc\n"
        )
        (tmp_path / "bad-strategy.scn").write_text(
            HONEST.read_text().replace("protocol tracker", "protocol tracker\nstrategy nosuch")
        )
        assert main(["matrix", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "corpus scenarios=27" in captured.out
        assert "table-begin" in captured.out and "table-end" in captured.out
        assert "scenario bad-trials protocol=tracker kind=privacy adversary=AdvT exit=2" in captured.out
        assert "expect-failed bad-trials.scn:4: trials 'abc' is not an integer" in captured.out
        assert "expect-failed bad-strategy.scn:5: unknown strategy nosuch" in captured.out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "matrix.txt"
        main(["matrix", "--out", str(target)])
        assert target.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_directory_that_is_not_one_refused(self, tmp_path, capsys, kind):
        target = tmp_path / "corpus"
        if kind == "file":
            target.write_text(HONEST.read_text())
        assert main(["matrix", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {target} is not a directory\n"


class TestAttack:
    def test_success_exit_zero(self, capsys):
        assert main(["attack", "ray-impersonation"]) == 0
        out = capsys.readouterr().out
        assert "succeeded=true" in out

    def test_probe_failure_exit_one(self, capsys):
        # the length-extension probe concludes the forgery is rejected
        assert main(["attack", "rfchain-length-extension"]) == 1
        assert "succeeded=false" in capsys.readouterr().out

    def test_seed_override(self, capsys):
        assert main(["attack", "burbridge-bypass", "--seed", "5"]) == 0

    def test_seed_unsupported(self, capsys, monkeypatch):
        monkeypatch.setitem(ATTACKS, "fixed-op", None)  # removed again at teardown

        @attack("fixed-op", scheme="ray", violates="sorted")
        def fixed_op():
            return True, None, {}

        assert ATTACKS["fixed-op"] is fixed_op
        assert main(["attack", "fixed-op", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: attack fixed-op does not take a seed\n"

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "nosuch-attack"])
        assert exc.value.code == 2


class TestPrivacy:
    def test_basic_game(self, capsys):
        code = main(
            [
                "privacy", "rfchain", "tag-unlinkability",
                "--distinguisher", "record-linking", "--trials", "120", "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trials=120" in out
        assert "advantage=1.000000" in out
        assert "warning" not in out

    def test_small_trials_warning(self, capsys):
        assert main(["privacy", "tracker", "step-unlinkability", "--trials", "50"]) == 0
        assert "fewer than 100 trials" in capsys.readouterr().out

    def test_adversary_flag(self, capsys):
        code = main(
            [
                "privacy", "checker", "tag-unlinkability",
                "--distinguisher", "full-transcript", "--adversary", "AdvR",
                "--trials", "100",
            ]
        )
        assert code == 0
        assert "adversary=AdvR" in capsys.readouterr().out

    def test_unsupported_combination(self, capsys):
        code = main(
            ["privacy", "tracker", "step-unlinkability", "--distinguisher", "xor-structure"]
        )
        assert code == 3
        assert "capability" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,message", [("--trials", "trials must be positive"), ("--worlds", "world pool")]
    )
    def test_bad_sizes_exit_two(self, flag, message, capsys):
        assert main(["privacy", "tracker", "tag-unlinkability", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--worlds", "4097", "world pool must be at most 4096"),
            ("--trials", "100001", "trials must be at most 100000"),
        ],
    )
    def test_too_large_sizes_exit_two(self, flag, value, message, capsys):
        assert main(["privacy", "tracker", "tag-unlinkability", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_unknown_mode_exit_two(self, capsys):
        code = main(["privacy", "tracker", "tag-unlinkability", "--mode", "patched"])
        assert code == 2
        captured = capsys.readouterr()
        assert "tracker does not know mode patched" in captured.err
        assert captured.out == ""

    def test_unknown_protocol_exit_two(self, capsys):
        code = main(["privacy", "nosuch", "tag-unlinkability", "--trials", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown protocol 'nosuch'\n"
        assert captured.out == ""

    def test_unknown_distinguisher_exit_two(self, capsys):
        code = main(
            ["privacy", "tracker", "tag-unlinkability", "--distinguisher", "nosuch", "--trials", "10"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown distinguisher 'nosuch'\n"
        assert captured.out == ""

    def test_distinguisher_for_other_game(self, capsys):
        code = main(
            ["privacy", "ray", "tag-unlinkability", "--distinguisher", "xor-structure"]
        )
        assert code == 3
        assert "capability" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "game.txt"
        main(
            [
                "privacy", "ray", "step-unlinkability",
                "--trials", "100", "--out", str(target),
            ]
        )
        assert target.read_text() == capsys.readouterr().out
