import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catalan_ode import identities
from catalan_ode.bfile import parse_bfile
from catalan_ode.catalan import catalan_closed, higher_catalan
from catalan_ode.cli import main
from catalan_ode.identities import VerificationReport
from catalan_ode.runner import (
    BOUNDS,
    NUMBER_MAX_N,
    RunConfig,
    emit_report,
    run_suite,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "catalan_b000108.txt"
GOLDEN = Path(__file__).resolve().parent / "data"

# `verify --id all --format json` flag sets whose stdout is committed as
# tests/data/verify_<name>.json
GOLDEN_FLAGS = {
    "suite_default": [],
    "symbolic_deep": ["--max-N", "14", "--order", "22", "--terms-eq59", "2",
                      "--terms-eq62", "1", "--conv-max", "2", "--max-n", "1"],
    "numeric_deep": ["--max-N", "6", "--order", "14", "--max-n", "40",
                     "--terms-eq59", "2000", "--terms-eq62", "3000", "--conv-max", "400"],
    # thm1/thm3 rows up to 40, where the other golden sets stop at 14
    "deep_rows": ["--max-N", "40", "--order", "48"],
    # every flag at its upper bound in BOUNDS
    "bounds": ["--max-N", "40", "--order", "512", "--max-n", "200", "--terms-eq59", "10000",
               "--terms-eq62", "10000", "--conv-max", "1000"],
}


class TestBFileParser:
    def test_basic(self):
        entries = parse_bfile("0 1\n1 1\n2 2")
        assert [(e.index, e.value) for e in entries] == [(0, 1), (1, 1), (2, 2)]
        assert [(index, value) for index, value in entries] == [(0, 1), (1, 1), (2, 2)]

    def test_comments_and_blanks(self):
        entries = parse_bfile("# comment\n\n5 42\n")
        assert [(e.index, e.value) for e in entries] == [(5, 42)]

    def test_malformed_value(self):
        with pytest.raises(ValueError, match="line 2: non-integer field"):
            parse_bfile("# comment\n3 five")

    def test_malformed_shape(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_bfile("3 4 5")

    def test_non_increasing(self):
        with pytest.raises(ValueError, match="not increasing"):
            parse_bfile("2 2\n2 3")

    def test_big_values(self):
        big = 10**100 + 7
        assert parse_bfile(f"0 {big}")[0].value == big

    @pytest.mark.parametrize("line", ["1_0 1", "2 0_2", "3 ٣", "0x1 1", "1 1.0", "1 +-1", "1 +"])
    def test_only_ascii_decimal_fields(self, line):
        """int() reads "1_0" as 10 and "٣" as 3; a b-file field is plain
        ASCII decimal digits with an optional sign."""
        with pytest.raises(ValueError, match="line 2: non-integer field"):
            parse_bfile(f"0 1\n{line}")

    def test_signed_fields(self):
        assert parse_bfile("-1 +5\n+2 -7") == [(-1, 5), (2, -7)]


class TestCatalanCommand:
    def test_prints_sequence(self, capsys):
        assert main(["catalan", "--max", "12"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "1,1,2,5,14,42,132,429,1430,4862,16796,58786,208012"

    def test_negative_max(self, capsys):
        assert main(["catalan", "--max", "-1"]) == 2


class TestHigherCommand:
    def test_order_three(self, capsys):
        assert main(["higher", "--r", "3", "--max", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1,3,9"

    def test_bad_order(self, capsys):
        assert main(["higher", "--r", "0", "--max", "2"]) == 2


class TestCoeffsCommand:
    def test_a_family(self, capsys):
        assert main(["coeffs", "--family", "a", "--max-N", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"] == "a"
        assert doc["rows"][1] == {"N": 2, "entries": ["2", "2"]}

    def test_b_family(self, capsys):
        assert main(["coeffs", "--family", "b", "--max-N", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][3]["entries"] == ["1", "-12", "12"]


class TestVerifyCommand:
    def test_eq57_passes(self, capsys):
        assert main(["verify", "--id", "eq57", "--max-N", "12", "--order", "64"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_invalid_bound(self, capsys):
        assert main(["verify", "--id", "thm1", "--max-N", "0"]) == 2

    def test_order_constraint(self, capsys):
        assert main(["verify", "--id", "thm1", "--max-N", "8", "--order", "12"]) == 2

    @pytest.mark.parametrize("identity,code", [
        ("thm3", 2), ("all", 2), ("eq58", 0), ("asymptotic", 0),
    ])
    def test_order_constraint_binds_thm1_thm3_only(self, identity, code, capsys):
        """order >= max-N + 8 is required only where thm1 or thm3 runs, the
        checks that read both; eq58 and asymptotic do not read max-N."""
        assert main(["verify", "--id", identity, "--order", "12"]) == code
        assert ("series order K must be at least max N + 8" in capsys.readouterr().err) == bool(code)

    def test_unknown_identity_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--id", "thm99"])
        assert exc.value.code == 2

    def test_json_output(self, capsys):
        assert main(["verify", "--id", "eq58", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "1"
        assert doc["reports"] == [
            {"id": "eq58", "mode": "series", "parameters": {"K": 64}, "passed": True}
        ]

    @pytest.mark.parametrize("flag,name,cap", [
        (flag, dest, hi) for command, flag, dest, _, hi in BOUNDS if command == "verify"
    ])
    def test_upper_bound(self, flag, name, cap, capsys):
        RunConfig(**{name: cap}).validate()
        assert main(["verify", "--id", "eq57", flag, str(cap + 1)]) == 2
        assert f"{flag} must be at most {cap}" in capsys.readouterr().err

    def test_parallelism_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--id", "eq57", "--parallelism", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", sorted(GOLDEN_FLAGS))
    def test_json_matches_golden(self, name, capsys):
        """The whole suite's JSON is byte-identical to the committed output."""
        assert main(["verify", "--id", "all", "--format", "json", *GOLDEN_FLAGS[name]]) == 0
        golden = (GOLDEN / f"verify_{name}.json").read_bytes()
        assert capsys.readouterr().out.encode() == golden

    @pytest.mark.parametrize("name", sorted(GOLDEN_FLAGS))
    def test_json_matches_golden_under_optimize_flag(self, name):
        """python -O strips asserts; the checks must not rely on them."""
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-O", "-m", "catalan_ode.cli", "verify", "--id", "all",
             "--format", "json", *GOLDEN_FLAGS[name]],
            capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0
        assert out.stdout == (GOLDEN / f"verify_{name}.json").read_bytes()


def _cap(command, flag):
    return next(hi for c, f, _, _, hi in BOUNDS if (c, f) == (command, flag))


# each subcommand's argv, with "{}" in place of the value of one flag
_ARGV = {
    "catalan": ["catalan", "--max", "3"],
    "higher": ["higher", "--r", "3", "--max", "3"],
    "coeffs": ["coeffs", "--family", "b", "--max-N", "3"],
    "crosscheck": ["crosscheck", "--bfile", str(FIXTURE), "--max", "3"],
    "verify": ["verify", "--id", "eq57"],
}


def _argv(command, flag):
    argv = list(_ARGV[command])
    if flag in argv:
        argv[argv.index(flag) + 1] = "{}"
    else:
        argv += [flag, "{}"]
    return argv


class TestCommandBounds:
    def test_catalan_at_bound(self, capsys):
        cap = _cap("catalan", "--max")
        assert main(["catalan", "--max", str(cap)]) == 0
        values = capsys.readouterr().out.strip().split(",")
        assert len(values) == cap + 1 and values[-1] == str(catalan_closed(cap))

    def test_higher_at_bound(self, capsys):
        r, n = _cap("higher", "--r"), _cap("higher", "--max")
        assert main(["higher", "--r", str(r), "--max", str(n)]) == 0
        values = capsys.readouterr().out.strip().split(",")
        assert len(values) == n + 1 and values[-1] == str(higher_catalan(r, n))

    @pytest.mark.parametrize("family", ["a", "b"])
    def test_coeffs_at_bound(self, family, capsys):
        cap = _cap("coeffs", "--max-N")
        assert main(["coeffs", "--family", family, "--max-N", str(cap)]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == cap

    @pytest.mark.parametrize("argv,flag", [
        (_argv(command, flag), flag) for command, flag, *_ in BOUNDS if command != "verify"
    ])
    def test_above_bound_is_usage_error(self, argv, flag, capsys):
        cap = _cap(argv[0], flag)
        assert main([a.format(cap + 1) for a in argv]) == 2
        assert f"{flag} must be at most {cap}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag,lo", [
        (_argv(command, flag), flag, lo) for command, flag, _, lo, _ in BOUNDS
    ])
    def test_below_bound_is_usage_error(self, argv, flag, lo, capsys):
        assert main([a.format(lo - 1) for a in argv]) == 2
        assert f"{flag} must be at least {lo}" in capsys.readouterr().err


class TestRunSuite:
    def test_runner_times_each_job(self):
        assert identities.verify_sqrt_expansion(8).cost == 0.0
        reports = run_suite("eq57", RunConfig(max_n_deriv=3))
        assert len(reports) == 3 and all(r.cost > 0 for r in reports)

    def test_number_identities_stop_at_row_limit(self):
        cfg = RunConfig(max_n_deriv=NUMBER_MAX_N + 2, max_index=1)
        for ident in ("thm2", "thm4"):
            rows = {r.parameters["N"] for r in run_suite(ident, cfg)}
            assert rows == set(range(1, NUMBER_MAX_N + 1))

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity"):
            run_suite("thm99", RunConfig())


class TestCrosscheckCommand:
    def test_fixture_has_no_mismatches(self, capsys):
        assert main(["crosscheck", "--bfile", str(FIXTURE), "--max", "200"]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_detects_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 1\n2 3\n")
        assert main(["crosscheck", "--bfile", str(bad), "--max", "10"]) == 1
        assert "mismatch at index 2" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["crosscheck", "--bfile", "/nonexistent", "--max", "5"]) == 2

    @pytest.mark.parametrize("content", ["0 1\n1 1\n2 0_2\n", "0 1\n1_0 16796\n"])
    def test_underscore_is_usage_error(self, tmp_path, capsys, content):
        """"2 0_2" once passed as C_2 = 2 and "1_0" as index 10; both are
        now a usage error."""
        bad = tmp_path / "underscore.txt"
        bad.write_text(content)
        assert main(["crosscheck", "--bfile", str(bad), "--max", "20"]) == 2
        captured = capsys.readouterr()
        assert "non-integer field" in captured.err and not captured.out

    def test_value_past_digit_limit_is_usage_error(self, tmp_path, capsys):
        """A well-formed value too long for int() is reported as such, and
        the 5,002-character line is not echoed in full."""
        long = tmp_path / "long.txt"
        long.write_text("5 " + "9" * 5000 + "\n")
        assert main(["crosscheck", "--bfile", str(long), "--max", "10"]) == 2
        err = capsys.readouterr().err
        limit = sys.get_int_max_str_digits()
        assert f"line 1: integer field over the {limit}-digit limit" in err
        assert "non-integer" not in err and len(err) < 200

    def test_max_past_bound_is_usage_error(self, tmp_path, capsys):
        """An index with a C_n past the int -> str limit is never computed."""
        far = tmp_path / "far.txt"
        far.write_text("0 1\n20000 5\n")
        assert main(["crosscheck", "--bfile", str(far), "--max", "100000"]) == 2
        err = capsys.readouterr().err
        assert "error: --max must be at most 2500" in err and "Traceback" not in err

    def test_mismatch_at_bound(self, tmp_path, capsys):
        cap = _cap("crosscheck", "--max")
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{cap} {catalan_closed(cap) + 1}\n")
        assert main(["crosscheck", "--bfile", str(bad), "--max", str(cap)]) == 1
        out = capsys.readouterr().out
        assert f"mismatch at index {cap}" in out and "checked 1 entries, 1 mismatches" in out


class TestEmitReport:
    def test_empty_json(self):
        assert emit_report([], "json") == '{"reports":[],"version":"1"}'

    def test_json_round_trip(self):
        cfg = RunConfig(max_n_deriv=2, max_index=3, conv_max=5,
                        terms_eq59=5, terms_eq62=5)
        reports = run_suite("all", cfg)
        text = emit_report(reports, "json")
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == text

    def test_failing_report_includes_witness(self):
        rep = VerificationReport(
            identity="thm1", parameters={"N": 1}, mode="series", passed=False,
            witness={"index": "0", "lhs": "1", "rhs": "2"},
        )
        doc = json.loads(emit_report([rep], "json"))
        assert doc["reports"][0]["witness"] == {"index": "0", "lhs": "1", "rhs": "2"}

    def test_human_table(self):
        rep = VerificationReport(
            identity="eq58", parameters={"K": 4}, mode="series", passed=True,
        )
        text = emit_report([rep], "human")
        assert "eq58" in text and "PASS" in text

    def test_human_table_subtotals(self):
        """One subtotal row per identity follows the rows: checks passed of
        checks run, and their summed time."""
        reports = [
            VerificationReport("eq57", {"N": 1}, "numeric", True, cost=0.25),
            VerificationReport("eq57", {"N": 2}, "numeric", False, {"index": "1"}, 0.5),
            VerificationReport("eq58", {"K": 4}, "series", True, cost=0.125),
        ]
        lines = emit_report(reports, "human").splitlines()
        assert [line.split() for line in lines[4:7]] == [
            ["eq57", "subtotal", "1/2", "0.750s"],
            ["eq58", "subtotal", "1/1", "0.125s"],
            ["2/3", "checks", "passed"],
        ]
