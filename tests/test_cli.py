"""Command-line behavior: literals in, exact text or JSON out, exit codes."""

import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from so3p import cli
from so3p.errors import AmbiguityError, PrecisionExhausted
from so3p.formats import (
    format_matrix_json, format_rational, parse_angles, parse_matrix_json, parse_quat, parse_region,
)
from so3p.haar import integrate_so3, total_mass
from so3p.padic import canonical_units, rational_sqrt
from so3p.quaternion import Quat
from so3p.rotation import cardano_matrix, quat_to_rotation
from so3p.verify import CheckResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    @pytest.mark.parametrize(
        "p,value,name",
        [("3", "2", "U"), ("3", "4", "One"), ("5", "10", "UP"), ("7", "7", "P")],
    )
    def test_examples(self, capsys, p, value, name):
        code, out, _ = run(capsys, "classify", "--prime", p, value)
        assert code == 0
        assert out == name + "\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "classify", "--prime", "3", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"schema": 1, "class": "U"}

    def test_padic_literal(self, capsys):
        code, out, _ = run(capsys, "classify", "--prime", "3", "3^-1 * [2,1]")
        assert code == 0
        assert out == "UP\n"

    def test_inf_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--prime", "3", "inf")
        assert code == 2
        assert "square class" in err


class TestRotate:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "rotate", "--prime", "3", "0,0,0")
        assert code == 0
        assert json.loads(out) == [
            ["1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "1"],
        ]

    def test_quat_form(self, capsys):
        ctx = canonical_units(3)
        expected = quat_to_rotation(parse_quat("1 + 1 i", ctx)).mat
        code, out, _ = run(capsys, "rotate", "--prime", "3", "--quat", "1 + 1 i")
        assert code == 0
        assert out.strip() == format_matrix_json(expected)

    def test_needs_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "rotate", "--prime", "3")
        assert code == 2
        code, _, _ = run(capsys, "rotate", "--prime", "3", "1,0,0", "--quat", "1")
        assert code == 2

    def test_json_entries_are_strings(self, capsys):
        code, out, _ = run(
            capsys, "rotate", "--prime", "5", "1/2,0,0", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert all(isinstance(e, str) for row in data["matrix"] for e in row)


class TestComposeDecompose:
    def rotate_text(self, capsys, p, angles):
        code, out, _ = run(capsys, "rotate", "--prime", p, angles)
        assert code == 0
        return out.strip()

    def test_compose_matches_parameter_sum(self, capsys):
        # alpha = 1 twice around z at p = 3: (1+1)/(1-1) wraps to inf
        r1 = self.rotate_text(capsys, "3", "1,0,0")
        wrapped = self.rotate_text(capsys, "3", "inf,0,0")
        code, out, _ = run(capsys, "compose", "--prime", "3", r1, r1)
        assert code == 0
        assert out.strip() == wrapped

    def test_compose_from_stdin(self, capsys, monkeypatch):
        r1 = self.rotate_text(capsys, "3", "1,0,0")
        pair = f"[{r1}, {r1}]"
        monkeypatch.setattr(sys, "stdin", io.StringIO(pair))
        code, out, _ = run(capsys, "compose", "--prime", "3")
        assert code == 0
        assert out.strip() == self.rotate_text(capsys, "3", "inf,0,0")

    def test_compose_arity(self, capsys):
        code, _, _ = run(capsys, "compose", "--prime", "3", "[[1]]")
        assert code == 2

    def test_decompose_roundtrip(self, capsys):
        text = self.rotate_text(capsys, "5", "1,1,1")
        code, out, _ = run(capsys, "decompose", "--prime", "5", text)
        assert code == 0
        assert out == "1,1,1\n"

    def test_decompose_from_stdin(self, capsys, monkeypatch):
        # beta stays in Zp so the canonical branch returns the same triple
        text = self.rotate_text(capsys, "7", "1/7,2,3")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "decompose", "--prime", "7")
        assert code == 0
        assert out == "1/7,2,3\n"

    def test_non_rotation_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            "decompose",
            "--prime",
            "3",
            '[["1","1","0"],["0","1","0"],["0","0","1"]]',
        )
        assert code == 3
        assert "certificate" in err

    def test_ambiguity_exits_4(self, capsys, monkeypatch):
        def boom(r, precision=32):
            raise AmbiguityError("two branches certified")

        monkeypatch.setattr(cli, "decompose_cardano", boom)
        text = self.rotate_text(capsys, "3", "1,1,1")
        code, _, err = run(capsys, "decompose", "--prime", "3", text)
        assert code == 4
        assert "ambiguity" in err

    def test_precision_exhausted_exits_3(self, capsys, monkeypatch):
        def boom(r, precision=32):
            raise PrecisionExhausted("digits ran out")

        monkeypatch.setattr(cli, "decompose_cardano", boom)
        text = self.rotate_text(capsys, "3", "1,1,1")
        code, _, err = run(capsys, "decompose", "--prime", "3", text)
        assert code == 3


class TestOneRendering:
    """rotate, compose and decompose build only the rendering --format asks
    for: with the other renderer made to raise, stdout is unchanged."""

    # the renderer each format leaves unused
    UNUSED = {
        ("rotate", "text"): "matrix_rows",
        ("rotate", "json"): "format_matrix_json",
        ("compose", "text"): "matrix_rows",
        ("compose", "json"): "format_matrix_json",
        ("decompose", "text"): "format_number",
        ("decompose", "json"): "format_angles",
    }

    @staticmethod
    def argv(command):
        ctx = canonical_units(3)
        if command == "rotate":
            return ["rotate", "--prime", "3", "1/3,2,inf"]
        if command == "compose":
            a = format_matrix_json(cardano_matrix(ctx, (1, 0, 0)).mat)
            b = format_matrix_json(quat_to_rotation(Quat(ctx, *map(Fraction, (1, 2, 0, 1)))).mat)
            return ["compose", "--prime", "3", a, b]
        # 1 + i + j at p = 3: cos(beta) comes from a Hensel lift
        m = quat_to_rotation(Quat(ctx, *map(Fraction, (1, 1, 1, 0)))).mat
        return ["decompose", "--prime", "3", "--precision", "8", format_matrix_json(m)]

    @pytest.mark.parametrize("command, fmt", sorted(UNUSED))
    def test_unused_renderer_is_never_called(self, capsys, monkeypatch, command, fmt):
        argv = [*self.argv(command), "--format", fmt]
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and expected

        def unused(*args, **kwargs):
            raise AssertionError(f"{fmt} output built the other rendering")

        monkeypatch.setattr(cli, self.UNUSED[command, fmt], unused)
        assert run(capsys, *argv) == (0, expected, "")


class TestHaar:
    def test_mass_so3(self, capsys):
        code, out, _ = run(capsys, "haar", "mass", "--group", "so3", "--prime", "3")
        assert code == 0
        assert out == "16/3\n"

    @pytest.mark.parametrize(
        "tag,expected",
        [("so2:-v", "4/3"), ("so2:p", "2"), ("so2:up", "2"), ("so2:-p/v", "2")],
    )
    def test_mass_so2(self, capsys, tag, expected):
        code, out, _ = run(capsys, "haar", "mass", "--group", tag, "--prime", "3")
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_mass_of_every_listed_tag_is_total_mass(self, capsys, p):
        # the tags `haar mass --group` lists in its help, read back from it
        def commands(parser):
            return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

        mass = commands(commands(cli._build_parser())["haar"])["mass"]
        group = next(a for a in mass._actions if "--group" in a.option_strings)
        tags = [t.strip() for t in group.help.replace(" or ", ", ").split(",") if t.strip()]
        assert tags == ["so3", "so2:-v", "so2:p", "so2:up", "so2:-p/v"]
        ctx = canonical_units(p)
        for tag in tags:
            code, out, _ = run(capsys, "haar", "mass", "--group", tag, "--prime", str(p))
            assert code == 0
            assert out == format_rational(total_mass(ctx, tag)) + "\n", tag

    @pytest.mark.parametrize("p", [10**18 + 3, 2**61 - 1])
    def test_mass_so3_large_prime(self, capsys, p):
        start = time.perf_counter()
        code, out, _ = run(capsys, "haar", "mass", "--group", "so3", "--prime", str(p))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == f"{4 * (p + 1)}/{p}\n"

    def test_integrate_zp(self, capsys):
        code, out, _ = run(
            capsys,
            "haar", "integrate", "--group", "so2:-v", "--region", "zp", "--prime", "7",
        )
        assert code == 0
        assert out == "1\n"

    def test_integrate_normalized(self, capsys):
        code, out, _ = run(
            capsys,
            "haar", "integrate", "--group", "so2:-v", "--region", "zp",
            "--prime", "3", "--normalized",
        )
        assert code == 0
        assert out == "3/4\n"

    def test_integrate_so3_box(self, capsys):
        code, out, _ = run(
            capsys,
            "haar", "integrate", "--group", "so3", "--region", "zp;zp;zp",
            "--prime", "3", "--normalized",
        )
        assert code == 0
        assert out == "3/16\n"

    def test_integrate_so3_box_goes_to_z_y_x(self, capsys):
        # the axes carry different d, so a reversed box has another mass
        ctx = canonical_units(3)
        box = [parse_region(t, 3) for t in ("zp", "tail:2", "shell:1")]
        assert integrate_so3(ctx, box) != integrate_so3(ctx, box[::-1])
        for normalized in (False, True):
            code, out, _ = run(
                capsys, "haar", "integrate", "--group", "so3", "--region", "zp;tail:2;shell:1",
                "--prime", "3", *(["--normalized"] if normalized else []),
            )
            assert (code, out) == (0, format_rational(integrate_so3(ctx, box, normalized=normalized)) + "\n")

    @pytest.mark.parametrize(
        "group, message",
        [("so3", "three regions 'z;y;x'"), ("so2:p", "unknown region piece: 'zp;zp'")],
    )
    def test_semicolons_split_only_for_so3(self, capsys, group, message):
        code, out, err = run(
            capsys, "haar", "integrate", "--group", group, "--region", "zp;zp", "--prime", "3"
        )
        assert (code, out) == (5, "")
        assert message in err

    def test_integrate_union_region(self, capsys):
        code, out, _ = run(
            capsys,
            "haar", "integrate", "--group", "so2:-v", "--region", "ball:0,1,shell:1",
            "--prime", "3",
        )
        assert code == 0
        assert out == "5/9\n"  # ball 1/3 plus shell 2/9

    def test_malformed_region_exits_5(self, capsys):
        code, _, err = run(
            capsys,
            "haar", "integrate", "--group", "so2:-v", "--region", "ball:1",
            "--prime", "3",
        )
        assert code == 5
        assert "region" in err

    def test_unknown_group_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "haar", "mass", "--group", "so4", "--prime", "3"
        )
        assert code == 2

    def test_sample_deterministic(self, capsys):
        args = ("haar", "sample", "--prime", "5", "--count", "3", "--seed", "9")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 3

    def test_sample_thread_count_is_invisible(self, capsys):
        base = ("haar", "sample", "--prime", "3", "--count", "70", "--seed", "4")
        _, out1, _ = run(capsys, *base, "--threads", "1")
        _, out2, _ = run(capsys, *base, "--threads", "3")
        assert out1 == out2

    def test_sample_matrices_certify(self, capsys):
        code, out, _ = run(
            capsys,
            "haar", "sample", "--prime", "3", "--count", "2", "--seed", "1",
            "--matrices", "--precision", "8",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        for row_text in lines[1::2]:
            m = parse_matrix_json(row_text)
            assert m.n == 3

    def test_sample_json(self, capsys):
        code, out, _ = run(
            capsys,
            "haar", "sample", "--prime", "3", "--count", "2", "--seed", "1",
            "--format", "json", "--matrices",
        )
        data = json.loads(out)
        assert code == 0
        assert data["schema"] == 1
        assert len(data["samples"]) == 2
        assert set(data["samples"][0]) == {"angles", "matrix"}


class TestVerifyCommand:
    def test_measure_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--prime", "3", "--suite", "measure")
        assert code == 0
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)
        assert any("16/3" in line for line in lines)

    def test_not_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--prime", "9", "--suite", "measure")
        assert code == 2
        assert "not prime" in err

    def test_even_prime_message(self, capsys):
        code, _, err = run(capsys, "verify", "--prime", "2", "--suite", "measure")
        assert code == 2
        assert "odd prime" in err

    def test_quick_suites(self, capsys):
        for suite in ("algebra", "iso", "jacobian"):
            code, out, _ = run(
                capsys,
                "verify", "--prime", "3", "--suite", suite, "--samples", "5",
            )
            assert code == 0, out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        # a sampled identity checked on no draws cannot fail
        for suite in ("algebra", "all"):
            code, out, err = run(
                capsys, "verify", "--prime", "5", "--suite", suite, "--samples", samples,
            )
            assert code == 2
            assert out == ""
            assert f"samples must be at least 1, got {samples}" in err

    def test_failure_exits_1(self, capsys, monkeypatch):
        def fake(ctx, names, samples=None, seed=0):
            return [CheckResult("forced", False, "counterexample here")]

        monkeypatch.setattr(cli.verify, "run_suites", fake)
        code, out, _ = run(capsys, "verify", "--prime", "3", "--suite", "algebra")
        assert code == 1
        assert out.startswith("FAIL forced")

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--prime", "3", "--suite", "jacobian", "--samples", "4",
            "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert data["schema"] == 1
        assert all(c["passed"] for c in data["checks"])


class TestSettings:
    def test_precision_floor(self, capsys):
        code, _, err = run(
            capsys, "haar", "sample", "--prime", "3", "--precision", "3"
        )
        assert code == 2
        assert "precision" in err

    def test_seed_range(self, capsys):
        code, _, err = run(capsys, "haar", "sample", "--prime", "3", "--seed", "-1")
        assert code == 2
        assert "64" in err
        big = str(2**64)
        code, _, _ = run(capsys, "haar", "sample", "--prime", "3", "--seed", big)
        assert code == 2

    def test_threads_floor(self, capsys):
        code, _, _ = run(capsys, "haar", "sample", "--prime", "3", "--threads", "0")
        assert code == 2


P3_DEEP_SHELL = (
    '[["77975/79489", "-486/79489", "-26730/79489"],'
    ' ["13122/79489", "-39785/79489", "117006/79489"],'
    ' ["-162/2741", "-1370/2741", "-1343/2741"]]'
)


class TestDigitBudget:
    def test_deep_shell_exits_3_then_canonical(self, capsys):
        code, out, err = run(capsys, "decompose", "--prime", "3", "--precision", "16", P3_DEEP_SHELL)
        assert code == 3
        assert out == ""
        assert "precision exhausted" in err and "digit budget" in err
        code, out, _ = run(capsys, "decompose", "--prime", "3", "--precision", "20", P3_DEEP_SHELL)
        assert code == 0
        assert parse_angles(out, 3).beta.val == 4

    def test_exhausted_budget_exits_3_not_4(self, capsys, monkeypatch):
        code, text, _ = run(
            capsys, "rotate", "--prime", "7", "--quat", "38122 + 111181 i - 11137 j + 1727/343 k"
        )
        assert code == 0
        for precision, expected in (("8", 3), ("10", 0)):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code, out, _ = run(capsys, "decompose", "--prime", "7", "--precision", precision, "-")
            assert code == expected
        assert out.strip().endswith(",7^-5 * [2]")

    @pytest.mark.parametrize(
        "angles, precision",
        [
            ("3^0 * [2,1],3^-1 * [2,0,0],3^0 * [1,2,0,0]", ()),
            ("3^-2 * [2,1,2,2],3^1 * [1,1,1,2,1,0,0],3^2 * [2,2,2,0,2,2]", ("--precision", "8")),
        ],
        ids=["default-precision", "precision-8"],
    )
    def test_capped_parameter_deep_in_a_shell_exits_3(self, capsys, monkeypatch, angles, precision):
        # The canonical triple reads alpha or gamma as inf from a capped
        # zero; the flipped triple, beta outside Z_p, agrees with the few
        # known digits but is not an answer.
        code, text, _ = run(capsys, "rotate", "--prime", "3", angles)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "decompose", "--prime", "3", *precision, "-")
        assert (code, out) == (3, "")
        assert "precision exhausted" in err and "digit budget" in err

    def test_capped_angle_that_leaves_the_block_unknown_exits_3(self, capsys):
        # alpha = 0 + O(3^0) on the z axis, whose d is a unit, leaves no
        # digit of 1 + d*alpha^2; this used to exit 2 as a division by zero
        code, out, err = run(capsys, "rotate", "--prime", "3", "0 + O(3^0),inf,-9/8")
        assert (code, out) == (3, "")
        assert "precision exhausted" in err

    @pytest.mark.parametrize("angles", ["inf,3^0 * [1],0", "0,3^0 * [1],inf"])
    def test_capped_matrix_with_infinite_parameter(self, capsys, monkeypatch, angles):
        code, text, _ = run(capsys, "rotate", "--prime", "3", angles)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "decompose", "--prime", "3", "-")
        assert (code, out.strip(), err) == (0, angles, "")


class TestRoundTrips:
    def test_hensel_angles_feed_back_into_rotate(self, capsys, monkeypatch):
        code, text, _ = run(capsys, "rotate", "--prime", "3", "--quat", "1 + 1 i + 1 j")
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, angles, _ = run(capsys, "decompose", "--prime", "3", "--precision", "24")
        assert code == 0
        assert "[" in angles
        code, again, _ = run(capsys, "rotate", "--prime", "3", angles.strip())
        assert code == 0
        assert parse_matrix_json(again, 3).agrees(parse_matrix_json(text, 3))

    def test_sample_formats_carry_the_same_draws(self, capsys):
        argv = ("haar", "sample", "--prime", "7", "--count", "5", "--seed", "3", "--matrices")
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, js, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        lines = []
        for s in json.loads(js)["samples"]:
            lines += [",".join(s["angles"]), json.dumps(s["matrix"])]
        assert text == "\n".join(lines) + "\n"

    def test_parser_is_built_once(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        run(capsys, "classify", "--prime", "3", "2")
        code, out, _ = run(capsys, "classify", "--prime", "5", "10", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"schema": 1, "class": "UP"}


class TestBoundaryInput:
    IDENTITY_OF_BOOLS = "[[true,0,0],[0,true,0],[0,0,true]]"

    def test_boolean_entries_exit_2(self, capsys):
        code, out, err = run(capsys, "decompose", "--prime", "5", self.IDENTITY_OF_BOOLS)
        assert (code, out) == (2, "")
        assert "bool" in err
        identity = "[[1,0,0],[0,1,0],[0,0,1]]"
        code, out, err = run(capsys, "compose", "--prime", "5", self.IDENTITY_OF_BOOLS, identity)
        assert (code, out) == (2, "")
        assert "bool" in err

    def test_pseudoprime_is_not_prime(self, capsys):
        code, out, err = run(capsys, "classify", "--prime", "318665857834031151167461", "2")
        assert (code, out) == (2, "")
        assert "not prime" in err

    def test_prime_at_proof_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "classify", "--prime", "3317044064679887385961981", "2")
        assert (code, out) == (2, "")
        assert "no proof" in err

    def test_capped_zero_feeds_back(self, capsys, monkeypatch):
        code, text, _ = run(capsys, "rotate", "--prime", "7", "0 + O(7^3),1,1")
        assert code == 0
        assert "0 + O(7^3)" in text
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, angles, _ = run(capsys, "decompose", "--prime", "7", "-")
        assert (code, angles) == (0, "0 + O(7^3),1,1\n")


COMMON = {"--prime", "--format"}
OPTION_SETS = {
    "classify": COMMON | {"value"},
    "rotate": COMMON | {"angles", "--quat"},
    "compose": COMMON | {"matrices"},
    "decompose": COMMON | {"matrix", "--precision"},
    "haar mass": COMMON | {"--group"},
    "haar integrate": COMMON | {"--group", "--region", "--normalized"},
    "haar sample": COMMON | {"--precision", "--seed", "--threads", "--count", "--matrices"},
    "verify": COMMON | {"--seed", "--suite", "--samples"},
}


def leaf_options(parser, path=()):
    """{command path: the options and positionals a user can set} for every leaf."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subs:
        return {
            key: opts
            for name, child in subs[0].choices.items()
            for key, opts in leaf_options(child, (*path, name)).items()
        }
    return {
        " ".join(path): {
            a.option_strings[-1] if a.option_strings else a.dest
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
    }


class TestOptionSets:
    """Each command takes only the settings it reads."""

    def test_leaf_option_sets(self):
        leaves = leaf_options(cli._build_parser())
        assert leaves == OPTION_SETS
        assert sum(len(opts) for opts in leaves.values()) == 34

    @pytest.mark.parametrize(
        "argv",
        [
            ("rotate", "--prime", "3", "--seed", "1", "1,1,1"),
            ("classify", "--prime", "3", "--threads", "2", "2"),
            ("verify", "--prime", "3", "--precision", "8", "--suite", "iso"),
            ("haar", "mass", "--prime", "3", "--group", "so3", "--seed", "1"),
            ("decompose", "--prime", "5", "--threads", "1", "-"),
        ],
    )
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_settings_checked_where_taken(self, capsys):
        code, _, err = run(capsys, "decompose", "--prime", "5", "--precision", "3", "[[1]]")
        assert code == 2
        assert "precision must be at least 4" in err
        code, _, err = run(capsys, "verify", "--prime", "3", "--suite", "iso", "--seed", "-1")
        assert code == 2
        assert "64 bits" in err


class TestNegativeLiterals:
    """Literals that start with '-' are positionals, without a '--'."""

    ANGLES = "-19/243,0,-225/58"

    def test_rotate(self, capsys):
        expected = format_matrix_json(cardano_matrix(canonical_units(3), parse_angles(self.ANGLES, 3)).mat)
        code, out, err = run(capsys, "rotate", "--prime", "3", self.ANGLES)
        assert (code, out, err) == (0, expected + "\n", "")
        assert run(capsys, "rotate", "--prime", "3", "--", self.ANGLES) == (0, out, "")

    @pytest.mark.parametrize("value, name", [("-1/3", "UP"), ("-3", "UP"), ("-1", "U"), ("-4/25", "U")])
    def test_classify(self, capsys, value, name):
        assert run(capsys, "classify", "--prime", "3", value) == (0, name + "\n", "")
        assert run(capsys, "classify", "--prime", "3", "--", value) == (0, name + "\n", "")

    def test_decompose_output_feeds_rotate_as_printed(self, capsys, monkeypatch):
        code, text, _ = run(capsys, "rotate", "--prime", "3", self.ANGLES)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, angles, _ = run(capsys, "decompose", "--prime", "3", "-")
        assert (code, angles) == (0, self.ANGLES + "\n")
        assert run(capsys, "rotate", "--prime", "3", angles.strip()) == (0, text, "")

    def test_other_dash_arguments_keep_their_meaning(self, capsys):
        ctx = canonical_units(3)
        expected = format_matrix_json(quat_to_rotation(parse_quat("-1 + i", ctx)).mat)
        assert run(capsys, "rotate", "--prime", "3", "--quat", "-1 + i") == (0, expected + "\n", "")
        with pytest.raises(SystemExit) as exc:
            cli.main(["rotate", "--prime", "3", "--bogus", "1,1,1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


class TestClosedStdout:
    """A reader that closes stdout early gets no traceback and exit 141."""

    def spawn(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        return subprocess.Popen(
            [sys.executable, "-m", "so3p.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    def test_closed_before_the_first_write(self):
        proc = self.spawn("verify", "--prime", "5", "--suite", "measure", "--samples", "10")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_closed_after_the_first_line(self):
        # about 550 kB, far past a pipe buffer, so later writes find no reader
        proc = self.spawn("haar", "sample", "--prime", "5", "--count", "300", "--seed", "1", "--matrices")
        assert proc.stdout.readline().count(b",") == 2
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(command line, expected stdout lines, truncated) for each `$ so3p` line."""
    examples, current = [], None
    for line in README.read_text().splitlines():
        if line.startswith("    $ so3p "):
            current = [line[6:], [], False]
            examples.append(current)
        elif current and line.startswith("    ") and not current[2]:
            if line.strip() == "...":
                current[2] = True
            else:
                current[1].append(line[4:])
        else:
            current = None
    return examples


class TestReadmeExamples:
    def test_examples_found(self):
        commands = [cmd for cmd, _, _ in readme_examples()]
        assert len(commands) == 9
        assert any("|" in cmd for cmd in commands)

    @pytest.mark.parametrize(
        "command, lines, truncated", readme_examples(), ids=[cmd for cmd, _, _ in readme_examples()]
    )
    def test_example(self, capsys, monkeypatch, command, lines, truncated):
        # each stage of a pipe reads the stdout of the one before
        out, stages = "", [[]]
        for token in shlex.split(command, comments=True):
            if token == "|":
                stages.append([])
            else:
                stages[-1].append(token)
        for program, *argv in stages:
            assert program == "so3p"
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
        expected = "".join(line + "\n" for line in lines)
        if truncated:
            assert out.startswith(expected)
        else:
            assert out == expected


class TestPinnedSampleStream:
    """`haar sample` prints the same bytes for the same configuration and
    seed, release after release: sha256 of stdout, recorded once."""

    DIGESTS = {
        (3, "text", False): "2ace46db544d766c732b7cd0a320b21a02238f9a5bd90bbaaa1b2d3459ab05c8",
        (3, "text", True): "c671a911364b7ff44c6bf7de3555bd33ad8bd722f727fbfb0229cd8886783c2a",
        (3, "json", False): "7f1ad863df644787f6c49b02fdb4d223092a5821d245037964aad3986ae2cce2",
        (3, "json", True): "46afb93e6f0d2e86e0384259ea071dadf2f9ddddd7a3eeae885078e00e49d6c4",
        (7, "text", False): "32974be6d9af2d502b309de8cad72634fc22e85c372684011d2a902d30b7680d",
        (7, "text", True): "93ce9d15571658562180e5b6409571d8859f0f5629475f2370260cf96dc7900b",
        (7, "json", False): "d8a54a9113723cf062e24636302a1cea44446ad57e786ba816fbb90c53582dd9",
        (7, "json", True): "fa2de753bd0c074755379a364057f95fd738506bd14f4db162108416761c70fa",
        (13, "text", False): "ab7fde95f8e38da416c596c44f142731ff6ada4799b4f422167e0ed66c19dee1",
        (13, "text", True): "930e70df93a9ee56aed395c0756ef4cc0476536fad1b31b7dfcd9c69492c366d",
        (13, "json", False): "4c601273b8c825798c3f9cd27bc5c645105a46423dffbb48d7921c1de079dba6",
        (13, "json", True): "7706352632798ac646165be29aa9584527107d1671414f49e63e97ecd6e67d41",
        (4294967311, "text", False): "32541ccfbb703fda646fc2233f83ba8d8950de9994056bbc4c8248a7819e39bd",
        (4294967311, "text", True): "7205e928456e0e08d6dc84e64447ea6d2f1739c6dc52f68c56c4b2e7d69575bf",
        (4294967311, "json", False): "6ea9f88f5022671145119cfa5e81e7b58cf533eead8aa08995f7ccd7ee83a6fb",
        (4294967311, "json", True): "24869268984bb25a18b1727f32aedf74d989e3280df71d3efb4ab5f95be76fa2",
    }

    @pytest.mark.parametrize("p, fmt, matrices", sorted(DIGESTS))
    def test_stdout_digest(self, capsys, p, fmt, matrices):
        argv = ["haar", "sample", "--prime", str(p), "--count", "40", "--seed", "2026",
                "--precision", "12", "--format", fmt]
        code, out, err = run(capsys, *argv, *(["--matrices"] if matrices else []))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[p, fmt, matrices]


class TestPinnedCappedOutput:
    """`rotate` and `decompose` print the same bytes on capped-precision
    paths, release after release: per grid, the sha256 of every
    invocation's exit code and stdout, recorded once.

    The rotate grid mixes exact, infinite, capped and capped-zero
    parameters in every slot.  The decompose grids take rotations whose
    cos(beta) is irrational (the Hensel path) and the capped matrices the
    rotate grid prints, each at precision 8, 16 and 32.  At p = 3 the
    rotate grid holds 16/63,3^2 * [1,1,0,1,0,0,1,2],33/2, whose exact-zero
    padding terms decide the digits of two entries.
    """

    DIGESTS = {
        ("rotate", 3): "8e8ca2acb97505639ce5f7c414af21b5798d874ac1f909d00a5e648807a14c59",
        ("rotate", 5): "031931c2d01ef6fc7c0fe68cc9c3f5530686dbdaa9e81b0602601b4f8f0d93c7",
        ("rotate", 13): "5999d7023554b53e0b11c2e3c028a7a3f072f36f26111a6d08bd3b0140f53961",
        ("hensel", 3): "29fd25b52f2566a3807f16b82bfeb438233e73a7f14eb42fada5f77c3222f2a4",
        ("hensel", 5): "4b81f9c4d80ae8240e9274486da3cfa80540d81891d6c9a177abb43d31144d51",
        ("hensel", 13): "49bb03c73ef5fa3a90ebf3ef9b209def28c9a6f1930171ba463457be213e0d43",
        ("capped", 3): "a7addd21e77b1f93d8c36f39a78ac4cd536f53fa3618cb080e67177e2c12a1ef",
        ("capped", 5): "9ab49f7c98f4ec6e2ae1674f868834a685710bc08342885bae26ba2310e00c98",
        ("capped", 13): "db64f0e4b5425bcb495aaedf105b9890f7c8d3139cd7558455931caf8a065936",
    }

    @staticmethod
    def literals(p):
        exact = ["0", "inf", "16/63", "33/2"]
        capped = [f"{p}^0 * [2,1,0,2,1,1,0,1]", f"{p}^2 * [1,1,0,1,0,0,1,2]", f"{p}^-1 * [1,2,2,1]"]
        return exact, capped + [f"0 + O({p}^3)"]

    @classmethod
    def triples(cls, p):
        exact, capped = cls.literals(p)
        every = exact + capped
        return [(a, b, c) for a in every for b in every for c in every if {a, b, c} & set(capped)]

    @staticmethod
    def hensel_matrices(p):
        ctx = canonical_units(p)
        quats = [(1, a, b, c) for a in (0, 1, 2) for b in (1, 3) for c in (-1, 2)]
        mats = [quat_to_rotation(Quat(ctx, *map(Fraction, q))) for q in quats]
        return [format_matrix_json(r.mat) for r in mats if rational_sqrt(1 - p * r.mat[2, 0] ** 2) is None]

    @staticmethod
    def digest(capsys, argvs):
        h = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            h.update(f"{code}\n{out}".encode())
        return h.hexdigest()

    def rotate_argvs(self, p):
        return [("rotate", "--prime", str(p), "--format", "json", ",".join(t)) for t in self.triples(p)]

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_rotate(self, capsys, p):
        assert self.digest(capsys, self.rotate_argvs(p)) == self.DIGESTS["rotate", p]

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_decompose_hensel(self, capsys, p):
        argvs = [
            ("decompose", "--prime", str(p), "--precision", str(prec), text)
            for text in self.hensel_matrices(p) for prec in (8, 16, 32)
        ]
        assert self.digest(capsys, argvs) == self.DIGESTS["hensel", p]

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_decompose_capped(self, capsys, p):
        texts = []
        for t in self.triples(p)[::7]:
            code, out, _ = run(capsys, "rotate", "--prime", str(p), ",".join(t))
            if code == 0:
                texts.append(out)
        argvs = [
            ("decompose", "--prime", str(p), "--precision", str(prec), text)
            for text in texts for prec in (8, 16, 32)
        ]
        assert self.digest(capsys, argvs) == self.DIGESTS["capped", p]
