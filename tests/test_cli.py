"""Tests for the command-line interface and the cross-check suite."""

import ast
import itertools
import json
import math
import re
import shlex
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from abelcover import cli, counting, moduli, polyring
from abelcover.distribution import pattern_probability
from abelcover.groupcomb import GroupSpec, beta_classes
from abelcover.field import CharValue, character
from abelcover.polyring import Polynomial, is_squarefree


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_genus_subcommand(capsys):
    code, out, _ = run(capsys, "genus", "--r", "2", "--degrees", '{"1": 6}')
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    assert payload["group"] == [2]


def test_genus_rejects_bad_degrees(capsys):
    code, _, err = run(capsys, "genus", "--r", "2", "--degrees", '{"1": 3}')
    assert code == 2
    assert "not divisible" in err


def test_count_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--p",
        "5",
        "--r",
        "2",
        "--c",
        "[1]",
        "--f",
        '{"1": [1, 0, 1]}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 6
    assert payload["trace"] == 0


def test_count_rejects_non_squarefree(capsys):
    code, _, err = run(
        capsys,
        "count",
        "--p",
        "5",
        "--r",
        "2",
        "--c",
        "[1]",
        "--f",
        '{"1": [1, 2, 1]}',
    )
    assert code == 2
    assert err


def test_count_fills_unmentioned_alphas_with_one(capsys):
    # y^4 = x + 1 over F_5: f_2 = f_3 = 1.  Four points above x = 0, one
    # above the branch point x = 4 and one above infinity, which ramifies.
    code, out, _ = run(
        capsys, "count", "--p", "5", "--r", "4", "--c", "[1]", "--f", '{"1": [1, 1]}'
    )
    assert code == 0
    payload = json.loads(out)
    assert [pt["count"] for pt in payload["points"]] == [4, 0, 0, 0, 1, 1]
    assert payload["total"] == 6


@pytest.mark.parametrize("coeffs", ["[0]", "[]", "[7, 0, 1]", "[-1, 0, 1]"])
def test_count_rejects_polynomials_not_over_the_field(capsys, coeffs):
    """The zero polynomial and coefficients outside 0..q-1 exit 2."""
    f = '{"1": %s}' % coeffs
    code, _, err = run(capsys, "count", "--p", "5", "--r", "2", "--c", "[1]", "--f", f)
    assert code == 2
    assert "not a nonzero polynomial over F_5" in err


def test_count_rejects_a_constant_other_than_one(capsys):
    """y^2 = 2 is written c = 2, f = 1: every f_alpha is monic."""
    argv = ["count", "--p", "5", "--r", "2"]
    code, _, err = run(capsys, *argv, "--c", "[1]", "--f", '{"1": [2]}')
    assert code == 2
    assert "not monic" in err
    code, out, _ = run(capsys, *argv, "--c", "[2]", "--f", '{"1": [1]}')
    assert code == 0
    assert json.loads(out)["total"] == 0


def test_count_rejects_extension_degree_zero(capsys):
    argv = ["count", "--p", "5", "--k", "0", "--r", "2", "--c", "[1]"]
    code, out, err = run(capsys, *argv, "--f", '{"1": [1]}')
    assert (code, out, err) == (2, "", "error: k must be positive, got 0\n")


def test_a_dichotomy_fault_is_an_internal_error(monkeypatch, capsys):
    """A count rule that ignores the values (|A_beta| at every point) is
    caught by the cyclotomic check: count exits 1 and verify's oracle fails."""
    monkeypatch.setattr(counting, "_count_above", lambda surviving, *_: len(surviving))
    code, out, err = run(
        capsys, "count", "--p", "5", "--r", "2", "--c", "[1]", "--f", '{"1": [1, 0, 1]}'
    )
    assert (code, out) == (1, "")
    assert err.startswith("internal error: cyclotomic sum disagrees")
    lines = []
    assert cli.run_verification(only="oracle", out=lines.append) == 1
    assert lines[0].startswith("FAIL oracle (cyclotomic sum disagrees")


def test_a_walk_that_breaks_coprimality_is_an_internal_error(capsys, monkeypatch):
    """The coprime walk yields no two f_alpha with a common root, so when it
    does (factor masks zeroed) the code is at fault: exit 1, not 2, with
    the point named."""
    real = polyring._factor_masks

    def zeroed(ctx, degrees, top):
        return {d: [0] * len(masks) for d, masks in real(ctx, degrees, top).items()}

    monkeypatch.setattr(polyring, "_factor_masks", zeroed)
    degrees = '{"1,0": 1, "0,1": 1, "1,1": 1}'
    argv = ["distribution", "--p", "5", "--r", "2,2", "--degrees", degrees]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "internal error: 3 polynomials vanish at 0\n")


def test_enumeration_needs_q_at_most_256(capsys):
    """Enumerate mode refuses F_257 with one error line; count and sample
    mode, which walk nothing, still run there."""
    field = ["--p", "257", "--r", "256"]
    code, out, err = run(capsys, "distribution", *field, "--degrees", "{}")
    assert (code, out) == (2, "")
    assert err == "error: enumeration tables hold one field element per byte: q = 257 > 256\n"
    code, out, _ = run(capsys, "count", *field, "--c", "[3]", "--f", "{}")
    assert code == 0 and len(json.loads(out)["points"]) == 258
    code, out, _ = run(
        capsys, "distribution", "--p", "257", "--r", "2", "--degrees", '{"1": 2}',
        "--mode", "sample", "--draws", "5",
    )
    assert code == 0 and out.startswith("value,empirical_num,")


def test_count_rejects_wrong_length_alpha(capsys):
    code, _, err = run(
        capsys, "count", "--p", "5", "--r", "2", "--c", "[1]", "--f", '{"1,0": [1, 1]}'
    )
    assert code == 2
    assert "wrong length" in err


def test_count_rejects_alpha_outside_group(capsys):
    code, _, err = run(
        capsys,
        "count",
        "--p",
        "5",
        "--r",
        "2",
        "--c",
        "[1]",
        "--f",
        '{"1": [1, 1], "3": [2, 1]}',
    )
    assert code == 2
    assert "not a nonzero exponent vector" in err


def test_distribution_csv(capsys):
    code, out, _ = run(
        capsys, "distribution", "--p", "5", "--r", "2", "--degrees", '{"1": 4}'
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,empirical_num,empirical_den,theory_num,theory_den"
    assert lines[-1].startswith("tv,")
    # deterministic artifact: repeat and compare byte for byte
    code2, out2, _ = run(
        capsys, "distribution", "--p", "5", "--r", "2", "--degrees", '{"1": 4}'
    )
    assert out2 == out


def test_distribution_budget_names_a_huge_size_by_its_digits(capsys, monkeypatch):
    """Z/2 over F_5 at d = 8,000 has a size of 5,593 digits, too long for
    str(): the budget error names its digit count and exits 2."""
    monkeypatch.setenv("ABCOVER_BUDGET", "1000")
    got, out, err = run(
        capsys, "distribution", "--p", "5", "--r", "2", "--degrees", '{"1": 8000}'
    )
    assert (got, out) == (2, "")
    assert err == "error: space size of 5593 digits exceeds budget 1000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--c", "[1, 1]", "--f", '{"1,1": [1]}'],
        ["distribution", "--degrees", '{"1,1": 2}'],
    ],
)
def test_group_order_is_checked_before_any_alpha_map(capsys, monkeypatch, argv):
    """exp(G) = 6 does not divide q - 1 = 4: count and distribution refuse
    the group before they build a map over its nonzero alpha."""

    def refused(_group):
        raise AssertionError("an alpha map was built before the order check")

    monkeypatch.setattr(GroupSpec, "nonzero_vectors", refused)
    code, out, err = run(capsys, argv[0], "--p", "5", "--r", "2,6", *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: exp(G) = 6 does not divide q-1 = 4\n"


@pytest.mark.parametrize(
    "budget,code,message",
    [
        ("2400", 0, ""),
        ("2399", 2, "error: space size 2400 exceeds budget 2399\n"),
        ("1e7", 2, "error: ABCOVER_BUDGET must be an integer, not '1e7'\n"),
    ],
)
def test_distribution_budget(capsys, monkeypatch, budget, code, message):
    """ABCOVER_BUDGET caps the exact number of covers walked, 2,400 here."""
    monkeypatch.setenv("ABCOVER_BUDGET", budget)
    got, _, err = run(
        capsys, "distribution", "--p", "5", "--r", "2", "--degrees", '{"1": 4}'
    )
    assert (got, err) == (code, message)


def test_distribution_ladder(capsys):
    code, out, _ = run(
        capsys,
        "distribution",
        "--p",
        "5",
        "--r",
        "2",
        "--ladder",
        '[{"1": 2}, {"1": 4}]',
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degrees,tv_num,tv_den,tv_float"
    assert len(lines) == 3


@pytest.mark.parametrize("ladder", ["5", '{"1": 4}'])
def test_distribution_ladder_must_be_a_list(tmp_path, capsys, ladder):
    message = "error: --ladder must be a JSON list of degree maps, not %r\n" % (
        json.loads(ladder),
    )
    code, out, err = run(capsys, "distribution", "--p", "5", "--r", "2", "--ladder", ladder)
    assert (code, out, err) == (2, "", message)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "r": [2], "ladder": json.loads(ladder)}))
    code, out, err = run(capsys, "--config", str(cfg), "distribution")
    assert (code, out, err) == (2, "", message)


def test_distribution_sample_mode(capsys):
    code, out, _ = run(
        capsys,
        "distribution",
        "--p",
        "5",
        "--r",
        "2",
        "--degrees",
        '{"1": 4}',
        "--mode",
        "sample",
        "--draws",
        "64",
        "--seed",
        "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("value,")
    assert lines[-1].startswith("tv,")


def test_distribution_out_file(tmp_path, capsys):
    target = tmp_path / "hist.csv"
    code, out, _ = run(
        capsys,
        "distribution",
        "--p",
        "5",
        "--r",
        "2",
        "--degrees",
        '{"1": 2}',
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("value,")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "r": "2", "degrees": {"1": 4}}))
    code, out, _ = run(capsys, "--config", str(cfg), "distribution")
    assert code == 0
    assert out.startswith("value,")


@pytest.mark.parametrize("mode", ["exact", "Sample", 1, None])
def test_config_file_mode_must_be_a_known_mode(tmp_path, capsys, mode):
    # A config file's mode does not pass through the --mode choices.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "r": "2", "degrees": {"1": 4}, "mode": mode}))
    code, out, err = run(capsys, "--config", str(cfg), "distribution")
    assert code == 2
    assert out == ""
    assert "mode must be enumerate or sample" in err


CONFIG = {
    "p": 5, "k": 1, "r": [2], "degrees": {"1": 4}, "mode": "sample", "draws": 3, "seed": 1
}


def test_config_file_integers_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    code, out, _ = run(capsys, "--config", str(cfg), "distribution")
    assert code == 0
    assert out.startswith("value,")


@pytest.mark.parametrize(
    "name,value",
    [
        ("p", 5.9), ("p", 5.0), ("p", True), ("p", "5"),
        ("k", 1.5), ("k", True),
        ("r", [2.5]), ("r", [True]), ("r", 2),
        ("draws", 3.7), ("draws", False),
        ("seed", 0.5), ("seed", True),
    ],
)
def test_config_file_numbers_must_be_integers(tmp_path, capsys, name, value):
    # argparse types the flags; a config file's values reach the CLI as JSON.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, name: value}))
    code, out, err = run(capsys, "--config", str(cfg), "distribution")
    assert code == 2
    assert out == ""
    assert "--%s must be" % name in err


@pytest.mark.parametrize("value", [True, 1])
def test_config_file_out_must_be_a_string(tmp_path, capsys, value):
    # open() takes a bool or an int as a file descriptor: fd 1 is stdout.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "out": value}))
    code, out, err = run(capsys, "--config", str(cfg), "distribution")
    assert (code, out) == (2, "")
    assert "--out must be a string, not %r" % value in err


def test_config_file_only_must_be_a_string(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"only": 5}))
    code, out, err = run(capsys, "--config", str(cfg), "verify")
    assert (code, out, err) == (2, "", "error: --only must be a string, not 5\n")


@pytest.mark.parametrize("draws", [0, -3])
def test_draws_must_be_positive(tmp_path, capsys, draws):
    message = "error: --draws must be at least 1, not %d\n" % draws
    flags = ["--p", "5", "--r", "2", "--degrees", '{"1": 4}', "--mode", "sample"]
    code, out, err = run(capsys, "distribution", *flags, "--draws", str(draws))
    assert (code, out, err) == (2, "", message)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "draws": draws}))
    code, out, err = run(capsys, "--config", str(cfg), "distribution")
    assert (code, out, err) == (2, "", message)


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": "2", "degrees": {"1": 6}}))
    code, out, _ = run(
        capsys, "--config", str(cfg), "genus", "--degrees", '{"1": 4}'
    )
    assert code == 0
    assert json.loads(out)["genus"] == 1


def test_missing_required_input(capsys):
    code, _, err = run(capsys, "genus", "--degrees", '{"1": 4}')
    assert code == 2
    assert "missing" in err


def test_verify_runs_clean(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == ["ok   %s" % name for name, _ in cli.CHECKS]


def readme_commands():
    """The abelcover commands of README's "Command line" block, each an argv
    without the program name, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("abelcover ")]


def test_readme_commands_run(capsys):
    """Every command the README shows exits 0, so the docs follow the CLI."""
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"genus", "count", "distribution", "verify"}
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_readme_layout_names_only_defined_helpers():
    """Every backticked name beginning with _ in README's "Library layout"
    table is a function or class defined in the package, so the table
    cannot go on naming a helper that is gone."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text()
    section = text.split("## Library layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    named = set(re.findall(r"`(_\w+)`", "\n".join(rows)))
    defined = {
        node.name
        for path in (root / "src" / "abelcover").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "_plan" in named
    assert named <= defined, sorted(named - defined)


def test_no_module_defines_a_top_level_name_twice():
    """A second top-level def or class of a name silently replaces the
    first; of two tests of one name pytest collects only the last."""
    root = Path(__file__).resolve().parents[1]
    folders = [root / "src" / "abelcover", root / "tests", root / "bench"]
    paths = sorted(path for folder in folders for path in folder.glob("*.py"))
    repeated = []
    for path in paths:
        body = ast.parse(path.read_text()).body
        names = Counter(
            node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
        repeated += [f"{path.name}: {name}" for name, n in names.items() if n > 1]
    assert len(paths) > 20 and not repeated, repeated


def test_verify_only_filter():
    lines = []
    failures = cli.run_verification(only="polyring", out=lines.append)
    assert failures == 0
    assert lines == ["ok   polyring"]


def test_verify_catches_flipped_character(monkeypatch):
    """A character with a shifted exponent must trip a named invariant."""

    def skewed(ctx, m, a):
        val = character(ctx, m, a)
        if val.is_zero or m == 1:
            return val
        return CharValue.root(m, val.exponent + 1)

    monkeypatch.setattr(cli.field_mod, "character", skewed)
    lines = []
    failures = cli.run_verification(only="field", out=lines.append)
    assert failures == 1
    assert lines[0].startswith("FAIL field")


def test_verify_catches_broken_counts(monkeypatch):
    from abelcover import counting

    real = counting.oracle_count

    def off_by_one(ctx, G, t, x):
        return real(ctx, G, t, x) + 1

    monkeypatch.setattr("abelcover.cli.oracle_count", off_by_one)
    lines = []
    failures = cli.run_verification(only="oracle", out=lines.append)
    assert failures == 1
    assert lines[0].startswith("FAIL oracle")


def test_verify_oracle_covers_extension_fields(monkeypatch):
    """A fault that only shows over F_{p^k}, k > 1, must trip the oracle check."""
    real = cli.oracle_count

    def off_over_extensions(ctx, G, t, x):
        return real(ctx, G, t, x) + (ctx.k > 1)

    monkeypatch.setattr(cli, "oracle_count", off_over_extensions)
    lines = []
    assert cli.run_verification(only="oracle", out=lines.append) == 1
    assert lines[0].startswith("FAIL oracle (count mismatch at x=")
    assert "q=4" in lines[0]


def test_verify_fails_on_genus_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "genus_invariance_check", lambda G, dv: False)
    assert cli.main(["verify"]) == 1
    assert "FAIL genus" in capsys.readouterr().out


def test_verify_fails_on_admissibility_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_admissible_decomposition", lambda G, p: False)
    assert cli.main(["verify"]) == 1
    assert "FAIL oracle" in capsys.readouterr().out


def test_verify_checks_the_patterns_at_branch_points(monkeypatch):
    """A zero value of the wrong order shows only where a pattern vanishes,
    at branch points and at a ramified infinity: verify's oracle check
    reads the pattern at every point of P^1."""
    real = cli.count_points

    def zeros_of_order_one(ctx, G, t, check=True):
        report = real(ctx, G, t, check)
        report.points = [
            counting.PointEvaluation(
                ev.x,
                ev.beta,
                {p: CharValue.zero(1) if v.is_zero else v for p, v in ev.pattern.items()},
                ev.count,
            )
            for ev in report.points
        ]
        return report

    monkeypatch.setattr(cli, "count_points", zeros_of_order_one)
    lines = []
    assert cli.run_verification(only="oracle", out=lines.append) == 1
    assert lines[0].startswith("FAIL oracle (inadmissible pattern at x=")


def test_genus_rejects_a_negative_degree(capsys):
    code, out, err = run(capsys, "genus", "--p", "5", "--r", "2", "--degrees", '{"1": -2}')
    assert code == 2
    assert out == ""
    assert err == "error: degree of (1,) must be non-negative, not -2\n"


def test_genus_rejects_degrees_that_are_not_a_map(capsys):
    code, _, err = run(capsys, "genus", "--r", "2", "--degrees", "[6]")
    assert code == 2
    assert "error" in err


def test_genus_rejects_a_degree_that_is_not_an_integer(capsys):
    code, _, err = run(capsys, "genus", "--r", "2", "--degrees", '{"1": "x"}')
    assert code == 2
    assert "not an integer" in err


@pytest.mark.parametrize("command", ["genus", "distribution"])
def test_a_bool_degree_is_not_an_integer(capsys, command):
    code, out, err = run(
        capsys, command, "--p", "7", "--r", "3", "--degrees", '{"1": true, "2": true}'
    )
    assert (code, out, err) == (2, "", "error: degree True is not an integer\n")


def test_count_rejects_f_that_is_not_a_map(capsys):
    code, _, err = run(
        capsys, "count", "--p", "5", "--r", "2", "--c", "[1]", "--f", "[[1, 0, 1]]"
    )
    assert code == 2
    assert "error" in err


def test_count_rejects_c_that_is_not_a_list(capsys):
    code, _, err = run(
        capsys, "count", "--p", "5", "--r", "2", "--c", "1", "--f", '{"1": [1, 0, 1]}'
    )
    assert code == 2
    assert "--c" in err


def test_count_rejects_coefficients_that_are_not_a_list(capsys):
    code, _, err = run(
        capsys, "count", "--p", "5", "--r", "2", "--c", "[1]", "--f", '{"1": 5}'
    )
    assert code == 2
    assert "coefficients" in err


def test_verify_fails_on_wrong_component_sizes(monkeypatch, capsys):
    real = cli.component_sizes

    def off_by_one(ctx, G, dv):
        sizes = real(ctx, G, dv)
        sizes[None] += 1
        return sizes

    monkeypatch.setattr(cli, "component_sizes", off_by_one)
    assert cli.main(["verify"]) == 1
    assert "FAIL oracle" in capsys.readouterr().out


def test_verify_catches_a_sieve_that_keeps_a_square(monkeypatch, capsys):
    real = polyring._squarefree_flags

    def keeps_x_to_the_d(ctx, d):
        flags = real(ctx, d)
        flags[0] = 1  # x^d, a square for d >= 2
        return flags

    monkeypatch.setattr(polyring, "_squarefree_flags", keeps_x_to_the_d)
    assert cli.main(["verify"]) == 1
    assert "FAIL polyring (squarefree sieve disagrees" in capsys.readouterr().out


def test_verify_catches_a_sieve_that_keeps_a_square_at_one(monkeypatch, capsys):
    """(t - 1)^2 t^(d-2) has its double root at x = 1, where f(x) and f'(x)
    vanish together: the column test, not the code-0 one above."""
    real = polyring._squarefree_flags

    def keeps_a_square_at_one(ctx, d):
        flags = real(ctx, d)
        if d >= 2:
            f = Polynomial.x_minus(ctx, 1) ** 2 * Polynomial(ctx, [0] * (d - 2) + [1])
            flags[sum(a * ctx.q**i for i, a in enumerate(f.coeffs[:-1]))] = 1
        return flags

    monkeypatch.setattr(polyring, "_squarefree_flags", keeps_a_square_at_one)
    assert cli.main(["verify"]) == 1
    assert "FAIL polyring (squarefree sieve disagrees" in capsys.readouterr().out


def test_verify_catches_sampling_that_skips_the_coprimality_test(monkeypatch, capsys):
    def squarefree_only(polys):
        return all(is_squarefree(f) for f in polys.values() if f.degree >= 1)

    monkeypatch.setattr(moduli, "_accept", squarefree_only)
    assert cli.main(["verify"]) == 1
    assert "FAIL oracle (a sampled cover is not in the enumerated space" in (
        capsys.readouterr().out
    )


def test_verify_catches_a_key_table_off_at_one_code(monkeypatch, capsys):
    real = counting._key_table

    def off_at_one_code(ctx, E, d):
        table = bytearray(real(ctx, E, d))
        if d:  # x^d + 1 at x = 0: a root where there is none
            table[ctx.q] = 0
        return bytes(table)

    monkeypatch.setattr(counting, "_key_table", off_at_one_code)
    assert cli.main(["verify"]) == 1
    assert "FAIL oracle (bulk count histogram disagrees" in capsys.readouterr().out


def test_verify_catches_a_pattern_histogram_off_at_infinity(monkeypatch, capsys):
    real = cli.space_pattern_histogram

    def off_at_infinity(ctx, G, dv, x):
        hist = real(ctx, G, dv, x)
        if x == counting.INFINITY:
            hist[next(iter(hist))] += 1  # one cover too many
        return hist

    monkeypatch.setattr(cli, "space_pattern_histogram", off_at_infinity)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL oracle (pattern histogram (x=inf) disagrees" in out


@pytest.mark.parametrize("r,q", [((2,), 3), ((2,), 5), ((3,), 7), ((2, 2), 5)])
def test_pattern_total_equals_the_fraction_sum(r, q):
    group = GroupSpec(r)
    classes = beta_classes(group)
    n = q + 1
    total = Fraction(0)
    for split in itertools.product(range(n + 1), repeat=len(classes)):
        if sum(split) != n:
            continue
        mult = {cls.representative: m for cls, m in zip(classes, split) if m}
        weight = math.factorial(n) // math.prod(map(math.factorial, split))
        weight *= math.prod((group.size // c.e) ** m for c, m in zip(classes, split))
        total += weight * pattern_probability(group, q, mult)
    assert cli._pattern_total(group, q) == total == 1
