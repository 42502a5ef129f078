"""Tests for the command-line interface and the cross-check suite."""

import json


from abelcover import cli
from abelcover.field import CharValue, character


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
    code, out, _ = run(capsys, "verify", "--only", "genus")
    assert code == 0
    assert "ok   genus" in out


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


def test_verify_fails_on_genus_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "genus_invariance_check", lambda G, dv: False)
    assert cli.main(["verify"]) == 1
    assert "FAIL genus" in capsys.readouterr().out


def test_verify_fails_on_admissibility_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_admissible_decomposition", lambda G, p: False)
    assert cli.main(["verify"]) == 1
    assert "FAIL oracle" in capsys.readouterr().out
