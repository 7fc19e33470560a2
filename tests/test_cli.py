import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import FRAME_7X5, MEDIUM_A, SMALL, sweep_configs
from helpers import (
    label_map_from_json_dict,
    lattice_toric_basis,
    spairs_per_step,
    without_pruning,
)

from polytoric import cli
from polytoric.binom import LEX, buchberger, parse_binomial
from polytoric.cli import instance_from_dict, main
from polytoric.errors import ParseError
from polytoric.grid import MAX_SIDE
from polytoric.labelling import build_label_map
from polytoric.toric import phi_image


def write_instance(tmp_path, coords, name="instance.json"):
    (a, b, ai, bi) = coords
    path = tmp_path / name
    path.write_text(json.dumps(
        {"outer": {"a": list(a), "b": list(b)},
         "hole": {"a": list(ai), "b": list(bi)}}
    ))
    return str(path)


def test_label_grid_golden(tmp_path, capsys):
    path = write_instance(tmp_path, FRAME_7X5)
    assert main(["label", "--instance", path]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()
    assert len(rows) == 5
    assert rows[0].split() == [
        "r1s5t2", "r2s5t2", "r3s5t7", "r4s5t6", "r5s5t1", "r6s5t1", "r7s5t1"
    ]
    assert rows[2].split() == [
        "r1s3t8", "r2s3t8", "r5s3t5", "r6s3t5", "r7s3t5"
    ]
    # blanks occupy the hole columns in the middle row
    assert rows[2].index("r5s3t5") > rows[1].index("r5s4t1") - 1


def test_label_json_round_trip(tmp_path, capsys):
    from polytoric.grid import RectDiffConfig

    path = write_instance(tmp_path, SMALL)
    assert main(["label", "--instance", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["labels"]) == 16
    back = label_map_from_json_dict(data)
    assert back == build_label_map(RectDiffConfig.of(*SMALL))


def test_label_csv(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    assert main(["label", "--instance", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,y,r,s,t"
    assert len(lines) == 17


def test_missing_file_exit_2(tmp_path, capsys):
    assert main(["label", "--instance", str(tmp_path / "nope.json")]) == 2
    assert "cannot read instance file" in capsys.readouterr().err


def test_malformed_hole_exit_2(tmp_path, capsys):
    path = write_instance(tmp_path, ((1, 1), (3, 3), (1, 2), (2, 3)))
    assert main(["verify", "--instance", path]) == 2
    assert "strict chain" in capsys.readouterr().err


def test_bad_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"outer": {"a": [1,1], "b": [4,4]}, ')
    assert main(["label", "--instance", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{", "cannot read instance file"),
    (b"[" * 200000, "invalid JSON: maximum recursion depth"),
    (b'{"outer": {"a": [' + b"1" * 5000 + b', 1]}}', "invalid JSON: Exceeds the limit"),
], ids=["not_utf8", "nested_past_recursion_limit", "integer_past_digit_limit"])
def test_undecodable_instance_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["verify", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


def test_field_precise_errors():
    with pytest.raises(ParseError, match=r"outer\.a"):
        instance_from_dict({"outer": {"a": [1], "b": [4, 4]},
                            "hole": {"a": [2, 2], "b": [3, 3]}})
    with pytest.raises(ParseError, match=r"hole\.b"):
        instance_from_dict({"outer": {"a": [1, 1], "b": [4, 4]},
                            "hole": {"a": [2, 2]}})
    with pytest.raises(ParseError, match="hole"):
        instance_from_dict({"outer": {"a": [1, 1], "b": [4, 4]}})
    with pytest.raises(ParseError, match=r"outer\.b"):
        instance_from_dict({"outer": {"a": [1, 1], "b": [4.5, 4]},
                            "hole": {"a": [2, 2], "b": [3, 3]}})
    with pytest.raises(ParseError, match=r"outer\.a"):
        instance_from_dict({"outer": {"a": [-1, 1], "b": [4, 4]},
                            "hole": {"a": [2, 2], "b": [3, 3]}})


def test_negative_coordinate_exit_2(tmp_path, capsys):
    path = write_instance(tmp_path, ((-1, 1), (4, 4), (2, 2), (3, 3)))
    assert main(["label", "--instance", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "outer.a" in err
    assert len(err.splitlines()) == 1


def test_outer_box_past_size_limit_exit_2(tmp_path, capsys):
    at_limit = instance_from_dict({"outer": {"a": [0, 0], "b": [MAX_SIDE, MAX_SIDE]},
                                   "hole": {"a": [1, 1], "b": [2, 2]}})
    assert at_limit.b.x == at_limit.b.y == MAX_SIDE
    for b in ((MAX_SIDE + 1, 3), (3, MAX_SIDE + 1)):
        path = write_instance(tmp_path, ((0, 0), b, (1, 1), (2, 2)))
        assert main(["minors", "--instance", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"more than {MAX_SIDE}" in err
        assert len(err.splitlines()) == 1


def test_verify_small_exit_0(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    report_path = tmp_path / "report.json"
    assert main(["verify", "--instance", path, "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["ideals_equal"] is True
    assert report["num_inner_minors"] == 20
    assert report["prime_corollary"] is True


def test_verify_budget_exit_3(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    report_path = tmp_path / "report.json"
    code = main(["verify", "--instance", path, "--budget", "0",
                 "--report", str(report_path)])
    assert code == 3
    report = json.loads(report_path.read_text())
    assert report["budget_exceeded_stage"] == "toric_generators"


def test_verify_unwritable_report_exit_2(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    report_path = tmp_path / "missing" / "r.json"
    assert main(["verify", "--instance", path, "--report", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report file")
    assert len(err.splitlines()) == 1


def test_verify_reports_byte_identical_modulo_timings(tmp_path):
    path = write_instance(tmp_path, SMALL)
    payloads = []
    for name in ("r1.json", "r2.json"):
        report_path = tmp_path / name
        assert main(["verify", "--instance", path,
                     "--report", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        data.pop("timings")
        payloads.append(json.dumps(data, sort_keys=True).encode())
    assert payloads[0] == payloads[1]


def test_minors_listing(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    assert main(["minors", "--instance", path]) == 0
    first = capsys.readouterr().out
    assert len(first.splitlines()) == 20
    assert first.splitlines()[0] == "x[1,1]*x[2,2] - x[1,2]*x[2,1]"
    assert main(["minors", "--instance", path]) == 0
    assert capsys.readouterr().out == first  # byte-identical across runs


def test_minors_listing_digest_largest_box(tmp_path, capsys):
    # 16x16 box with hole (1,1)-(2,2): 17,596 minors.  SHA-256 of stdout
    # recorded before the minors were built from one variable per vertex
    # and written in one piece.
    path = write_instance(tmp_path, ((0, 0), (16, 16), (1, 1), (2, 2)))
    assert main(["minors", "--instance", path]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 17596
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2d4f94192e6846188de564c0c1a9c2eeff6a5f94275b5587603bb8d269d2307a")


def test_toric_listing_balanced(tmp_path, capsys):
    from polytoric.grid import RectDiffConfig

    path = write_instance(tmp_path, SMALL)
    assert main(["toric", "--instance", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20
    lm = build_label_map(RectDiffConfig.of(*SMALL))
    first = parse_binomial(lines[0])
    assert phi_image(first.plus, lm) == phi_image(first.minus, lm)


def test_toric_lex_listing_is_the_lex_basis_of_the_minors(tmp_path, capsys):
    from polytoric.grid import RectDiffConfig, build_rect_diff, enumerate_inner_minors

    path = write_instance(tmp_path, SMALL)
    assert main(["toric", "--instance", path, "--order", "lex"]) == 0
    minors = enumerate_inner_minors(build_rect_diff(RectDiffConfig.of(*SMALL)))
    expected = "".join(f"{g}\n" for g in buchberger(minors, LEX).elements)
    assert capsys.readouterr().out == expected


def test_verify_lex_small_exit_0(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    assert main(["verify", "--instance", path, "--order", "lex"]) == 0
    assert json.loads(capsys.readouterr().out)["ideals_equal"] is True


def test_certify_inner_minor(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    code = main(["certify", "--instance", path,
                 "x[1,1]*x[2,2] - x[1,2]*x[2,1]"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "EXPANSION OK"
    assert len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("binomial, digest", [
    # An inner minor, and a degree-3 kernel binomial whose two sides share
    # no variable.  SHA-256 of stdout recorded before Monomial merged
    # repeated variables and the engine built its certificates in one place.
    ("x[1,1]*x[2,2] - x[1,2]*x[2,1]",
     "d3b6d43c31a297e5788bc986610b2768acc444c73758cb9c55e8895d2d86f50d"),
    ("x[1,1]*x[2,3]*x[3,2] - x[1,3]*x[2,2]*x[3,1]",
     "3dc7647dd96fd34afafde6ec211f3b11a47912d4686a7e5ccd8df36253ac5da8"),
], ids=["inner_minor", "degree_3"])
def test_certify_stdout_digest(tmp_path, capsys, binomial, digest):
    path = write_instance(tmp_path, MEDIUM_A)
    assert main(["certify", "--instance", path, binomial]) == 0
    out = capsys.readouterr().out
    assert out.endswith("EXPANSION OK\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_certify_not_in_kernel(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    code = main(["certify", "--instance", path,
                 "x[1,1]*x[4,4] - x[1,4]*x[4,1]"])
    assert code == 1
    assert "NOT IN KERNEL" in capsys.readouterr().out


def test_certify_garbage_exit_2(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    assert main(["certify", "--instance", path, "this is not a binomial"]) == 2
    assert main(["certify", "--instance", path,
                 "x[9,9]*x[1,1] - x[1,9]*x[9,1]"]) == 2


@pytest.mark.parametrize("power", [2100, 40000])  # both past the degree cap
def test_certify_beyond_engine_scale_exit_3(tmp_path, capsys, power):
    path = write_instance(tmp_path, SMALL)
    binomial = (f"x[1,1]^{power}*x[2,2]^{power} - "
                f"x[1,2]^{power}*x[2,1]^{power}")
    assert main(["certify", "--instance", path, binomial]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_oracle_small(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    assert main(["oracle", "--instance", path]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 4
    assert "FAIL" not in out


def _oracle_sweep():
    """The 16 sweep configurations.  The nine 4x4 ones take about
    0.4-1.2 s each and are marked slow."""
    for coords in sweep_configs():
        marks = [pytest.mark.slow] if coords[1] == (4, 4) else []
        yield pytest.param(coords, marks=marks, id=str(coords))


@pytest.mark.parametrize("coords", list(_oracle_sweep()))
def test_oracle_sweep_exit_0(tmp_path, capsys, coords):
    path = write_instance(tmp_path, coords)
    assert main(["oracle", "--instance", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith("ok ") for line in lines)


def test_oracle_budget_exit_3(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    assert main(["oracle", "--instance", path, "--budget", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: budget exceeded in stage toric_generators")
    assert len(captured.err.splitlines()) == 1
    assert "FAIL" not in captured.out


@pytest.mark.parametrize("command", ["toric", "verify", "oracle"])
def test_negative_budget_exit_2(tmp_path, capsys, command):
    path = write_instance(tmp_path, SMALL)
    assert main([command, "--instance", path, "--budget", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --budget must be 0 or more, not -5\n"
    assert captured.out == ""


def assert_budget_boundary(tmp_path, capsys, monkeypatch, expected):
    """--budget caps the S-pair reductions of each Buchberger run, so the
    smallest budget that passes is the largest run's count, ``expected``
    on SMALL."""
    path = write_instance(tmp_path, SMALL)
    runs = spairs_per_step(monkeypatch, lambda: main(["toric", "--instance", path]))
    k = max(map(len, runs))
    assert k == expected
    full = capsys.readouterr().out
    assert main(["toric", "--instance", path, "--budget", str(k)]) == 0
    assert capsys.readouterr().out == full
    assert main(["toric", "--instance", path, "--budget", str(k - 1)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: S-pair reduction budget of {k - 1} exceeded\n"
    assert captured.out == ""


def test_toric_budget_boundary(tmp_path, capsys, monkeypatch):
    # 142 from ``lattice_kernel``'s basis alone, the start before the
    # quadratic kernel binomials joined it, patched in.
    monkeypatch.setattr(cli, "toric_generators",
                        lambda lm, order, budget: lattice_toric_basis(lm, budget))
    assert_budget_boundary(tmp_path, capsys, monkeypatch, 142)


def test_toric_budget_boundary_with_quadrics(tmp_path, capsys, monkeypatch):
    # ``toric_generators``' own start: 63 once the full saturation steps
    # dropped the pairs that the Hilbert series proves zero, which no
    # budget counts.
    assert_budget_boundary(tmp_path, capsys, monkeypatch, 63)


def test_toric_budget_boundary_with_quadrics_unpruned(tmp_path, capsys, monkeypatch):
    # 75 with the pruning patched out, as recorded when the quadratic
    # kernel binomials joined the start.
    without_pruning(monkeypatch)
    assert_budget_boundary(tmp_path, capsys, monkeypatch, 75)


@pytest.mark.parametrize("args, message", [
    (["toric", "--instance", "{path}", "--budget", "abc"],
     "argument --budget: invalid int value: 'abc'"),
    (["toric", "--instance", "{path}", "--order", "grevlex"],
     "argument --order: invalid choice: 'grevlex'"),
    (["verify", "--instance", "{path}", "--order", "grevlex"],
     "argument --order: invalid choice: 'grevlex'"),
    (["toric", "--budget", "5"], "the following arguments are required: --instance"),
    (["toric", "--instance", "{path}", "--verbose"], "unrecognized arguments: --verbose"),
    (["prove", "--instance", "{path}"], "argument command: invalid choice: 'prove'"),
    ([], "the following arguments are required: command"),
], ids=["bad_budget", "bad_order_toric", "bad_order_verify", "missing_instance",
        "unknown_option", "unknown_command", "no_command"])
def test_bad_arguments_exit_2_on_one_line(tmp_path, capsys, args, message):
    path = write_instance(tmp_path, SMALL)
    assert main([a.format(path=path) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("args", [["--help"], ["toric", "--help"]])
def test_help_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: polytoric")


def test_bad_budget_from_the_command_line(tmp_path):
    path = write_instance(tmp_path, SMALL)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "polytoric.cli", "toric", "--instance", path,
         "--budget", "abc"],
        capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 2
    assert done.stderr == "error: argument --budget: invalid int value: 'abc'\n"
    assert done.stdout == ""
