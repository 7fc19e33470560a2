import json

import pytest
from conftest import FRAME_7X5, SMALL

from polytoric.binom import parse_binomial
from polytoric.cli import instance_from_dict, load_instance, main
from polytoric.errors import ParseError
from polytoric.labelling import build_label_map, label_map_from_json_dict
from polytoric.toric import phi_image_from_labels


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


def test_toric_listing_balanced(tmp_path, capsys):
    from polytoric.grid import RectDiffConfig

    path = write_instance(tmp_path, SMALL)
    assert main(["toric", "--instance", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20
    lm = build_label_map(RectDiffConfig.of(*SMALL))
    first = parse_binomial(lines[0])
    assert phi_image_from_labels(first.plus, lm) == phi_image_from_labels(first.minus, lm)


def test_certify_inner_minor(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    code = main(["certify", "--instance", path,
                 "x[1,1]*x[2,2] - x[1,2]*x[2,1]"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "EXPANSION OK"
    assert len(out.strip().splitlines()) == 2


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


def test_oracle_budget_exit_3(tmp_path, capsys):
    path = write_instance(tmp_path, SMALL)
    assert main(["oracle", "--instance", path, "--budget", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: budget exceeded in stage toric_generators")
    assert len(captured.err.splitlines()) == 1
    assert "FAIL" not in captured.out
