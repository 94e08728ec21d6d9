import json

import pytest

from wph.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    payload = json.loads(out)
    # emitted JSON must round-trip byte for byte
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out
    return payload


def write_support(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


KLEIN = {
    "weights": [1, 1, 1],
    "degree": 4,
    "monomials": [[1, 3, 0], [0, 1, 3], [3, 0, 1]],
}


class TestCheck:
    def test_flagship_json(self, capsys):
        payload = run_json(
            capsys, "check", "--weights", "36,31,30,25", "--degree", "180"
        )
        assert payload["well_formed"]["holds"] is True
        assert payload["quasismooth"]["exists"] is True
        assert payload["finiteness"]["finite"] is True
        assert payload["genericity"]["holds"] is True
        assert payload["forced_central_group"]["order"] == 5
        assert payload["order_bound"]["floor"] == 6
        assert payload["order_bound"]["exact"] == "216/31"

    def test_flagship_text(self, capsys):
        code, out, err = run(
            capsys, "check", "--weights", "36,31,30,25", "--degree", "180"
        )
        assert code == 0
        assert "well-formed: yes" in out
        assert "forced central subgroup: order 5" in out
        assert "floor 6" in out

    def test_non_well_formed(self, capsys):
        payload = run_json(capsys, "check", "--weights", "2,2,2,2,2", "--degree", "4")
        assert payload["well_formed"]["holds"] is False
        assert len(payload["well_formed"]["failures"]) == 5
        code, out, _ = run(capsys, "check", "--weights", "2,2,2,2,2", "--degree", "4")
        assert code == 0 and "well-formed: no" in out

    def test_quasismooth_failure_diagnostics(self, capsys):
        payload = run_json(capsys, "check", "--weights", "1,1,3", "--degree", "5")
        assert payload["quasismooth"]["exists"] is False
        subsets = [tuple(s["subset"]) for s in payload["quasismooth"]["failing_subsets"]]
        assert (0,) in subsets

    def test_bound_unavailable_without_table_entry(self, capsys):
        payload = run_json(capsys, "check", "--weights", "1,1,1,1", "--degree", "5")
        assert "unavailable" in payload["order_bound"]

    def test_malformed_weights(self, capsys):
        code, out, err = run(capsys, "check", "--weights", "a,b", "--degree", "4")
        assert code == 2
        assert "error" in err

    def test_zero_degree(self, capsys):
        code, _, err = run(capsys, "check", "--weights", "1,1", "--degree", "0")
        assert code == 2


class TestSymmetry:
    def test_klein(self, capsys, tmp_path):
        path = write_support(tmp_path, "klein.json", KLEIN)
        payload = run_json(capsys, "symmetry", path)
        assert payload["fixing_group"]["order"] == 28
        assert payload["lin_diagonal"]["order"] == 7
        minor = payload["distinguished_minor"]
        assert minor["determinant"] == 28
        assert minor["bound"] == "64"
        assert minor["bound_holds"] is True

    def test_klein_text(self, capsys, tmp_path):
        path = write_support(tmp_path, "klein.json", KLEIN)
        code, out, _ = run(capsys, "symmetry", path)
        assert code == 0
        assert "order 28" in out
        assert "modulo scalars: order 7" in out
        assert "det(B) = 28 <= 64: yes" in out

    def test_fermat_cubic_threefold(self, capsys, tmp_path):
        payload_file = {
            "weights": [1, 1, 1, 1],
            "degree": 3,
            "monomials": [
                [3, 0, 0, 0],
                [0, 3, 0, 0],
                [0, 0, 3, 0],
                [0, 0, 0, 3],
            ],
        }
        path = write_support(tmp_path, "fermat.json", payload_file)
        payload = run_json(capsys, "symmetry", path)
        assert payload["lin_diagonal"]["order"] == 27
        assert payload["distinguished_minor"]["determinant"] == 81

    def test_rank_deficient(self, capsys, tmp_path):
        path = write_support(
            tmp_path,
            "cone.json",
            {"weights": [1, 1], "degree": 2, "monomials": [[1, 1]]},
        )
        code, out, _ = run(capsys, "symmetry", path)
        assert code == 0
        assert "infinite diagonal symmetry, free rank 1" in out

    def test_degree_mismatch_names_row(self, capsys, tmp_path):
        path = write_support(
            tmp_path,
            "bad.json",
            {"weights": [1, 1, 1], "degree": 4, "monomials": [[4, 0, 0], [1, 1, 1]]},
        )
        code, _, err = run(capsys, "symmetry", path)
        assert code == 2
        assert "row 1" in err

    def test_coefficients_trigger_euler_selftest(self, capsys, tmp_path):
        data = dict(KLEIN)
        data["coefficients"] = ["1", "-2/3", "7"]
        path = write_support(tmp_path, "klein_coeffs.json", data)
        payload = run_json(capsys, "symmetry", path)
        assert payload["euler_identity"] is True

    def test_bool_weights_rejected(self, capsys, tmp_path):
        data = {
            "weights": [True, True, True],
            "degree": 4,
            "monomials": [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
        }
        path = write_support(tmp_path, "bools.json", data)
        code, out, err = run(capsys, "symmetry", path)
        assert code == 2
        assert out == ""
        assert "weight must be an integer, got True" in err

    def test_missing_field(self, capsys, tmp_path):
        path = write_support(tmp_path, "nofield.json", {"weights": [1, 1]})
        code, _, err = run(capsys, "symmetry", path)
        assert code == 2
        assert "degree" in err


class TestEnumerate:
    def test_elliptic_lines(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "30"
        )
        assert code == 0
        assert out.splitlines() == ["3 : 1,1,1", "4 : 2,1,1", "6 : 3,2,1"]

    def test_empty_is_success(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "2"
        )
        assert code == 0
        assert out == ""

    def test_json_payload_is_array(self, capsys):
        payload = run_json(
            capsys, "enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "30"
        )
        assert payload == [
            {"degree": 3, "weights": [1, 1, 1]},
            {"degree": 4, "weights": [2, 1, 1]},
            {"degree": 6, "weights": [3, 2, 1]},
        ]

    def test_resource_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "enumerate",
            "--dim",
            "2",
            "--canonical",
            "cy",
            "--max-degree",
            "300",
            "--max-candidates",
            "50",
        )
        assert code == 3
        assert "cap" in err


class TestFermat:
    def test_surface_quartic(self, capsys):
        payload = run_json(capsys, "fermat", "--dim", "2", "--degree", "4")
        assert payload["total"] == 1536
        assert payload["diagonal_part"] == 64
        assert payload["diagonal_cross_check"]["matches"] is True

    def test_text_cross_check(self, capsys):
        code, out, _ = run(capsys, "fermat", "--dim", "1", "--degree", "4")
        assert code == 0
        assert "= 96" in out and "= 16" in out and "cross-check pass" in out

    def test_degree_too_small(self, capsys):
        code, _, err = run(capsys, "fermat", "--dim", "1", "--degree", "2")
        assert code == 2


class TestBound:
    def test_flagship(self, capsys):
        payload = run_json(capsys, "bound", "--weights", "36,31,30,25", "--degree", "180")
        assert payload["order_bound"]["floor"] == 6
        assert payload["factorial_hypothesis_bound"]["floor"] == 167
    def test_curve_includes_curve_bound(self, capsys):
        payload = run_json(capsys, "bound", "--weights", "3,1,1", "--degree", "6")
        assert payload["order_bound"]["exact"] == "144"
        assert payload["curve_bound"]["exact"] == "72"
        assert payload["curve_bound"]["exceptions"] == []

    def test_klein_family_exception_listed(self, capsys):
        payload = run_json(capsys, "bound", "--weights", "1,1,1", "--degree", "4")
        assert payload["curve_bound"]["exceptions"][0]["order"] == 168

    def test_infinite_family(self, capsys):
        payload = run_json(capsys, "bound", "--weights", "2,2,1,1", "--degree", "4")
        assert payload["finiteness"]["finite"] is False
        assert "order_bound" not in payload

    def test_missing_table_entry_reported(self, capsys):
        payload = run_json(capsys, "bound", "--weights", "1,1,1,1,1", "--degree", "12")
        assert "unavailable" in payload["order_bound"]
        assert "GL_5" in payload["order_bound"]["unavailable"]
        # the table-free bounds are still present
        assert payload["factorial_hypothesis_bound"]["floor"] == 120 * 12**4


class TestJordanTableFlag:
    TABLE = "3 360 small-dimension value\n4 25920 small-dimension value\n"

    def test_flag(self, capsys, tmp_path):
        path = tmp_path / "jordan.txt"
        path.write_text(self.TABLE, encoding="utf-8")
        payload = run_json(
            capsys,
            "bound",
            "--weights",
            "1,1,1",
            "--degree",
            "5",
            "--jordan-table",
            str(path),
        )
        # weak Jordan 360, bound 360 * 25
        assert payload["order_bound"]["exact"] == "9000"

    def test_environment_variable(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "jordan.txt"
        path.write_text(self.TABLE, encoding="utf-8")
        monkeypatch.setenv("WPH_JORDAN_TABLE", str(path))
        payload = run_json(capsys, "bound", "--weights", "1,1,1", "--degree", "5")
        assert payload["order_bound"]["exact"] == "9000"

    def test_flag_beats_environment(self, capsys, tmp_path, monkeypatch):
        env_path = tmp_path / "env.txt"
        env_path.write_text("3 100 env table\n", encoding="utf-8")
        flag_path = tmp_path / "flag.txt"
        flag_path.write_text("3 360 flag table\n", encoding="utf-8")
        monkeypatch.setenv("WPH_JORDAN_TABLE", str(env_path))
        payload = run_json(
            capsys,
            "bound",
            "--weights",
            "1,1,1",
            "--degree",
            "5",
            "--jordan-table",
            str(flag_path),
        )
        assert payload["order_bound"]["exact"] == "9000"


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["check", "--nope"]) == 2

    @pytest.mark.parametrize("value", ["0", "-5", "many"])
    def test_max_candidates_must_be_positive(self, capsys, value):
        for argv in (
            ["check", "--weights", "36,31,30,25", "--degree", "180"],
            ["enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "30"],
        ):
            code, out, err = run(capsys, *argv, "--max-candidates", value)
            assert code == 2
            assert out == ""
            assert "--max-candidates" in err
