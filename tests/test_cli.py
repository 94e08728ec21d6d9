import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import wph.cli
import wph.symmetry
from wph.cli import _write_json, main


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

    @pytest.mark.parametrize(
        "weights, degree", [("36,31,30,25", "180"), ("1,1,3", "5")]
    )
    def test_one_subset_scan_per_check(self, capsys, monkeypatch, weights, degree):
        calls = []
        for module in (wph.cli, wph.symmetry):
            original = module.quasismooth_exists

            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "quasismooth_exists", counted)
        code, _, err = run(capsys, "check", "--weights", weights, "--degree", degree)
        assert code == 0, err
        assert len(calls) == 1

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("monomials", 5, "'monomials' must be a list"),
            ("monomials", [5], "monomial row 0 must be a sequence of exponents"),
            ("coefficients", 5, "'coefficients' must be a list or null"),
            ("coefficients", "12", "'coefficients' must be a list or null"),
        ],
    )
    def test_wrong_json_types_rejected(self, capsys, tmp_path, field, value, message):
        data = {
            "weights": [1, 1, 1],
            "degree": 4,
            "monomials": [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
            field: value,
        }
        path = write_support(tmp_path, "types.json", data)
        code, out, err = run(capsys, "symmetry", path)
        assert code == 2
        assert out == ""
        assert message in err

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


class TestIntegerFlags:
    """Integer flags and --weights take optionally signed ASCII digits only."""

    @pytest.mark.parametrize(
        "weights, token",
        [
            ("3_6,31,30,25", "'3_6'"),
            ("36,,31,30,25", "''"),
            ("36,31,30,25,", "''"),
            ("36, 31,30,25", "' 31'"),
            ("\uff13\uff16,31,30,25", "'\uff13\uff16'"),
            ("36,31,30,0x19", "'0x19'"),
            ("a,b", "'a'"),
        ],
    )
    def test_weights(self, capsys, weights, token):
        for command in ("check", "bound"):
            code, out, err = run(capsys, command, "--weights", weights, "--degree", "180")
            assert code == 2
            assert out == ""
            assert f"entry {token} is not an integer" in err

    @pytest.mark.parametrize(
        "argv, flag, token",
        [
            (["check", "--weights", "36,31,30,25", "--degree", "1_80"], "--degree", "1_80"),
            (["bound", "--weights", "36,31,30,25", "--degree", "180 "], "--degree", "180 "),
            (["fermat", "--dim", "\u0662", "--degree", "4"], "--dim", "\u0662"),
            (["fermat", "--dim", "2", "--degree", "4.0"], "--degree", "4.0"),
            (["enumerate", "--dim", "1", "--max-degree", " 1_2"], "--max-degree", " 1_2"),
            (["enumerate", "--dim", "1", "--max-weight", "1e3"], "--max-weight", "1e3"),
            (["enumerate", "--dim", "one"], "--dim", "one"),
            (["enumerate", "--dim", "1", "--max-candidates", "1_000"], "--max-candidates", "1_000"),
        ],
    )
    def test_flags(self, capsys, argv, flag, token):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: must be an integer" in err
        assert repr(token) in err

    def test_signs_and_leading_zeros_still_parse(self, capsys):
        plain = run(capsys, "bound", "--weights", "36,31,30,25", "--degree", "180")
        signed = run(capsys, "bound", "--weights", "+36,031,30,25", "--degree", "+0180")
        assert plain[0] == 0 and signed == plain
        code, _, err = run(capsys, "check", "--weights", "36,-31,30,25", "--degree", "180")
        assert code == 2 and "weights must be positive" in err


def _indented(value) -> str:
    buf = io.StringIO()
    _write_json(value, buf.write)
    return buf.getvalue()


_ints = st.integers(min_value=-(2**80), max_value=2**80)
_text = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\t\r", "\u00e9\u6f22\U0001f600", ""]),
)
_scalars = st.one_of(st.none(), st.booleans(), _ints, _text, st.floats(allow_nan=False))
_matrices = st.lists(
    st.one_of(
        st.lists(_ints, min_size=1, max_size=5),
        st.lists(_ints, min_size=1, max_size=5).map(tuple),
        st.lists(st.one_of(_ints, st.booleans()), min_size=1, max_size=5),
    ),
    min_size=1,
    max_size=6,
)
_values = st.recursive(
    st.one_of(_scalars, _matrices),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=30,
)


class TestIndentedWriter:
    """``_write_json`` writes what ``json.dumps(indent=2, sort_keys=True)`` does."""

    @settings(max_examples=200)
    @given(_values)
    def test_matches_json_dumps(self, value):
        assert _indented(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2048, 2049, 3000])
    def test_large_matrices_across_blocks(self, rows):
        matrix = [[(i * 7 + j) % 11 - 3 for j in range(1 + i % 4)] for i in range(rows)]
        for value in (matrix, tuple(map(tuple, matrix)), {"m": matrix, "n": [matrix, 5]}):
            assert _indented(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_matrix_with_bools_and_empty_rows(self):
        for value in ([[1, True], [0]], [[1], []], [[2**70, -(2**70)]], [[]], [[1.5, 2]]):
            assert _indented(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_non_string_keys_fall_back(self):
        value = {"a": {1: [1, 2], 2: None}, "b": {None: 1}}
        assert _indented(value) == json.dumps(value, indent=2, sort_keys=True)
