import functools
import io
import json


import pytest
from hypothesis import given, settings, strategies as st


import wph.cli
import wph.monomials
import wph.symmetry
from wph.cli import _write_json, main
from wph.errors import InvariantViolationError


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

    def test_forced_group_over_the_row_cap_is_unavailable(self, capsys, monkeypatch):
        # The flagship piece (4 monomials, forced order 5) never spans the
        # degree lattice, so a cap of 3 rows read is exceeded.
        capped = functools.partial(wph.symmetry._forced_central_group, monomial_cap=3)
        monkeypatch.setattr(wph.cli, "_forced_central_group", capped)
        payload = run_json(capsys, "check", "--weights", "36,31,30,25", "--degree", "180")
        assert payload["forced_central_group"] == {
            "unavailable": "graded piece has more than 3 monomials"
        }

    def test_malformed_weights(self, capsys):
        code, out, err = run(capsys, "check", "--weights", "a,b", "--degree", "4")
        assert code == 2
        assert "error" in err

    def test_zero_degree(self, capsys):
        code, _, err = run(capsys, "check", "--weights", "1,1", "--degree", "0")
        assert code == 2

    def test_long_degree_over_the_target_cap(self, capsys):
        code, out, err = run(capsys, "check", "--weights", "7,5,3", "--degree", "9" * 2200)
        assert code == 3 and out == ""
        assert err == (
            "resource cap exceeded: representability target of 2200 digits exceeds cap 10000000\n"
        )
        assert len(err) < 200


class TestSymmetry:
    def test_witness_rows_found_once(self, capsys, tmp_path, monkeypatch):
        """The support is scanned for witness shape once, when it is built.

        After that the fixing group's fold is the one pass over every row;
        the existence check and the minor read only the stored sparse rows.
        """
        built, passes = [], []

        class CountedRows(tuple):
            def __iter__(self):
                passes.append(len(self))
                return super().__iter__()

        post_init = wph.monomials.PolynomialSupport.__post_init__

        def counted(support):
            post_init(support)
            built.append(support)
            object.__setattr__(support, "rows", CountedRows(support.rows))

        monkeypatch.setattr(wph.monomials.PolynomialSupport, "__post_init__", counted)
        path = write_support(tmp_path, "klein.json", KLEIN)
        code, out, _ = run(capsys, "symmetry", path)
        assert code == 0
        assert "per-variable monomial existence: pass" in out
        assert "det(B) = 28 <= 64: yes" in out
        assert len(built) == 1
        assert passes == [3]

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

    def test_json_integer_coefficients(self, capsys, tmp_path):
        path = write_support(tmp_path, "ints.json", dict(KLEIN, coefficients=[1, -2, 7]))
        assert run_json(capsys, "symmetry", path)["euler_identity"] is True

    def test_coefficients_do_not_check_the_rows_again(self, capsys, tmp_path, monkeypatch):
        # The support checks its rows; the polynomial built from it does not.
        real = wph.monomials._checked_rows
        passes = []

        def counted(rows, weights, degree):
            passes.append(len(rows))
            return real(rows, weights, degree)

        monkeypatch.setattr(wph.monomials, "_checked_rows", counted)
        path = write_support(tmp_path, "c.json", dict(KLEIN, coefficients=["1", "-2/3", "7"]))
        assert run_json(capsys, "symmetry", path)["euler_identity"] is True
        assert passes == [3]

    @pytest.mark.parametrize(
        "coefficient, message",
        [
            (" -2/3 ", "coefficient 1: ' -2' is not an integer"),
            ("1.5", "coefficient 1: '1.5' is not an integer"),
            ("1e3", "coefficient 1: '1e3' is not an integer"),
            ("1_000", "coefficient 1: '1_000' is not an integer"),
            ("٣", "coefficient 1: '٣' is not an integer"),
            ("1/0", "coefficient 1: '1/0' has a zero denominator"),
            ("1/" + "7" * 5000, "integer too long to read (more than 4300 digits)"),
            (0.1, "coefficient 1 must be an integer, a Fraction or text 'p/q', got 0.1"),
            (True, "coefficient 1 must be an integer, a Fraction or text 'p/q', got True"),
        ],
    )
    def test_inexact_coefficients_rejected(self, capsys, tmp_path, coefficient, message):
        data = dict(KLEIN, coefficients=["1", coefficient, "7"])
        code, out, err = run(capsys, "symmetry", write_support(tmp_path, "c.json", data))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

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

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"weights": [1,1,1], "degree": 3, "monomials": [[3,0,0]], "weights": [2,2,2]}',
             "weights"),
            ('{"weights": [1,1,1], "degree": 3, "monomials": [[3,0,0]], '
             '"coefficients": [{"p": 1, "p": 2}]}', "p"),
        ],
    )
    def test_repeated_keys_rejected(self, capsys, tmp_path, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "symmetry", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: support file repeats the key {key!r}\n"

    @pytest.mark.parametrize("weights", ["111", 1, {"a": 1}, None])
    def test_weights_must_be_a_list(self, capsys, tmp_path, weights):
        data = {"weights": weights, "degree": 3, "monomials": [[3, 0, 0]]}
        code, out, err = run(capsys, "symmetry", write_support(tmp_path, "w.json", data))
        assert (code, out) == (2, "")
        assert err == "error: support file field 'weights' must be a list of integers\n"


class TestEnumerate:
    def test_empty_is_success(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "2"
        )
        assert code == 0
        assert out == ""

    def test_k3_census_saturates(self, capsys):
        """The README's saturation recipe: the K3 census at degree 300 and
        at 400 print the same 95 lines."""
        runs = [
            run(capsys, "enumerate", "--dim", "2", "--canonical", "cy", "--max-degree", top)
            for top in ("300", "400")
        ]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 95


class TestBound:
    def test_curve_includes_curve_bound(self, capsys):
        payload = run_json(capsys, "bound", "--weights", "3,1,1", "--degree", "6")
        assert payload["order_bound"]["exact"] == "144"
        assert payload["curve_bound"]["exact"] == "72"
        assert payload["curve_bound"]["exceptions"] == []


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

    def test_table_tokens_follow_the_integer_flag_rule(self, capsys, tmp_path):
        path = tmp_path / "jordan.txt"
        path.write_text("3 360 ok\n1_0 7 underscored key\n", encoding="utf-8")
        code, out, err = run(
            capsys, "bound", "--weights", "1,1,1", "--degree", "5", "--jordan-table", str(path)
        )
        assert code == 2 and out == ""
        assert "Jordan table line 2: '1_0' is not an integer" in err

    def test_table_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "jordan.txt"
        path.write_bytes(b"3 360 caf\xe9\n")
        code, out, err = run(
            capsys, "bound", "--weights", "1,1,1", "--degree", "5", "--jordan-table", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read Jordan table {path}: 'utf-8' codec")


class TestUsage:
    @pytest.mark.parametrize("value", ["0", "-5", "many"])
    def test_max_candidates_must_be_positive(self, capsys, value):
        code, out, err = run(
            capsys,
            "enumerate", "--dim", "1", "--canonical", "cy", "--max-degree", "30",
            "--max-candidates", value,
        )
        assert code == 2
        assert out == ""
        assert "--max-candidates" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["symmetry", "support.json", "--jordan-table", "table.txt"],
            ["fermat", "--dim", "1", "--degree", "4", "--jordan-table", "table.txt"],
            ["enumerate", "--dim", "1", "--jordan-table", "table.txt"],
            ["check", "--weights", "1,1,1", "--degree", "4", "--max-candidates", "5"],
            ["symmetry", "support.json", "--max-candidates", "5"],
            ["fermat", "--dim", "1", "--degree", "4", "--max-candidates", "5"],
            ["bound", "--weights", "1,1,1", "--degree", "4", "--max-candidates", "5"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_flags_only_where_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {argv[-2]}" in err

    @pytest.mark.parametrize(
        "layer, argv",
        [
            ("quasismooth_exists", ["check", "--weights", "1,1,1", "--degree", "4", "--json"]),
            ("lin_finiteness", ["bound", "--weights", "1,1,1", "--degree", "4"]),
            ("enumerate_families", ["enumerate", "--dim", "1", "--json"]),
        ],
    )
    def test_out_of_memory_is_exit_3(self, capsys, monkeypatch, layer, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(wph.cli, layer, exhausted)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "resource cap exceeded: out of memory\n")

    def test_internal_error_is_reported_and_raised(self, capsys, monkeypatch):
        def broken(fam):
            raise InvariantViolationError("finiteness went wrong")

        monkeypatch.setattr(wph.cli, "lin_finiteness", broken)
        with pytest.raises(InvariantViolationError):
            main(["bound", "--weights", "1,1,1", "--degree", "4"])
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "internal error: finiteness went wrong\n")


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

    def test_digits_past_the_conversion_limit(self, capsys):
        huge = "9" * 5000  # more digits than int() converts from text
        too_long = "integer too long to read (more than 4300 digits)"
        code, out, err = run(capsys, "check", "--weights", "1,1,1", "--degree", huge)
        assert (code, out) == (2, "")
        assert err.startswith("usage: wph check")
        assert err.endswith(f"argument --degree: {too_long}\n")
        code, out, err = run(capsys, "enumerate", "--dim", "1", "--max-candidates", huge)
        assert (code, out) == (2, "")
        assert err.endswith(f"argument --max-candidates: {too_long}\n")
        code, out, err = run(capsys, "bound", "--weights", f"{huge},1,1", "--degree", "4")
        assert (code, out, err) == (2, "", f"error: {too_long}\n")

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


class _SubInt(int):
    pass


class _SubStr(str):
    pass


# Exact ints, strs, bools and None take the writer's fast path; int and str
# subclasses and floats, infinite ones included, take the json.dumps fallback.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _text,
    st.floats(allow_nan=False),
    st.sampled_from([float("inf"), float("-inf")]),
    _ints.map(_SubInt),
    _text.map(_SubStr),
)
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
        st.dictionaries(st.one_of(_text, _text.map(_SubStr)), children, max_size=4),
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

    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("width", range(1, 25))
    def test_uniform_widths(self, rows, width):
        matrix = [[(i * 31 + j * 7) % 23 - 5 for j in range(width)] for i in range(rows)]
        for value in (matrix, tuple(map(tuple, matrix))):
            assert _indented(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "defect", [[1, 2], [], [1, True, 0], [1, _SubInt(2), 0], (1, 2, 3, 4), "abc", 7]
    )
    def test_only_the_defective_block_falls_back(self, defect, monkeypatch):
        matrix = [[i % 5, -(2**70) - i, 2**64 + i] for i in range(3000)]
        matrix[1500] = defect
        real = wph.cli._write_json
        rows_walked = []

        def counted(value, write, indent=""):
            if indent == "  ":
                rows_walked.append(value)
            real(value, write, indent)

        monkeypatch.setattr(wph.cli, "_write_json", counted)
        for value in (matrix, tuple(map(tuple, matrix[:1500])) + (defect,) + tuple(matrix[1501:])):
            rows_walked.clear()
            assert _indented(value) == json.dumps(value, indent=2, sort_keys=True)
            # Rows 1024-2047 are the second block: only it is written row by row.
            assert rows_walked == list(value[1024:2048])
