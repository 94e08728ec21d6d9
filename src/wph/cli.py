"""Command-line interface: check, symmetry, enumerate, fermat, bound."""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from math import factorial
from pathlib import Path

from .bounds import (
    Finiteness,
    JordanTable,
    _format_value,
    curve_bound,
    lin_finiteness,
    lin_order_bound,
)
from .census import DEFAULT_CANDIDATE_CAP, SearchConstraints, enumerate_families
from .errors import (
    MissingJordanEntryError,
    ResourceCapError,
    ValidationError,
    WphError,
)
from .monomials import (
    PolynomialSupport,
    WeightedPolynomial,
    euler_check,
    monomial_existence_check,
)
from .quasismooth import quasismooth_exists
from .symmetry import (
    _forced_central_group,
    _order_modulo_scalars,
    distinguished_minor,
    fermat_prediction,
    fermat_support,
    fixing_group,
    lin_diagonal_order,
)
from .weights import (
    CanonicalKind,
    HypersurfaceFamily,
    LinearityVerdict,
    WeightSystem,
    aut_equals_lin,
    canonical_class,
    genericity_condition,
    well_formedness_failures,
)

JORDAN_TABLE_ENV = "WPH_JORDAN_TABLE"

_FINITENESS_TAGS = {
    Finiteness.DEG_ABOVE_TWICE_MAX: "finite: degree exceeds twice the maximal weight",
    Finiteness.DEG_TWICE_UNIQUE_MAX: (
        "finite: degree equals twice the unique maximal weight"
    ),
    Finiteness.INFINITE: (
        "infinite: degree below twice the maximal weight, or equal to it with "
        "the maximum repeated; the hypersurface is rational"
    ),
}

_LINEARITY_TAGS = {
    LinearityVerdict.ALL_LINEAR: (
        "all automorphisms extend to the ambient space "
        "(n >= 3, or n = 2 with nontrivial canonical class)"
    ),
    LinearityVerdict.MAYBE_NON_LINEAR: (
        "K3 range (n = 2 with trivial canonical class); "
        "non-linear automorphisms possible"
    ),
    LinearityVerdict.OUT_OF_RANGE: "criterion does not apply for n <= 1",
}


_PLAIN_INT = re.compile(r"[+-]?[0-9]+")


def _plain_int(text: str) -> int | None:
    """The value of an optionally signed run of ASCII digits, else None.

    ``int`` alone would also take underscores, surrounding blanks and
    non-ASCII digits.
    """
    if not _PLAIN_INT.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        return None


def _parse_weights(text: str) -> WeightSystem:
    parts = []
    for tok in text.split(","):
        value = _plain_int(tok)
        if value is None:
            raise ValidationError(
                f"could not parse weights {text!r}: entry {tok!r} is not an integer"
            )
        parts.append(value)
    return WeightSystem(parts)


def _load_table(args) -> JordanTable:
    path = getattr(args, "jordan_table", None) or os.environ.get(JORDAN_TABLE_ENV)
    if path:
        return JordanTable.load(path)
    return JordanTable.default()


#: Rows of an integer matrix encoded at a time by :func:`_write_json`.
_MATRIX_BLOCK_ROWS = 1024


def _is_int_matrix(rows) -> bool:
    """Are the non-empty ``rows`` non-empty lists or tuples of exact ints?"""
    return (
        set(map(type, rows)) <= {list, tuple}
        and min(map(len, rows)) > 0
        and set(map(type, chain.from_iterable(rows))) == {int}
    )


def _write_json(value, write, indent: str = "") -> None:
    """Write ``value`` as ``json.dump(value, fp, indent=2, sort_keys=True)`` does.

    With an indent the json module encodes element by element in Python.
    Here dicts with string keys and non-empty lists recurse, and everything
    else is one ``json.dumps`` call. An integer matrix, such as the support
    echo, is encoded compactly by the C encoder in blocks of rows and then
    re-indented by string replacement, which is exact because the compact
    text holds nothing but digits, minus signs, commas and brackets.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = "{\n" + inner
        for key in sorted(value):
            write(sep + json.dumps(key) + ": ")
            _write_json(value[key], write, inner)
            sep = ",\n" + inner
        write("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "[\n" + inner
        if _is_int_matrix(value):
            entry = inner + "  "
            entry_sep = ",\n" + entry
            row_sep = "]" + entry_sep + "["
            indented_row_sep = "\n" + inner + "],\n" + inner + "[\n" + entry
            for start in range(0, len(value), _MATRIX_BLOCK_ROWS):
                block = json.dumps(
                    value[start : start + _MATRIX_BLOCK_ROWS], separators=(",", ":")
                )
                body = block[2:-2].replace(",", entry_sep).replace(row_sep, indented_row_sep)
                write(sep + "[\n" + entry + body + "\n" + inner + "]")
                sep = ",\n" + inner
        else:
            for item in value:
                write(sep)
                _write_json(item, write, inner)
                sep = ",\n" + inner
        write("\n" + indent + "]")
    else:
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))


def _emit(payload, args, renderer) -> None:
    if args.json:
        # The bytes of json.dump(payload, stdout, indent=2, sort_keys=True),
        # without its element-by-element Python encoder (see _write_json).
        # Written piece by piece, so a large support echo is never one string.
        _write_json(payload, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        renderer(payload)


def _group_payload(group) -> dict:
    return {
        "finite": group.finite,
        "order": group.order,
        "invariant_factors": list(group.invariant_factors),
        "free_rank": group.free_rank,
    }


def _finiteness_payload(fin) -> dict:
    return {
        "finite": fin.finite,
        "condition": _FINITENESS_TAGS[fin.reason],
        "rational_if_infinite": fin.rational_flag,
    }


def _order_bound_payload(fam: HypersurfaceFamily, table: JordanTable, finite: bool) -> dict:
    if not finite:
        return {"unavailable": "linear automorphism group is infinite"}
    try:
        bound = lin_order_bound(fam, table)
    except MissingJordanEntryError as exc:
        return {"unavailable": str(exc)}
    return {
        "weak_jordan": _format_value(bound.weak_jordan),
        "exact": _format_value(bound.exact),
        "floor": bound.floor,
    }


def build_check_report(fam: HypersurfaceFamily, table: JordanTable) -> dict:
    wf_failures = well_formedness_failures(fam.weights)
    # One scan serves both the verdict and the diagnostics: a passing family
    # visits every subset in either mode.
    qs = quasismooth_exists(fam, diagnostics=True)
    cclass = canonical_class(fam)
    linearity = aut_equals_lin(fam)
    fin = lin_finiteness(fam)

    report: dict = {
        "input": {
            "weights": list(fam.weights.original),
            "degree": fam.degree,
        },
        "canonical_weights": list(fam.weights.canonical),
        "dimension": fam.n,
        "well_formed": {
            "holds": not wf_failures,
            "failures": [
                {"omitted_index": f.omitted_index, "shared_factor": f.shared_factor}
                for f in wf_failures
            ],
        },
        "linear_cone": qs.is_linear_cone,
        "quasismooth": {
            "exists": qs.exists,
            "via_linear_cone": qs.is_linear_cone,
            "failing_subsets": [
                {
                    "subset": list(s.subset),
                    "degree_representable": s.degree_representable,
                    "outside_witnesses": list(s.outside_witnesses),
                    "required": s.required,
                }
                for s in qs.failing_subsets
            ],
        },
        "canonical_class": {"r": cclass.r, "kind": cclass.kind.value},
        "aut_equals_lin": {
            "verdict": linearity.value,
            "condition": _LINEARITY_TAGS[linearity],
        },
        "finiteness": _finiteness_payload(fin),
        "genericity": {
            "holds": genericity_condition(fam),
            "condition": "degree >= 5 * max(weights) forces central generic symmetry",
        },
        "order_bound": _order_bound_payload(fam, table, fin.finite),
    }

    if qs.exists:
        try:
            forced = _forced_central_group(fam)
            payload = _group_payload(forced)
            payload["note"] = "lower bound for the generic linear automorphism group"
            report["forced_central_group"] = payload
        except ResourceCapError as exc:
            report["forced_central_group"] = {"unavailable": str(exc)}
    else:
        report["forced_central_group"] = {
            "unavailable": "family has no quasismooth member"
        }
    return report


def _render_check(report: dict) -> None:
    inp = report["input"]
    ws = ",".join(str(a) for a in inp["weights"])
    print(f"family: degree {inp['degree']} hypersurface in P({ws})  [n = {report['dimension']}]")
    wf = report["well_formed"]
    if wf["holds"]:
        print("well-formed: yes")
    else:
        print("well-formed: no")
        for f in wf["failures"]:
            print(
                f"  weights other than index {f['omitted_index']} "
                f"(canonical order) share factor {f['shared_factor']}"
            )
    print(f"linear cone: {'yes' if report['linear_cone'] else 'no'}")
    qs = report["quasismooth"]
    if qs["exists"]:
        via = " (linear cone)" if qs["via_linear_cone"] else ""
        print(f"quasismooth member exists: yes{via}")
    else:
        print("quasismooth member exists: no")
        for s in qs["failing_subsets"]:
            print(
                f"  failing subset {s['subset']}: degree representable: "
                f"{s['degree_representable']}, outside witnesses "
                f"{s['outside_witnesses']} (need {s['required']})"
            )
    cc = report["canonical_class"]
    print(f"canonical class: r = {cc['r']} ({cc['kind']})")
    lin = report["aut_equals_lin"]
    print(f"linearity: {lin['verdict']}  [{lin['condition']}]")
    fin = report["finiteness"]
    print(f"Lin(X) finite: {'yes' if fin['finite'] else 'no'}  [{fin['condition']}]")
    ob = report["order_bound"]
    if "unavailable" in ob:
        print(f"order bound: unavailable ({ob['unavailable']})")
    else:
        print(
            f"order bound: {ob['exact']} (floor {ob['floor']}, "
            f"weak Jordan factor {ob['weak_jordan']})"
        )
    gen = report["genericity"]
    print(f"genericity condition (d >= 5*max): {'yes' if gen['holds'] else 'no'}")
    fc = report["forced_central_group"]
    if "unavailable" in fc:
        print(f"forced central subgroup: unavailable ({fc['unavailable']})")
    elif not fc["finite"]:
        print(
            f"forced central subgroup: infinite (free rank {fc['free_rank']})"
        )
    else:
        print(
            f"forced central subgroup: order {fc['order']}, invariant factors "
            f"({', '.join(str(f) for f in fc['invariant_factors'])})  "
            f"[lower bound for generic Lin(X)]"
        )


def cmd_check(args) -> int:
    fam = HypersurfaceFamily(_parse_weights(args.weights), args.degree)
    table = _load_table(args)
    report = build_check_report(fam, table)
    _emit(report, args, _render_check)
    return 0


def load_support_file(path: str | Path):
    """Parse a support file: weights, degree, monomials, optional coefficients."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read support file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"support file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("support file must contain a top-level object")
    for key in ("weights", "degree", "monomials"):
        if key not in data:
            raise ValidationError(f"support file is missing the {key!r} field")
    fam = HypersurfaceFamily(WeightSystem(data["weights"]), data["degree"])
    if not isinstance(data["monomials"], list):
        raise ValidationError("support file field 'monomials' must be a list of rows")
    support = PolynomialSupport(fam, data["monomials"])
    coefficients = data.get("coefficients")
    if coefficients is None:
        return support, None
    if not isinstance(coefficients, list):
        raise ValidationError("support file field 'coefficients' must be a list or null")
    try:
        coeffs = [Fraction(str(c)) for c in coefficients]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad coefficient in support file: {exc}") from exc
    return support, WeightedPolynomial.from_support(support, coeffs)


def build_symmetry_report(support: PolynomialSupport, poly) -> dict:
    fam = support.family
    group = fixing_group(support)
    report: dict = {
        "input": {
            "weights": list(fam.weights.original),
            "degree": fam.degree,
            "monomials": support.rows,
        },
        "fixing_group": _group_payload(group),
    }
    weights_gcd = fam.weights.gcd
    if weights_gcd != 1:
        report["lin_diagonal"] = {
            "unavailable": f"weights share the common factor {weights_gcd}"
        }
    elif not group.finite:
        report["lin_diagonal"] = {"order": None, "finite": False}
    else:
        report["lin_diagonal"] = {
            "order": _order_modulo_scalars(group, fam.degree),
            "finite": True,
        }
    existence = monomial_existence_check(support)
    report["monomial_existence"] = {
        "passed": existence.passed,
        "failing_variables": list(existence.failing_variables),
    }
    if existence.passed:
        minor = distinguished_minor(support)
        numerator = fam.degree ** len(fam.weights)
        cap = Fraction(numerator, fam.weight_product)
        report["distinguished_minor"] = {
            "rows": [list(minor.B.row(i)) for i in range(minor.B.rows)],
            "witnesses": [
                {
                    "variable": ch.variable,
                    "exponent": ch.exponent,
                    "companion": ch.companion,
                }
                for ch in minor.chosen_rows
            ],
            "determinant": minor.determinant,
            "bound": _format_value(cap),
            "bound_holds": 0 < minor.determinant <= cap,
        }
    else:
        report["distinguished_minor"] = {
            "unavailable": "support lacks a witness monomial for some variable"
        }
    if poly is not None:
        report["euler_identity"] = euler_check(poly)
    return report


def _render_symmetry(report: dict) -> None:
    inp = report["input"]
    ws = ",".join(str(a) for a in inp["weights"])
    print(
        f"support: {len(inp['monomials'])} monomials of degree {inp['degree']} "
        f"in P({ws})"
    )
    g = report["fixing_group"]
    if g["finite"]:
        print(
            f"fixing group: order {g['order']}, invariant factors "
            f"({', '.join(str(f) for f in g['invariant_factors'])})"
        )
    else:
        print(f"fixing group: infinite diagonal symmetry, free rank {g['free_rank']}")
    ld = report["lin_diagonal"]
    if "unavailable" in ld:
        print(f"diagonal symmetry modulo scalars: unavailable ({ld['unavailable']})")
    elif not ld["finite"]:
        print("diagonal symmetry modulo scalars: infinite")
    else:
        print(f"diagonal symmetry modulo scalars: order {ld['order']}")
    ex = report["monomial_existence"]
    if ex["passed"]:
        print("per-variable monomial existence: pass")
    else:
        print(
            f"per-variable monomial existence: fail for variables "
            f"{ex['failing_variables']}"
        )
    minor = report["distinguished_minor"]
    if "unavailable" in minor:
        print(f"distinguished minor: unavailable ({minor['unavailable']})")
    else:
        print(f"distinguished minor rows: {minor['rows']}")
        print(
            f"det(B) = {minor['determinant']} <= {minor['bound']}: "
            f"{'yes' if minor['bound_holds'] else 'NO'}"
        )
    if "euler_identity" in report:
        print(f"euler identity self-test: {'pass' if report['euler_identity'] else 'FAIL'}")


def cmd_symmetry(args) -> int:
    support, poly = load_support_file(args.support_file)
    report = build_symmetry_report(support, poly)
    _emit(report, args, _render_symmetry)
    return 0


_KIND_FLAGS = {
    "cy": CanonicalKind.CALABI_YAU,
    "fano": CanonicalKind.FANO,
    "general": CanonicalKind.GENERAL_TYPE,
}


def cmd_enumerate(args) -> int:
    kind = _KIND_FLAGS[args.canonical] if args.canonical else None
    constraints = SearchConstraints(
        dimension=args.dim,
        canonical_kind=kind,
        max_degree=args.max_degree,
        max_weight=args.max_weight,
        require_well_formed=not args.no_well_formed,
        require_quasismooth=not args.no_quasismooth,
        exclude_linear_cones=not args.allow_linear_cones,
        candidate_cap=args.max_candidates,
    )
    families = enumerate_families(constraints)
    payload = [
        {"degree": f.degree, "weights": list(f.weights.canonical)} for f in families
    ]

    def render(p):
        for f in p:
            print(f"{f['degree']} : {','.join(str(a) for a in f['weights'])}")

    _emit(payload, args, render)
    return 0


def cmd_fermat(args) -> int:
    prediction = fermat_prediction(args.dim, args.degree)
    support = fermat_support(args.dim, args.degree)
    diag = lin_diagonal_order(support)
    payload = {
        "dimension": args.dim,
        "degree": args.degree,
        "total": prediction.total,
        "diagonal_part": prediction.diagonal_part,
        "diagonal_cross_check": {
            "computed": diag,
            "matches": diag == prediction.diagonal_part,
        },
    }

    def render(p):
        print(
            f"Fermat hypersurface, dimension {p['dimension']}, degree {p['degree']}:"
        )
        print(f"  |Lin(X)| = (n+2)! * d^(n+1) = {p['total']}")
        print(f"  diagonal part d^(n+1) = {p['diagonal_part']}")
        cc = p["diagonal_cross_check"]
        print(
            f"  diagonal subgroup of the Fermat support: {cc['computed']} "
            f"({'cross-check pass' if cc['matches'] else 'MISMATCH'})"
        )

    _emit(payload, args, render)
    return 0


def cmd_bound(args) -> int:
    fam = HypersurfaceFamily(_parse_weights(args.weights), args.degree)
    table = _load_table(args)
    fin = lin_finiteness(fam)
    payload: dict = {
        "input": {"weights": list(fam.weights.original), "degree": fam.degree},
        "finiteness": _finiteness_payload(fin),
    }
    if fin.finite:
        hypothesis = Fraction(
            factorial(fam.n + 2) * fam.degree ** (fam.n + 1), fam.weight_product
        )
        payload["order_bound"] = _order_bound_payload(fam, table, fin.finite)
        payload["factorial_hypothesis_bound"] = {
            "exact": _format_value(hypothesis),
            "floor": hypothesis.__floor__(),
            "note": (
                "(n+2)! * d^(n+1) / prod(weights); conjectural constant for "
                "n >= 2, shown for comparison only"
            ),
        }
        if fam.n == 1:
            cb = curve_bound(fam)
            payload["curve_bound"] = {
                "exact": _format_value(cb.bound),
                "floor": cb.bound.__floor__(),
                "exceptions": [
                    {"name": e.name, "group": e.group, "order": e.order}
                    for e in cb.exceptions
                ],
            }

    def render(p):
        inp = p["input"]
        ws = ",".join(str(a) for a in inp["weights"])
        print(f"family: degree {inp['degree']} in P({ws})")
        fin_p = p["finiteness"]
        print(
            f"Lin(X) finite: {'yes' if fin_p['finite'] else 'no'}  "
            f"[{fin_p['condition']}]"
        )
        if not fin_p["finite"]:
            return
        ob = p["order_bound"]
        if "unavailable" in ob:
            print(f"Jordan-route bound: unavailable ({ob['unavailable']})")
        else:
            print(
                f"Jordan-route bound: {ob['exact']} (floor {ob['floor']}, "
                f"weak Jordan factor {ob['weak_jordan']})"
            )
        hb = p["factorial_hypothesis_bound"]
        print(f"factorial-hypothesis bound: {hb['exact']} (floor {hb['floor']})")
        print(f"  note: {hb['note']}")
        if "curve_bound" in p:
            cb_p = p["curve_bound"]
            print(f"curve bound 6d^2/(abc): {cb_p['exact']} (floor {cb_p['floor']})")
            for e in cb_p["exceptions"]:
                print(
                    f"  exception: {e['name']} with group {e['group']} of order "
                    f"{e['order']}"
                )

    _emit(payload, args, render)
    return 0


def _int_arg(text: str) -> int:
    value = _plain_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _plain_int(text)
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wph`` argument parser, built once and shared by every call."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit structured JSON")
    shared.add_argument(
        "--jordan-table",
        metavar="PATH",
        default=None,
        help=f"weak Jordan constant table file (default: ${JORDAN_TABLE_ENV})",
    )
    shared.add_argument(
        "--max-candidates",
        type=_positive_int,
        default=DEFAULT_CANDIDATE_CAP,
        metavar="N",
        help="resource cap on enumeration candidates",
    )

    parser = argparse.ArgumentParser(
        prog="wph",
        description=(
            "Exact combinatorics of weighted projective hypersurfaces: "
            "existence criteria, symmetry groups and order bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[shared], help="classify a (weights, degree) family"
    )
    p_check.add_argument("--weights", required=True, help="comma-separated weights")
    p_check.add_argument("--degree", required=True, type=_int_arg)
    p_check.set_defaults(func=cmd_check)

    p_sym = sub.add_parser(
        "symmetry", parents=[shared], help="diagonal symmetry of an explicit support"
    )
    p_sym.add_argument("support_file", help="JSON support file")
    p_sym.set_defaults(func=cmd_symmetry)

    p_enum = sub.add_parser(
        "enumerate", parents=[shared], help="enumerate families under constraints"
    )
    p_enum.add_argument("--dim", required=True, type=_int_arg, help="hypersurface dimension n")
    p_enum.add_argument(
        "--canonical", choices=sorted(_KIND_FLAGS), default=None,
        help="canonical class filter",
    )
    p_enum.add_argument("--max-degree", type=_int_arg, default=300)
    p_enum.add_argument("--max-weight", type=_int_arg, default=None)
    p_enum.add_argument("--no-well-formed", action="store_true")
    p_enum.add_argument("--no-quasismooth", action="store_true")
    p_enum.add_argument("--allow-linear-cones", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_fermat = sub.add_parser(
        "fermat", parents=[shared], help="Fermat hypersurface symmetry prediction"
    )
    p_fermat.add_argument("--dim", required=True, type=_int_arg)
    p_fermat.add_argument("--degree", required=True, type=_int_arg)
    p_fermat.set_defaults(func=cmd_fermat)

    p_bound = sub.add_parser(
        "bound", parents=[shared], help="order bounds for the linear automorphism group"
    )
    p_bound.add_argument("--weights", required=True, help="comma-separated weights")
    p_bound.add_argument("--degree", required=True, type=_int_arg)
    p_bound.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WphError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
