"""Command-line interface: check, symmetry, enumerate, fermat, bound."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import factorial
from pathlib import Path

from .bounds import (
    Finiteness,
    JordanTable,
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
    _plain_int,
    _too_long,
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
    path = args.jordan_table or os.environ.get(JORDAN_TABLE_ENV)
    if path:
        return JordanTable.load(path)
    return JordanTable()


#: Rows of an integer matrix encoded at a time by :func:`_write_json`.
_MATRIX_BLOCK_ROWS = 1024

#: The JSON text of a leaf of each exact type, by the C primitive json.dumps uses.
_LEAF_TEXT = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(value, write, indent: str = "") -> None:
    """Write ``value`` as ``json.dump(value, fp, indent=2, sort_keys=True)`` does.

    With an indent the json module builds an encoder and runs its pure
    Python ``_make_iterencode`` for every ``json.dumps`` call. Here a leaf of
    exact type ``int``, ``str``, ``bool`` or ``None`` is written by the C
    primitive ``json.dumps`` itself uses: ``int.__repr__``, and
    ``encode_basestring_ascii`` (the ``ensure_ascii=True`` default) for
    strings and for every dict key; an empty list, tuple or dict is ``[]`` or
    ``{}``. Dicts with string keys and non-empty lists recurse. Everything
    else (floats, int and str subclasses, dicts with non-string keys) is one
    ``json.dumps`` call. Lists go in blocks of rows. A block of rows of one
    width w >= 1 that flattens to exact ints, such as the support echo, is one
    ``%`` of a template with w indented ``%d`` fields per row, built once per
    block shape; any other block is written item by item.
    """
    kind = type(value)
    inner = indent + "  "
    if kind in _LEAF_TEXT:
        write(_LEAF_TEXT[kind](value))
    elif kind in (list, tuple, dict) and not value:
        write("{}" if kind is dict else "[]")
    elif isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = "{\n" + inner
        for key in sorted(value):
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], write, inner)
            sep = ",\n" + inner
        write("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "[\n" + inner
        templates: dict[tuple[int, int], str] = {}
        for start in range(0, len(value), _MATRIX_BLOCK_ROWS):
            block = value[start : start + _MATRIX_BLOCK_ROWS]
            widths = set(map(len, block)) if set(map(type, block)) <= {list, tuple} else ()
            flat = tuple(chain.from_iterable(block)) if len(widths) == 1 else ()
            if flat and set(map(type, flat)) == {int}:
                shape = (len(block[0]), len(block))
                if shape not in templates:
                    entry = ",\n" + inner + "  "
                    row = "[" + entry[1:] + entry.join(["%d"] * shape[0]) + "\n" + inner + "]"
                    templates[shape] = (",\n" + inner).join([row] * shape[1])
                write(sep + templates[shape] % flat)
                sep = ",\n" + inner
            else:
                for item in block:
                    write(sep)
                    _write_json(item, write, inner)
                    sep = ",\n" + inner
        write("\n" + indent + "]")
    else:
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))


def _decimal(x) -> str:
    """``str(x)`` of an int or Fraction; ResourceCapError if it has too many digits."""
    try:
        return str(x)
    except ValueError:
        raise ResourceCapError(_too_long("print")) from None


def _check_printable(value) -> None:
    """:func:`_decimal` of every int of a payload but those in lists of rows.

    Lists of rows in payloads are support rows, whose entries are at most
    the degree the payload also holds.
    """
    if isinstance(value, dict):
        for item in value.values():
            _check_printable(item)
    elif isinstance(value, (list, tuple)) and not (value and isinstance(value[0], (list, tuple))):
        for item in value:
            _check_printable(item)
    elif isinstance(value, int):
        _decimal(value)


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
        "weak_jordan": _decimal(bound.weak_jordan),
        "exact": _decimal(bound.exact),
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
        "input": {"weights": list(fam.weights.original), "degree": fam.degree},
        "canonical_weights": list(fam.weights.canonical),
        "dimension": fam.n,
        "well_formed": {
            "holds": not wf_failures,
            "failures": [asdict(f) for f in wf_failures],
        },
        "linear_cone": qs.is_linear_cone,
        "quasismooth": {
            "exists": qs.exists,
            "via_linear_cone": qs.is_linear_cone,
            "failing_subsets": [asdict(s) for s in qs.failing_subsets],
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
            report["forced_central_group"] = {
                **asdict(_forced_central_group(fam)),
                "note": "lower bound for the generic linear automorphism group",
            }
        except ResourceCapError as exc:
            report["forced_central_group"] = {"unavailable": str(exc)}
    else:
        report["forced_central_group"] = {"unavailable": "family has no quasismooth member"}
    return report


def _print_unavailable(label: str, payload: dict) -> bool:
    """Print ``label: unavailable (reason)`` for an unavailable payload; True if printed."""
    if "unavailable" in payload:
        print(f"{label}: unavailable ({payload['unavailable']})")
        return True
    return False


def _print_finiteness(fin: dict) -> None:
    print(f"Lin(X) finite: {'yes' if fin['finite'] else 'no'}  [{fin['condition']}]")


def _print_order_bound(label: str, ob: dict) -> None:
    if not _print_unavailable(label, ob):
        print(
            f"{label}: {ob['exact']} (floor {ob['floor']}, "
            f"weak Jordan factor {ob['weak_jordan']})"
        )


def _group_text(group: dict) -> str:
    factors = ", ".join(str(f) for f in group["invariant_factors"])
    return f"order {group['order']}, invariant factors ({factors})"


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
                f"  failing subset {list(s['subset'])}: degree representable: "
                f"{s['degree_representable']}, outside witnesses "
                f"{list(s['outside_witnesses'])} (need {s['required']})"
            )
    cc = report["canonical_class"]
    print(f"canonical class: r = {cc['r']} ({cc['kind']})")
    lin = report["aut_equals_lin"]
    print(f"linearity: {lin['verdict']}  [{lin['condition']}]")
    _print_finiteness(report["finiteness"])
    _print_order_bound("order bound", report["order_bound"])
    gen = report["genericity"]
    print(f"genericity condition (d >= 5*max): {'yes' if gen['holds'] else 'no'}")
    fc = report["forced_central_group"]
    if _print_unavailable("forced central subgroup", fc):
        return
    if fc["finite"]:
        print(f"forced central subgroup: {_group_text(fc)}  [lower bound for generic Lin(X)]")
    else:
        print(f"forced central subgroup: infinite (free rank {fc['free_rank']})")


def cmd_check(args):
    fam = HypersurfaceFamily(_parse_weights(args.weights), args.degree)
    return build_check_report(fam, _load_table(args)), _render_check


def _unique_keys(pairs) -> dict:
    """The JSON object of ``pairs``; a ValidationError names a key given twice."""
    data = dict(pairs)
    if len(data) < len(pairs):
        repeated = Counter(key for key, _ in pairs).most_common(1)[0][0]
        raise ValidationError(f"support file repeats the key {repeated!r}")
    return data


#: The keys of a support file; the last one is optional.
_SUPPORT_KEYS = ("weights", "degree", "monomials", "coefficients")


def load_support_file(path: str | Path):
    """Parse a support file: weights, degree, monomials, optional coefficients.

    Any other top-level key is a ValidationError, so a misspelled optional
    key is never dropped without a word.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read support file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"support file {path} is not valid JSON: {exc}") from exc
    except ValueError:  # an integer literal with more digits than int() converts
        raise ValidationError(f"support file {path}: {_too_long('read')}") from None
    if not isinstance(data, dict):
        raise ValidationError("support file must contain a top-level object")
    unknown = [key for key in data if key not in _SUPPORT_KEYS]
    if unknown:
        raise ValidationError(
            f"support file has the unknown key {unknown[0]!r}; "
            f"the keys are {', '.join(_SUPPORT_KEYS)}"
        )
    for key in _SUPPORT_KEYS[:3]:
        if key not in data:
            raise ValidationError(f"support file is missing the {key!r} field")
    if not isinstance(data["weights"], list):
        raise ValidationError("support file field 'weights' must be a list of integers")
    fam = HypersurfaceFamily(WeightSystem(data["weights"]), data["degree"])
    if not isinstance(data["monomials"], list):
        raise ValidationError("support file field 'monomials' must be a list of rows")
    support = PolynomialSupport(fam, data["monomials"])
    coefficients = data.get("coefficients")
    if coefficients is None:
        return support, None
    if not isinstance(coefficients, list):
        raise ValidationError("support file field 'coefficients' must be a list or null")
    return support, WeightedPolynomial.from_support(support, coefficients)


def build_symmetry_report(support: PolynomialSupport, poly) -> dict:
    fam = support.family
    group = fixing_group(support)
    report: dict = {
        "input": {
            "weights": list(fam.weights.original),
            "degree": fam.degree,
            "monomials": support.rows,
        },
        "fixing_group": asdict(group),
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
        cap = Fraction(fam.degree ** len(fam.weights), fam.weight_product)
        report["distinguished_minor"] = {
            "rows": minor.B.to_rows(),
            "witnesses": [ch._asdict() for ch in minor.chosen_rows],
            "determinant": minor.determinant,
            "bound": _decimal(cap),
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
    print(f"support: {len(inp['monomials'])} monomials of degree {inp['degree']} in P({ws})")
    g = report["fixing_group"]
    if g["finite"]:
        print(f"fixing group: {_group_text(g)}")
    else:
        print(f"fixing group: infinite diagonal symmetry, free rank {g['free_rank']}")
    ld = report["lin_diagonal"]
    if not _print_unavailable("diagonal symmetry modulo scalars", ld):
        order = f"order {ld['order']}" if ld["finite"] else "infinite"
        print(f"diagonal symmetry modulo scalars: {order}")
    ex = report["monomial_existence"]
    if ex["passed"]:
        print("per-variable monomial existence: pass")
    else:
        print(f"per-variable monomial existence: fail for variables {ex['failing_variables']}")
    minor = report["distinguished_minor"]
    if not _print_unavailable("distinguished minor", minor):
        print(f"distinguished minor rows: {minor['rows']}")
        print(
            f"det(B) = {minor['determinant']} <= {minor['bound']}: "
            f"{'yes' if minor['bound_holds'] else 'NO'}"
        )
    if "euler_identity" in report:
        print(f"euler identity self-test: {'pass' if report['euler_identity'] else 'FAIL'}")


def cmd_symmetry(args):
    return build_symmetry_report(*load_support_file(args.support_file)), _render_symmetry


_KIND_FLAGS = {
    "cy": CanonicalKind.CALABI_YAU,
    "fano": CanonicalKind.FANO,
    "general": CanonicalKind.GENERAL_TYPE,
}


def cmd_enumerate(args):
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

    return payload, render


def cmd_fermat(args):
    # Stop at the dimension cap, or at a prediction too long to print, before the cross-check.
    support = fermat_support(args.dim, args.degree)
    prediction = fermat_prediction(args.dim, args.degree)
    _check_printable(prediction)
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
        print(f"Fermat hypersurface, dimension {p['dimension']}, degree {p['degree']}:")
        print(f"  |Lin(X)| = (n+2)! * d^(n+1) = {p['total']}")
        print(f"  diagonal part d^(n+1) = {p['diagonal_part']}")
        cc = p["diagonal_cross_check"]
        print(
            f"  diagonal subgroup of the Fermat support: {cc['computed']} "
            f"({'cross-check pass' if cc['matches'] else 'MISMATCH'})"
        )

    return payload, render


def cmd_bound(args):
    fam = HypersurfaceFamily(_parse_weights(args.weights), args.degree)
    table = _load_table(args)
    fin = lin_finiteness(fam)
    payload: dict = {
        "input": {"weights": list(fam.weights.original), "degree": fam.degree},
        "finiteness": _finiteness_payload(fin),
    }
    if fin.finite:
        hypothesis = Fraction(factorial(fam.n + 2) * fam.degree ** (fam.n + 1), fam.weight_product)
        payload["order_bound"] = _order_bound_payload(fam, table, fin.finite)
        payload["factorial_hypothesis_bound"] = {
            "exact": _decimal(hypothesis),
            "floor": hypothesis.__floor__(),
            "note": (
                "(n+2)! * d^(n+1) / prod(weights); conjectural constant for "
                "n >= 2, shown for comparison only"
            ),
        }
        if fam.n == 1:
            cb = curve_bound(fam)
            payload["curve_bound"] = {
                "exact": _decimal(cb.bound),
                "floor": cb.bound.__floor__(),
                "exceptions": [asdict(e) for e in cb.exceptions],
            }

    def render(p):
        inp = p["input"]
        ws = ",".join(str(a) for a in inp["weights"])
        print(f"family: degree {inp['degree']} in P({ws})")
        _print_finiteness(p["finiteness"])
        if not p["finiteness"]["finite"]:
            return
        _print_order_bound("Jordan-route bound", p["order_bound"])
        hb = p["factorial_hypothesis_bound"]
        print(f"factorial-hypothesis bound: {hb['exact']} (floor {hb['floor']})")
        print(f"  note: {hb['note']}")
        if "curve_bound" in p:
            cb_p = p["curve_bound"]
            print(f"curve bound 6d^2/(abc): {cb_p['exact']} (floor {cb_p['floor']})")
            for e in cb_p["exceptions"]:
                print(f"  exception: {e['name']} with group {e['group']} of order {e['order']}")

    return payload, render


def _int_arg(text: str, least: int | None = None) -> int:
    try:
        value = _plain_int(text)
    except ValidationError as exc:  # too many digits; the text is not echoed
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value is None or (least is not None and value < least):
        at_least = "" if least is None else f" >= {least}"
        raise argparse.ArgumentTypeError(f"must be an integer{at_least}, got {text!r}")
    return value


_positive_int = functools.partial(_int_arg, least=1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wph`` argument parser, built once and shared by every call."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit structured JSON")
    family = argparse.ArgumentParser(add_help=False, parents=[shared])
    family.add_argument(
        "--jordan-table",
        metavar="PATH",
        default=None,
        help=f"weak Jordan constant table file (default: ${JORDAN_TABLE_ENV})",
    )
    family.add_argument("--weights", required=True, help="comma-separated weights")
    family.add_argument("--degree", required=True, type=_int_arg)

    parser = argparse.ArgumentParser(
        prog="wph",
        description=(
            "Exact combinatorics of weighted projective hypersurfaces: "
            "existence criteria, symmetry groups and order bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[family], help="classify a (weights, degree) family"
    )
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
    p_enum.add_argument(
        "--max-candidates",
        type=_positive_int,
        default=DEFAULT_CANDIDATE_CAP,
        metavar="N",
        help="resource cap on enumeration candidates",
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_fermat = sub.add_parser(
        "fermat", parents=[shared], help="Fermat hypersurface symmetry prediction"
    )
    p_fermat.add_argument("--dim", required=True, type=_int_arg)
    p_fermat.add_argument("--degree", required=True, type=_int_arg)
    p_fermat.set_defaults(func=cmd_fermat)

    p_bound = sub.add_parser(
        "bound", parents=[family], help="order bounds for the linear automorphism group"
    )
    p_bound.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # Each subcommand returns its payload and the renderer of its text form.
        payload, render = args.func(args)
        _check_printable(payload)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # The frames that held the partial result are gone by now.
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WphError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        raise
    try:
        if args.json:
            # The bytes of json.dump(payload, stdout, indent=2, sort_keys=True),
            # without its element-by-element Python encoder (see _write_json).
            # Written piece by piece, so a large support echo is never one string.
            _write_json(payload, sys.stdout.write)
            sys.stdout.write("\n")
        else:
            render(payload)
        # Flushed here, so a closed pipe is met inside this block.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (``wph ... | head -1``). Point stdout at devnull so
        # the flush at exit finds no pipe either, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
