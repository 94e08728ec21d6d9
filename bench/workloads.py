"""The benchmark's workloads: seeded inputs, operations and answer checks.

Each workload builds one *round*: a fixed list of operations derived from the
seed alone. A run repeats whole rounds, so every run attempts the same
multiset of operations whatever its length. The program sees only the
generated inputs; the checks use :mod:`oracles` and facts from the
literature, never a stored copy of the program's own output.

This module does not import ``wph``. A builder takes the seeded generator and
a scratch directory, chooses every input there (the oracle-driven choices and
the support files included), and returns a function of the loaded library
that makes the operations. The worker times only that function and the
import of ``wph`` as set-up, so the benchmark's own input generation does not
count as the program's set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt, prod
from pathlib import Path
from typing import Any, Callable

import oracles

WORKLOADS = ("cy_census", "wide_qs", "cli_sym")

#: Reid's list of K3 weight systems (Yonemura 1990): 95 families, the largest
#: of degree 66, so every dim-2 census with a bound >= 66 returns all 95.
K3_COUNT = 95
K3_MAX_DEGREE = 66

#: Dim-3 counts per degree bound, regenerated by ``census_counts.py``.
COUNTS_FILE = Path(__file__).with_name("census_counts.json")


@dataclass
class Op:
    """One benchmark operation.

    ``call`` runs the program and returns its raw result; ``plain`` turns
    that into comparable plain data outside the timed call; ``check``
    returns the problems it finds in the plain answer.
    """

    label: str
    call: Callable[[], Any]
    plain: Callable[[Any], Any]
    check: Callable[[Any, "Context"], list[str]]
    cli_command: str | None = None


class Context:
    """State shared by the checks of one run."""

    def __init__(self):
        self.semigroups = oracles.SemigroupCache()
        self._counts = None

    def census_count(self, dim: int, bound: int) -> int | None:
        if self._counts is None:
            self._counts = json.loads(COUNTS_FILE.read_text(encoding="utf-8"))
        table = self._counts.get(f"dim{dim}", {}).get("count_upto", [])
        return table[bound] if bound < len(table) else None


# --------------------------------------------------------------------------
# cy_census: the census loop, WeightSystem construction, well-formedness and
# many tiny quasismooth calls (4-5 weights, degree of a few hundred).


def _census_op(lib, dim: int, bound: int) -> Op:
    constraints = lib.census.SearchConstraints(
        dimension=dim,
        canonical_kind=lib.weights.CanonicalKind.CALABI_YAU,
        max_degree=bound,
    )

    def call():
        return lib.census.enumerate_families(constraints)

    def plain(result):
        return [(f.degree, tuple(f.weights.canonical)) for f in result]

    def check(answer, ctx: Context) -> list[str]:
        errs = []
        where = f"census dim {dim} bound {bound}"
        if answer != sorted(set(answer)):
            errs.append(f"{where}: output not in canonical order or has duplicates")
        for d, ws in answer:
            if len(ws) != dim + 2 or list(ws) != sorted(ws, reverse=True):
                errs.append(f"{where}: {ws} is not a canonical weight tuple")
            elif d != sum(ws) or d > bound:
                errs.append(f"{where}: degree {d} of {ws} is not the weight sum within the bound")
            elif not oracles.is_well_formed(ws):
                errs.append(f"{where}: {ws} is not well-formed")
            elif not oracles.quasismooth_exists(ws, d, ctx.semigroups):
                errs.append(f"{where}: ({ws}; {d}) fails the quasismooth criterion")
        if dim == 2:
            expected = K3_COUNT
            if any(d > K3_MAX_DEGREE for d, _ in answer):
                errs.append(f"{where}: a K3 family of degree above {K3_MAX_DEGREE}")
        else:
            expected = ctx.census_count(dim, bound)
        if expected is None:
            errs.append(f"{where}: no expected count on record")
        elif len(answer) != expected:
            errs.append(f"{where}: {len(answer)} families, expected {expected}")
        return errs

    return Op(f"census:{dim}:{bound}", call, plain, check)


def build_cy_census(rng: random.Random, workdir: Path):
    # Two antithetic pairs of bounds around centres of about equal cost (the
    # dim-2 census at 172 and the dim-3 census at 80 take about 1.5 s each):
    # the round's cost hardly moves with the seed, and the median operation
    # of a run comes from a cluster of similar censuses.
    r2 = rng.randint(0, 4)
    r3 = rng.randint(0, 2)
    specs = [(2, 172 - r2), (2, 172 + r2), (3, 80 - r3), (3, 80 + r3)]
    rng.shuffle(specs)
    return lambda lib: [_census_op(lib, dim, bound) for dim, bound in specs]


# --------------------------------------------------------------------------
# wide_qs: representable_mask and the subset scan on 9-12 weights with
# degrees in the thousands to about 10^5.

#: (weights, degree) strata. An odd number of equal-sized strata of distinct
#: cost puts the median operation inside the middle stratum, not on a
#: boundary between two; the large stratum sets the peak memory of the mask
#: cache.
WIDE_STRATA = ((9, 27720), (9, 55440), (11, 10080), (12, 5040), (11, 27720))
WIDE_BIG = (12, 27720)
WIDE_PER_STRATUM = 3


def _divisors(n: int) -> list[int]:
    small = [q for q in range(1, isqrt(n) + 1) if n % q == 0]
    return sorted(set(small + [n // q for q in small]))


def _magnitude(d: int, a: int) -> int:
    """Binary magnitude class of weight a: the k >= 0 with a * 2^k <= d."""
    return (d // a).bit_length()


def _profile(d: int, m: int) -> list[int]:
    """Magnitude classes 2 .. class(1), spread evenly over m weights."""
    top = _magnitude(d, 1)
    return [2 + round(k * (top - 2) / (m - 1)) for k in range(m)]


def _profile_divisors(rng: random.Random, d: int, m: int, by_class) -> list[int]:
    """m distinct proper divisors of d, one from each class of the profile.

    ``by_class`` maps each magnitude class to the proper divisors in it.
    """
    picks: list[int] = []
    for cls in _profile(d, m):
        for near in (cls, cls + 1, cls - 1, cls + 2, cls - 2):
            pool = [q for q in by_class.get(near, ()) if q not in picks]
            if pool:
                picks.append(rng.choice(pool))
                break
    return picks


def _non_divisor_like(rng, d, a, others, exclude):
    """A weight b of the same magnitude class as ``a`` that does not divide d
    but divides d - c for another weight c, so {b} passes through a witness."""
    cls = _magnitude(d, a)
    for c in rng.sample(others, len(others)):
        pool = [
            q for q in _divisors(d - c)
            if d % q and q not in exclude and _magnitude(d, q) == cls
        ]
        if pool:
            return rng.choice(pool)
    return None


def _wide_family(rng: random.Random, m: int, d: int, failing: bool, cache):
    """Weights whose scan reaches subsets of size >= 2.

    The weights follow a fixed profile of magnitudes d/a, so the cost of a
    stratum barely moves with the seed. Passing families have one weight
    that does not divide d; failing ones have two, chosen so that the pair
    fails the criterion while each weight passes alone.
    """
    by_class: dict[int, list[int]] = {}
    for q in _divisors(d)[:-1]:
        by_class.setdefault(_magnitude(d, q), []).append(q)
    while True:
        ws = _profile_divisors(rng, d, m, by_class)
        slots = rng.sample(range(m), 2 if failing else 1)
        for s in slots:
            others = [w for i, w in enumerate(ws) if i not in slots]
            ws[s] = _non_divisor_like(rng, d, ws[s], others, set(ws))
        if None in ws or len(set(ws)) < m:
            continue
        ws.sort(reverse=True)
        failures = oracles.quasismooth_failures(ws, d, cache)
        if bool(failures) == failing and all(len(f[0]) >= 2 for f in failures):
            return ws


def _qs_op(lib, ws, d, diagnostics: bool) -> Op:
    fam = lib.weights.HypersurfaceFamily(lib.weights.WeightSystem(ws), d)

    def call():
        return lib.quasismooth.quasismooth_exists(fam, diagnostics=diagnostics)

    def plain(report):
        return (
            report.exists,
            [
                (tuple(s.subset), s.degree_representable, tuple(s.outside_witnesses), s.required)
                for s in report.failing_subsets
            ],
        )

    def check(answer, ctx: Context) -> list[str]:
        exists, failing = answer
        expected = oracles.quasismooth_failures(ws, d, ctx.semigroups) or []
        where = f"quasismooth {ws}; {d}"
        if exists != (not expected):
            return [f"{where}: verdict {exists}, oracle says {not expected}"]
        if diagnostics and failing != expected:
            return [f"{where}: failing subsets differ from the oracle's"]
        return []

    return Op(f"qs:{len(ws)}:{d}:{'diag' if diagnostics else 'fast'}", call, plain, check)


def build_wide_qs(rng: random.Random, workdir: Path):
    cache = oracles.SemigroupCache()
    specs = []
    for m, d in WIDE_STRATA:
        for k in range(2 * WIDE_PER_STRATUM):
            specs.append((m, d, k % 2 == 1))
    specs += [(*WIDE_BIG, False), (*WIDE_BIG, True)]
    families = [(_wide_family(rng, m, d, failing, cache), d, failing) for m, d, failing in specs]
    rng.shuffle(families)
    # Failing families run with diagnostics, as ``wph check`` does.
    return lambda lib: [_qs_op(lib, ws, d, diagnostics=failing) for ws, d, failing in families]


# --------------------------------------------------------------------------
# cli_sym: in-process ``wph check`` and ``wph symmetry`` on graded pieces of
# about 10^3 to 5*10^4 monomials: monomial enumeration, row-lattice
# compression, SNF, the Bareiss determinant, CLI parsing and JSON payloads.

#: Seeded slots as (variables, graded-piece size). The middle slots are eight
#: operations of about equal cost, which hold the median of every run.
CHECK_SLOTS = ((4, 1500), (6, 1500)) + ((5, 6000),) * 4 + ((4, 10000),)
#: Supports keep about two thirds of a piece of the slot's size.
SYMMETRY_SLOTS = ((4, 1500), (6, 1500)) + ((5, 4500),) * 4 + ((6, 9000),)
#: The degree-180 family in P(36,31,30,25) has forced central order 5.
FLAGSHIP = ((36, 31, 30, 25), 180, 5)
#: P(1^6) in degree 20 (53130 monomials): only scalars fix every monomial of
#: degree d >= 3, so the forced central order is 1.
PLAIN_CHECK = (6, 20)
#: The whole degree-24 piece of P(1^5) (20475 monomials) is fixed exactly by
#: the scalars of order 24: fixing order d, and order 1 modulo scalars.
PLAIN_SUPPORT = (5, 24)


def _pick_family(rng: random.Random, m: int, target: int, cache):
    """Distinct well-formed weights up to 12 and a degree d > 2 max with a
    quasismooth member and a graded piece within 3 % of ``target`` monomials."""
    while True:
        ws = rng.sample(range(1, 13), m)
        if not oracles.is_well_formed(ws):
            continue
        top = 2 * max(ws)
        # The piece has about d^(m-1) / ((m-1)! prod(a)) monomials; look a
        # little past the degree where that reaches the target.
        reach = (1.2 * target * factorial(m - 1) * prod(ws)) ** (1 / (m - 1))
        sizes = oracles.graded_piece_sizes(ws, min(int(reach) + sum(ws), 4000))
        near = [d for d in range(top + 1, len(sizes)) if abs(sizes[d] - target) <= 0.03 * target]
        rng.shuffle(near)
        canon = sorted(ws, reverse=True)
        for d in near:
            if oracles.quasismooth_exists(canon, d, cache):
                return ws, d


def _run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _group_errors(where, g) -> list[str]:
    factors = g["invariant_factors"]
    if not g["finite"] or g["order"] != prod(factors):
        return [f"{where}: group is not finite with order the product of its factors"]
    if any(f < 2 for f in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        return [f"{where}: invariant factors {factors} are not a divisibility chain"]
    return []


def _check_op(lib, ws, d, exact_order=None) -> Op:
    argv = ["check", "--weights", ",".join(map(str, ws)), "--degree", str(d), "--json"]
    canon = sorted(ws, reverse=True)

    def check(answer, ctx: Context) -> list[str]:
        code, out, err = answer
        where = f"check {ws}; {d}"
        if code != 0:
            return [f"{where}: exit {code}: {err.strip()}"]
        r = json.loads(out)
        errs = []
        if r["input"] != {"weights": list(ws), "degree": d} or r["canonical_weights"] != canon:
            errs.append(f"{where}: input echo differs")
        gcds = oracles.omit_one_gcds(tuple(canon))
        wf = [{"omitted_index": i, "shared_factor": g} for i, g in enumerate(gcds) if g != 1]
        if r["well_formed"] != {"holds": not wf, "failures": wf}:
            errs.append(f"{where}: well-formedness differs from omit-one gcds")
        failing = oracles.quasismooth_failures(canon, d, ctx.semigroups) or []
        qs = r["quasismooth"]
        got = [
            (tuple(s["subset"]), s["degree_representable"], tuple(s["outside_witnesses"]), s["required"])
            for s in qs["failing_subsets"]
        ]
        if qs["exists"] != (not failing) or got != failing:
            errs.append(f"{where}: quasismooth verdict differs from the oracle")
        if r["canonical_class"]["r"] != d - sum(ws):
            errs.append(f"{where}: canonical class r is not d - sum(weights)")
        forced = r["forced_central_group"]
        if "unavailable" in forced:
            return errs + [f"{where}: forced central group unavailable"]
        errs += _group_errors(f"{where}: forced group", forced)
        bound = r["order_bound"]
        if len(set(ws)) == len(ws):
            # Distinct weights: weak Jordan constant 1, bound d^(n+1)/prod(a).
            floor = d ** (len(ws) - 1) // prod(ws)
            if bound.get("floor") != floor:
                errs.append(f"{where}: order-bound floor {bound.get('floor')}, expected {floor}")
        if "floor" in bound and forced.get("order", 0) > bound["floor"]:
            errs.append(f"{where}: forced order {forced['order']} above the bound floor")
        if exact_order is not None and forced.get("order") != exact_order:
            errs.append(f"{where}: forced order {forced.get('order')}, expected {exact_order}")
        return errs

    return Op(
        f"check:{len(ws)}:{d}",
        lambda: _run_cli(lib, argv),
        lambda answer: answer,
        check,
        "check",
    )


def write_support(path: Path, ws, d, rows) -> None:
    path.write_text(json.dumps({"weights": ws, "degree": d, "monomials": rows}), encoding="utf-8")


def _symmetry_op(lib, path: Path, ws, d, exact_lin_order=None) -> Op:
    # The rows live only in the file until the check reads them back, so the
    # support does not add to the run's peak memory twice.
    argv = ["symmetry", str(path), "--json"]

    def check(answer, ctx: Context) -> list[str]:
        code, out, err = answer
        rows = json.loads(path.read_text(encoding="utf-8"))["monomials"]
        support = {tuple(x) for x in rows}
        where = f"symmetry {ws}; {d} ({len(rows)} rows)"
        if code != 0:
            return [f"{where}: exit {code}: {err.strip()}"]
        r = json.loads(out)
        errs = []
        if r["input"] != {"weights": list(ws), "degree": d, "monomials": rows}:
            errs.append(f"{where}: input echo differs")
        group = r["fixing_group"]
        errs += _group_errors(f"{where}: fixing group", group)
        lin = r["lin_diagonal"]
        if not lin.get("finite") or lin["order"] * d != group["order"]:
            errs.append(f"{where}: lin-diagonal order times d is not the fixing-group order")
        if exact_lin_order is not None and lin.get("order") != exact_lin_order:
            errs.append(f"{where}: lin-diagonal order {lin.get('order')}, expected {exact_lin_order}")
        has_witness = [any(oracles.is_witness_row(x, i) for x in rows) for i in range(len(ws))]
        existence = r["monomial_existence"]
        if existence["passed"] != all(has_witness):
            errs.append(f"{where}: monomial existence differs")
        minor = r["distinguished_minor"]
        if "unavailable" in minor:
            return errs + [f"{where}: distinguished minor unavailable"]
        B = minor["rows"]
        if any(tuple(b) not in support or not oracles.is_witness_row(b, i) for i, b in enumerate(B)):
            errs.append(f"{where}: minor row is not a witness row of the support")
        det = oracles.cofactor_determinant(B)
        num, den = oracles.minor_window(ws, d)
        if det != minor["determinant"]:
            errs.append(f"{where}: determinant {minor['determinant']}, cofactor expansion gives {det}")
        if not (0 < det and det * den <= num) or minor["bound"] != _frac_text(Fraction(num, den)):
            errs.append(f"{where}: determinant {det} outside (0, d^(n+2)/prod(a)]")
        if det % group["order"]:
            # The fixing-group order is the gcd of the maximal minors.
            errs.append(f"{where}: fixing-group order does not divide the minor determinant")
        return errs

    return Op(
        f"symmetry:{len(ws)}:{d}",
        lambda: _run_cli(lib, argv),
        lambda answer: answer,
        check,
        "symmetry",
    )


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _support_rows(rng: random.Random, ws, d):
    """The graded piece without a seeded third of its non-witness rows."""
    keep = []
    for row in oracles.graded_piece(ws, d):
        nonzero = [e for e in row if e]
        # x_i^k or x_i^k * x_j: the witness rows every variable needs.
        witness = len(nonzero) == 1 or (len(nonzero) == 2 and 1 in nonzero)
        if witness or rng.random() >= 1 / 3:
            keep.append(row)
    return keep


def build_cli_sym(rng: random.Random, workdir: Path):
    cache = oracles.SemigroupCache()
    specs = []
    for m, target in CHECK_SLOTS:
        ws, d = _pick_family(rng, m, target, cache)
        specs.append((_check_op, ws, d, None))
    ws, d, order = FLAGSHIP
    specs.append((_check_op, list(ws), d, order))
    m, d = PLAIN_CHECK
    specs.append((_check_op, [1] * m, d, 1))
    for k, (m, size) in enumerate(SYMMETRY_SLOTS):
        ws, d = _pick_family(rng, m, size, cache)
        path = workdir / f"support-{k}.json"
        write_support(path, ws, d, _support_rows(rng, ws, d))
        specs.append((_symmetry_op, path, ws, d, None))
    m, d = PLAIN_SUPPORT
    path = workdir / "support-plain.json"
    write_support(path, [1] * m, d, oracles.graded_piece([1] * m, d))
    specs.append((_symmetry_op, path, [1] * m, d, 1))
    rng.shuffle(specs)
    return lambda lib: [make(lib, *args) for make, *args in specs]


BUILDERS = {
    "cy_census": build_cy_census,
    "wide_qs": build_wide_qs,
    "cli_sym": build_cli_sym,
}
