"""Command-line surface: reversibility checks, exact inversion, simulation,
root/Jordan reports, bundled worked-example verification, and benchmarks.

Exit codes: 0 success / reversible, 10 irreversible, 2 input error,
3 internal verification failure (a bug), 4 parameters outside the supported
range.

sympy (used only by ``paper-examples``) and statistics (used only by
``bench``) are imported inside the code that needs them, so the other
commands start without them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from functools import cache
from importlib import resources

from . import kernels, oracle, serialize
from .ca import RuleSpec, build_T, evolve_local
from .charpoly import g_poly, g_rational
from .errors import (
    CarevError,
    InputError,
    InternalVerificationFailed,
    NotReversible,
    UnsupportedRange,
)
from .field import PrimeField, roots_with_multiplicity, splitting_field
from .spectral import (
    axis_spectra,
    evolve_inverse,
    generalized_jordan,
    invert_T,
    reversibility,
)
from .structmat import MATRIX_SIZE_CAP, FMatrix

EXIT_OK = 0
EXIT_IRREVERSIBLE = 10
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_UNSUPPORTED = 4


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def _field_report(E) -> dict:
    if isinstance(E, PrimeField):
        return {"p": E.p, "degree": 1, "modulus": None}
    return {"p": E.p, "degree": E.k, "modulus": list(E.modulus)}


def _elem_report(E, v) -> dict:
    coeffs = E.coeff_vector(v)
    return {"render": E.render(v), "coeffs": list(coeffs)}


def _spectra_report(E, spectra) -> list:
    out = []
    for spec in spectra:
        out.append(
            {
                "axis": spec.axis + 1,
                "char_poly": [int(c) for c in spec.poly.coeffs],
                "roots": [
                    {**_elem_report(E, lam), "multiplicity": mult}
                    for lam, mult in spec.roots
                ],
            }
        )
    return out


def _emit_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if path:
        serialize.atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    rule = serialize.read_rule(args.rule)
    rep = reversibility(rule)
    report = {
        "rule": rule.to_json(),
        "reversible": rep.reversible,
        "field": _field_report(rep.field),
        "axes": _spectra_report(rep.field, rep.spectra),
        "witness": None
        if rep.witness is None
        else [_elem_report(rep.field, w) for w in rep.witness],
    }
    _emit_report(report, args.report)
    return EXIT_OK if rep.reversible else EXIT_IRREVERSIBLE


def cmd_invert(args) -> int:
    rule = serialize.read_rule(args.rule)
    rep = reversibility(rule)
    if not rep.reversible:
        report = {
            "reversible": False,
            "witness": [_elem_report(rep.field, w) for w in rep.witness],
        }
        _emit_report(report, args.report)
        return EXIT_IRREVERSIBLE
    t_inv = invert_T(rule, rep)
    serialize.write_matrix(t_inv, args.out)
    report = {
        "reversible": True,
        "verified": True,  # invert_T checks T * T^-1 == I by the forward stencil
        "size": t_inv.rows,
        "out": args.out,
    }
    _emit_report(report, args.report)
    return EXIT_OK


def _forward(rule, pattern, steps):
    """Evolve by stencil steps, O(N * d * eta) each."""
    for _ in range(steps):
        pattern = evolve_local(rule, pattern)
    return pattern


def _evolve_common(args, run) -> int:
    rule = serialize.read_rule(args.rule)
    if args.pgm:  # refuse before any step, so no --out file is left behind
        serialize.check_image_axes(rule.dims)
    pattern = serialize.read_pattern(args.pattern)
    if pattern.dims != rule.dims or pattern.p != rule.p:
        raise InputError("pattern dimensions or modulus do not match the rule")
    if args.steps < 0:
        raise InputError("steps must be >= 0")
    out = run(rule, pattern, args.steps)
    serialize.write_pattern(out, args.out)
    if args.pgm:
        serialize.write_pgm_slices(out, args.pgm)
    return EXIT_OK


def cmd_evolve(args) -> int:
    return _evolve_common(args, _forward)


def cmd_reverse(args) -> int:
    return _evolve_common(args, evolve_inverse)


def cmd_roots(args) -> int:
    rule = serialize.read_rule(args.rule)
    E, spectra = axis_spectra(rule)
    report = {
        "rule": rule.to_json(),
        "field": _field_report(E),
        "axes": _spectra_report(E, spectra),
    }
    _emit_report(report, args.report)
    return EXIT_OK


def cmd_jordan(args) -> int:
    rule = serialize.read_rule(args.rule)
    gj = generalized_jordan(rule)
    E = gj.field
    axes = []
    for a in range(rule.d):
        axes.append(
            {
                "axis": a + 1,
                "blocks": [
                    {"eigenvalue": _elem_report(E, lam), "size": size}
                    for lam, size in gj.axis_layout[a]
                ],
                "eps": list(gj.axis_eps[a]),
                "diagonalizable": gj.axis_diagonalizable[a],
            }
        )
    report = {
        "rule": rule.to_json(),
        "field": _field_report(E),
        "axes": axes,
        "diagonalizable": gj.diagonalizable,
        "diagonal": [_elem_report(E, v) for v in gj.diagonal()],
    }
    _emit_report(report, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bundled worked examples
# ---------------------------------------------------------------------------


def _golden_text(golden_dir, name: str) -> str:
    if golden_dir is not None:
        path = os.path.join(golden_dir, name)
        with open(path) as fh:
            return fh.read()
    return (resources.files("carev") / "goldens" / name).read_text()


def _all_ones_rule(p: int, dims) -> RuleSpec:
    return _k_rule(p, dims, [1] * len(dims))


def _k_rule(p: int, dims, ks) -> RuleSpec:
    return RuleSpec(
        p=p,
        dims=tuple(dims),
        c=0,
        axes=tuple(((k,), (k,)) for k in ks),
        eta=1,
    )


def _ex_cube_diagonal(golden_dir):
    """2x2x2 all-ones rules: eigenvalue diagonal in nested order."""
    lines = []
    for p in (5, 7, 11):
        gj = generalized_jordan(_all_ones_rule(p, (2, 2, 2)))
        E = gj.field
        lines.append(f"p={p}: " + " ".join(E.render(v) for v in gj.diagonal()))
    got = "\n".join(lines) + "\n"
    want = _golden_text(golden_dir, "cube222_diagonal.txt")
    return got == want, _diff_note(got, want)


def _ex_cube_inverse(p):
    def run(golden_dir):
        t_inv = invert_T(_all_ones_rule(p, (2, 2, 2)))
        got = serialize.format_matrix(t_inv)
        want = _golden_text(golden_dir, f"cube222_inverse_p{p}.txt")
        return got == want, _diff_note(got, want)

    return run


def _ex_prime_sweep(golden_dir):
    """2x2x2 all-ones is reversible for every prime p <= 31 except p = 3."""
    lines = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        rep = reversibility(_all_ones_rule(p, (2, 2, 2)))
        lines.append(f"p={p}: {'reversible' if rep.reversible else 'irreversible'}")
    got = "\n".join(lines) + "\n"
    want = _golden_text(golden_dir, "cube222_prime_sweep.txt")
    return got == want, _diff_note(got, want)


def _ex_gf9_witness(golden_dir):
    """4x4x4 all-ones over GF(3): splitting field GF(9), roots, witness."""
    rule = _all_ones_rule(3, (4, 4, 4))
    rep = reversibility(rule)
    E = rep.field
    lines = [
        f"modulus: {list(E.modulus)}",
        "axis1 roots: "
        + " ".join(f"{E.render(lam)}^{m}" for lam, m in rep.spectra[0].roots),
        f"reversible: {rep.reversible}",
        "witness: "
        + ("-" if rep.witness is None else " ".join(E.render(w) for w in rep.witness)),
        f"oracle det: {oracle.det(build_T(rule))}",
    ]
    got = "\n".join(lines) + "\n"
    want = _golden_text(golden_dir, "gf9_witness.txt")
    return got == want, _diff_note(got, want)


def _ex_quartic_roots(golden_dir):
    """The degree-4 axis polynomial over GF(5) has two double roots."""
    field = PrimeField(5)
    f = g_poly(field, 4, 1).poly
    E = splitting_field([f])
    roots = roots_with_multiplicity(f, E)
    got = " ".join(f"{E.render(lam)}^{m}" for lam, m in roots) + "\n"
    want = _golden_text(golden_dir, "quartic_roots_p5.txt")
    return got == want, _diff_note(got, want)


def _ex_triple_table(golden_dir):
    """4x4x4 over GF(5) with symmetric per-axis coefficients (k, k): the
    sorted list of reversible coefficient triples."""
    hits = set()
    for k1 in range(1, 5):
        for k2 in range(1, 5):
            for k3 in range(1, 5):
                rep = reversibility(_k_rule(5, (4, 4, 4), (k1, k2, k3)))
                if rep.reversible:
                    hits.add(tuple(sorted((k1, k2, k3))))
    got = "\n".join(" ".join(str(k) for k in t) for t in sorted(hits)) + "\n"
    want = _golden_text(golden_dir, "triple_table_p5.txt")
    return got == want, _diff_note(got, want)


def _ex_block_inverses(golden_dir):
    """Leading diagonal blocks of the nested Jordan inverse for the
    4x4x4 GF(5) rule with coefficients (1, 1, 4), read from J^-1 applied to
    the first 16 unit columns."""
    gj = generalized_jordan(_k_rule(5, (4, 4, 4), (1, 1, 4)))
    j_inv = gj.solve(FMatrix(gj.field, FMatrix.identity(gj.field, 64).data[:, :16]))
    lines = []
    for b in range(4):  # the four leading 4x4 blocks along the diagonal
        rows = []
        for i in range(4):
            rows.append(
                " ".join(
                    gj.field.render(j_inv.at(4 * b + i, 4 * b + j)) for j in range(4)
                )
            )
        lines.append(f"block {b + 1}:")
        lines.extend(rows)
    got = "\n".join(lines) + "\n"
    want = _golden_text(golden_dir, "block_inverses_p5.txt")
    return got == want, _diff_note(got, want)


def _ex_gcd_anomaly(golden_dir):
    """deg gcd(g_k, g_l) over Q follows gcd(k+1, l+1) - 1; for g_4 mod 3 the
    modular gcd degree provably never exceeds the rational one, so the pairs
    (4, 78) and (4, 79) are recorded with both gcds as computed."""
    import sympy

    field = PrimeField(3)
    g4 = g_poly(field, 4, 1).poly
    x = sympy.symbols("x")
    lines = []
    for j in (78, 79):
        gp = g4.gcd(g_poly(field, j, 1).poly)
        gq = sympy.gcd(g_rational(4).as_expr(), g_rational(j).as_expr(), x)
        deg_q = sympy.Poly(gq, x).degree() if gq != 1 else 0
        lines.append(f"pair (4, {j}): rational gcd degree {deg_q}, mod-3 gcd {gp!r}")
    got = "\n".join(lines) + "\n"
    want = _golden_text(golden_dir, "gcd_anomaly.txt")
    return got == want, _diff_note(got, want)


def _ex_demo_images(golden_dir):
    """4x4x4 GF(5) all-ones demo: 30 steps from the bundled seed match the
    bundled slice images byte-exactly."""
    rule = RuleSpec.from_json(json.loads(_golden_text(golden_dir, "demo_rule.json")))
    seed = serialize.parse_pattern(_golden_text(golden_dir, "demo_seed.txt"))
    out = _forward(rule, seed, 30)
    for t, text in enumerate(serialize.pattern_to_pgms(out)):
        want = _golden_text(golden_dir, f"demo_step30_slice{t}.pgm")
        if text != want:
            return False, f"slice {t} differs"
    return True, ""


def _diff_note(got: str, want: str) -> str:
    if got == want:
        return ""
    for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
        if a != b:
            return f"first difference at line {i + 1}: got {a!r}, expected {b!r}"
    return "output length differs from golden"


EXAMPLES = (
    ("cube222-diagonal", "2x2x2 all-ones eigen diagonal, p in {5,7,11}", _ex_cube_diagonal),
    ("cube222-inverse-p5", "2x2x2 all-ones exact inverse over GF(5)", _ex_cube_inverse(5)),
    ("cube222-inverse-p7", "2x2x2 all-ones exact inverse over GF(7)", _ex_cube_inverse(7)),
    ("cube222-inverse-p11", "2x2x2 all-ones exact inverse over GF(11)", _ex_cube_inverse(11)),
    ("cube222-prime-sweep", "2x2x2 all-ones reversibility across p <= 31", _ex_prime_sweep),
    ("gf9-witness", "4x4x4 all-ones over GF(3): GF(9) roots and witness", _ex_gf9_witness),
    ("quartic-roots-p5", "degree-4 axis polynomial root multiplicities mod 5", _ex_quartic_roots),
    ("triple-table-p5", "reversible symmetric coefficient triples, 4x4x4 mod 5", _ex_triple_table),
    ("block-inverses-p5", "nested Jordan inverse diagonal blocks, 4x4x4 mod 5", _ex_block_inverses),
    ("gcd-anomaly", "rational vs mod-3 gcd of the axis polynomials g4, g78", _ex_gcd_anomaly),
    ("demo-images", "4x4x4 mod-5 demo: step-30 slice images", _ex_demo_images),
)


def cmd_paper_examples(args) -> int:
    registry = {name: (desc, fn) for name, desc, fn in EXAMPLES}
    if args.list:
        for name, desc, _ in EXAMPLES:
            print(f"{name}: {desc}")
        return EXIT_OK
    names = args.only or [name for name, _, _ in EXAMPLES]
    failures = 0
    for name in names:
        if name not in registry:
            raise InputError(f"unknown example id: {name}")
        desc, fn = registry[name]
        try:
            ok, note = fn(args.golden_dir)
        except (CarevError, OSError) as exc:
            ok, note = False, str(exc)
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {note}")
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def _parse_dims(text: str):
    try:
        dims = tuple(int(t) for t in text.replace("x", ",").split(","))
    except ValueError as exc:
        raise InputError(f"bad dims {text!r}; expected e.g. 12,12,12") from exc
    if not dims or any(m < 2 for m in dims):
        raise InputError("every dimension must be >= 2")
    return dims


def _median_time(fn, repeats: int) -> float:
    import statistics

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bench_case(p: int, dims, repeats: int = 5):
    """One benchmark row.  The structured check never materializes the full
    transition matrix; the dense side runs elimination on the N x N matrix,
    for N up to MATRIX_SIZE_CAP.  Returns (N, t_structured, t_dense or None)."""
    rule = _all_ones_rule(p, dims)
    n = rule.size
    reversibility(rule)  # warm field/modulus caches outside the timed region
    t_structured = _median_time(lambda: reversibility(rule), repeats)
    t_dense = None
    if n <= MATRIX_SIZE_CAP:
        mat = build_T(rule).int_matrix()
        t_dense = _median_time(lambda: kernels.det_mod(mat, p), repeats)
    return n, t_structured, t_dense


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise InputError(f"--repeats must be >= 1, got {args.repeats}")
    dims_list = [_parse_dims(t) for t in args.dims] or [(12, 12, 12)]
    rows = []
    for dims in dims_list:
        n, t_s, t_d = bench_case(args.p, dims, repeats=args.repeats)
        ratio = "" if t_d is None else f"{t_d / t_s:.2f}"
        rows.append((n, f"{t_s:.6f}", "" if t_d is None else f"{t_d:.6f}", ratio))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["N", "t_structured", "t_dense", "ratio"])
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        serialize.atomic_write_text(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@cache  # built once per process: building costs about 1.5 ms, a fifth of a small evolve
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carev",
        description=(
            "Exact reversibility analysis and inversion of linear cellular "
            "automata over Z_p with null boundary conditions.  Rules are JSON "
            "files, patterns and matrices plain text, images PGM (P2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rule(sp):
        sp.add_argument("rule", help="rule JSON file")

    def add_report(sp):
        sp.add_argument("--report", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("check", help="decide reversibility (exit 0/10)")
    add_rule(sp)
    add_report(sp)

    sp = sub.add_parser("invert", help="compute and verify the exact inverse matrix")
    add_rule(sp)
    sp.add_argument("--out", required=True, help="output matrix file")
    add_report(sp)

    for name, blurb in (
        ("evolve", "run the automaton forward"),
        ("reverse", "run the automaton backward via the inverse"),
    ):
        sp = sub.add_parser(name, help=blurb)
        add_rule(sp)
        sp.add_argument("pattern", help="pattern text file")
        sp.add_argument("--steps", type=int, required=True)
        sp.add_argument("--out", required=True, help="output pattern file")
        sp.add_argument("--pgm", help="also write slice images with this prefix")

    sp = sub.add_parser("roots", help="per-axis characteristic polynomials and roots")
    add_rule(sp)
    add_report(sp)

    sp = sub.add_parser("jordan", help="generalized Jordan form report")
    add_rule(sp)
    add_report(sp)

    sp = sub.add_parser(
        "paper-examples", help="verify the bundled worked examples against goldens"
    )
    sp.add_argument("--list", action="store_true", help="list example ids and exit")
    sp.add_argument("--only", nargs="*", help="run only these example ids")
    sp.add_argument("--golden-dir", help="read goldens from this directory instead")

    sp = sub.add_parser(
        "bench", help="structured reversibility check vs dense elimination"
    )
    sp.add_argument(
        "--dims",
        action="append",
        default=[],
        help="grid dimensions, e.g. 12,12,12 (repeatable)",
    )
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--repeats", type=int, default=5)
    sp.add_argument("--out", help="write the CSV here as well as stdout")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Command X is handled by cmd_X, looked up when called: the cached parser
    # holds no function objects.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except NotReversible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IRREVERSIBLE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalVerificationFailed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CarevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED if isinstance(exc, UnsupportedRange) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
