"""Command line interface.

Subcommands: group, census, cqs, mub, crt, verify, bloch-export, galois.  Every
command writes canonical JSON to stdout (byte-stable: sorted keys, sets
ordered by serialized key, no timings) or a human summary with
--format summary; timings and progress go to stderr.  The exit code is 0
exactly when every assertion the command makes holds; failures add a
machine-readable "failures" list.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .cyclotomic import _factorize, canonical_dumps, conductor_for, zeta
from .decomposition import (
    clifford_product_check,
    crt_split,
    energy_decompose,
    energy_fraction_identity,
)
from .galois import gf_build, gf_trace_int
from .mub import MubExtractionError, extract_mubs_from_orbit, mub_complete_set, verify_mub
from .qgroups import (
    _DEFAULT_MAX_SIZE,
    center_of,
    check_weyl_relation,
    clifford_group,
    displacement,
    fourier_matrix,
    symplectic_form,
    wh_generators,
    wh_group,
)
from .rays import Ray
from .states import StateSet, generate_states, seed_orbit, verify_requirements

# step-count ground truth used by the cqs command's self-check
_EXPECTED_STEPS = {
    (2, 1): {"deduped_candidates": 48, "kept": 24, "orbit_sizes": [24]},
    (2, 2): {"orbit_sizes": [24] * 16, "new_states": 384},
    (3, 1): {"kept": 153, "new_states": 153, "orbit_sizes": [9, 36, 108]},
}

def _emit(result: dict, args) -> int:
    """Print the result and derive the exit code from its failures."""
    failures = result.get("failures", [])
    result["ok"] = not failures
    text = canonical_dumps(result)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if getattr(args, "format", "json") == "summary":
        _print_summary(result)
    else:
        print(text)
    return 0 if result["ok"] else 1


def _print_summary(result: dict, indent: str = ""):
    for key in sorted(result):
        value = result[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_summary(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}: [{len(value)} entries]")
        else:
            print(f"{indent}{key}: {value}")


# -- group ------------------------------------------------------------------


def _sl2_order(n: int) -> int:
    """|SL(2, Z_n)| = n^3 * prod over primes p | n of (1 - 1/p^2)."""
    order = n**3
    for p in _factorize(n):
        order = order // (p * p) * (p * p - 1)
    return order


def _order_fits(which: str, n: int, order) -> bool:
    """Whether a group order agrees with the closed forms for dimension n.

    |WH(n)| is n^3 for odd n and 2 n^3 for even n.  |PCL(n)| is
    n^2 |SL(2, Z_n)| (Appleby, J. Math. Phys. 46, 052107, 2005).  |CL(n)|
    is |PCL(n)| times the order of its scalar subgroup, a group of roots of
    unity of the working field, so the quotient divides the conductor.
    """
    if type(order) is not int or order < 1:
        return False
    pcl = n * n * _sl2_order(n)
    if which == "wh":
        return order == (n**3 if n % 2 else 2 * n**3)
    if which == "projective":
        return order == pcl
    return order % pcl == 0 and conductor_for(n) % (order // pcl) == 0


def cmd_group(args) -> int:
    which = args.which
    t0 = time.time()
    closure = {"max_size": args.max_closure}
    if which == "wh":
        table = wh_group(args.dim, **closure)
    elif which == "clifford":
        table = clifford_group(args.dim, **closure)
    elif which == "projective":
        table = clifford_group(args.dim, projective=True, **closure)
    else:
        raise ValueError(f"unknown group kind {which}")
    # only a plain table's scalars and its --elements search read the prime
    if which == "projective":
        path = "exact bodies, projective" if args.elements else "order-only, projective"
    elif args.elements:
        path = f"mod {table.prime}, exact bodies"
    else:
        path = f"order-only mod {table.prime}"
    # before to_json, which builds the bodies that --elements asks for
    print(f"closure in {time.time() - t0:.2f}s ({path})", file=sys.stderr)
    result = table.to_json(include_elements=args.elements)
    result["failures"] = []
    if not _order_fits(which, args.dim, table.order):
        result["failures"].append({"check": "closed-form order", "actual": table.order})
    return _emit(result, args)


# -- census ---------------------------------------------------------------------


def cmd_census(args) -> int:
    """Orders of WH, CL and PCL and the scalar subgroup of CL, per dimension.

    Each order is checked against its closed form (``_order_fits``), and
    the scalar subgroup, read from the residue table of CL, must have
    |CL| / |PCL| elements.
    """
    closure = {"max_size": args.max_closure}
    rows = []
    failures = []
    for n in args.dims:
        t0 = time.time()
        cl_table = clifford_group(n, **closure)
        orders = {
            "wh": wh_group(n, **closure).order,
            "clifford": cl_table.order,
            "projective": clifford_group(n, projective=True, **closure).order,
        }
        scalars = len(center_of(cl_table))
        print(f"dim {n} in {time.time() - t0:.2f}s", file=sys.stderr)
        rows.append({"dim": n, "scalars": scalars, **orders})
        quotient = orders["clifford"] // orders["projective"]
        if scalars != quotient:
            failures.append(
                {
                    "check": "scalar subgroup",
                    "dim": n,
                    "expected": quotient,
                    "actual": scalars,
                }
            )
        failures.extend(
            {"check": f"closed-form order {which}", "dim": n, "actual": order}
            for which, order in orders.items()
            if not _order_fits(which, n, order)
        )
    return _emit({"rows": rows, "failures": failures}, args)


# -- cqs ----------------------------------------------------------------------


def cmd_cqs(args) -> int:
    t0 = time.time()
    initial = None
    if args.resume:
        initial = StateSet.from_json(json.loads(Path(args.resume).read_text()))
        print(f"resuming from {len(initial)} states", file=sys.stderr)
    ss = generate_states(args.dim, args.steps, initial=initial)
    print(f"generation in {time.time() - t0:.2f}s", file=sys.stderr)
    failures = []
    for rep in ss.reports:
        expected = _EXPECTED_STEPS.get((args.dim, rep.step))
        if expected is None:
            continue
        actual = rep.to_json()
        for field_name, want in expected.items():
            got = actual[field_name]
            if got != want:
                failures.append(
                    {
                        "check": f"step {rep.step} {field_name}",
                        "expected": want,
                        "actual": got,
                        "counts": actual,
                    }
                )
    reqs = verify_requirements(ss)
    for name, ok in reqs.items():
        if not ok:
            failures.append({"check": f"requirement {name}", "actual": False})
    result = ss.to_json()
    result["requirements"] = reqs
    result["failures"] = failures
    if not args.out and args.format == "json" and len(ss) > 2000:
        print(
            f"note: {len(ss)} states serialized to stdout", file=sys.stderr
        )
    return _emit(result, args)


# -- mub -----------------------------------------------------------------------


def cmd_mub(args) -> int:
    failures = []
    if args.from_orbit:
        try:
            bs = extract_mubs_from_orbit(seed_orbit(args.dim))
        except MubExtractionError as exc:
            result = {
                "dim": args.dim,
                "source": "orbit",
                "failures": [{"check": "orbit extraction", "error": str(exc)}],
            }
            return _emit(result, args)
        # extraction raises unless its one probability matrix passes every check
        verified = True
    else:
        split = crt_split(args.dim)
        if len(split.factors) != 1:
            result = {
                "dim": args.dim,
                "failures": [
                    {"check": "prime power dimension", "actual": split.factors}
                ],
            }
            return _emit(result, args)
        ((p, ell),) = _factorize(args.dim).items()
        bs = mub_complete_set(p, ell)
        report = verify_mub(bs)
        verified = report.ok
        if not report.ok:
            failures.append(
                {"check": "verify_mub", "violations": report.violations[:10]}
            )
        if report.n_bases != args.dim + 1:
            failures.append(
                {"check": "basis count", "expected": args.dim + 1, "actual": report.n_bases}
            )
    result = bs.to_json()
    result["n_bases"] = len(bs.bases)
    result["verified"] = verified
    result["failures"] = failures
    return _emit(result, args)


# -- crt ----------------------------------------------------------------------


def cmd_crt(args) -> int:
    split = crt_split(args.dim)
    failures = []
    energy = []
    maps = []
    if args.dim <= 64:
        for k in range(args.dim):
            comps = energy_decompose(k, split)
            if not energy_fraction_identity(k, split):
                failures.append({"check": f"energy identity k={k}"})
            energy.append(
                {
                    "k": k,
                    "components": [[ki, ni] for ki, ni in comps],
                    "fraction": f"{Fraction(k, args.dim)}",
                }
            )
            maps.append(
                {
                    "k": k,
                    "forward": list(split.forward(k)),
                    "dual": list(split.dual(k)),
                }
            )
    t0 = time.time()
    report = clifford_product_check(args.dim, mode=args.mode, max_size=args.max_closure)
    print(f"product check in {time.time() - t0:.2f}s", file=sys.stderr)
    if not report.skipped:
        if report.shift_tensor_ok is False:
            failures.append({"check": "shift tensor alignment"})
        if report.clock_tensor_ok is False:
            failures.append({"check": "clock tensor alignment"})
        if report.mode == "full" and not report.matches_central_product:
            failures.append(
                {
                    "check": "central product order",
                    "expected": report.expected_matrix_order,
                    "actual": report.global_order,
                }
            )
        if report.mode != "full" and not report.projective_matches:
            failures.append(
                {
                    "check": "projective product order",
                    "expected": report.projective_product,
                    "actual": report.projective_global_order,
                }
            )
        if not all(report.generators_in_tensor_group.values()):
            failures.append(
                {
                    "check": "conjugated generators in tensor group",
                    "actual": report.generators_in_tensor_group,
                }
            )
    result = {
        "dim": args.dim,
        "factors": list(split.factors),
        "maps": maps,
        "energy": energy,
        "product_check": report.to_json(),
        "failures": failures,
    }
    return _emit(result, args)


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    n = args.dim
    failures = []
    checks = {}
    rep = check_weyl_relation(n)
    checks["commutation"] = rep.ok
    m = conductor_for(n)
    _, x, z = wh_generators(n)
    f = fourier_matrix(n)
    checks["fourier_unitary"] = f.is_unitary()
    checks["clock_is_fourier_conjugate"] = (f @ x @ f.dagger()) == z
    tau = -zeta(m, m // (2 * n))
    comp_ok = True
    for p1 in range(n):
        for p2 in range(n):
            for q1 in range(n):
                for q2 in range(n):
                    lhs = displacement(n, p1, p2) @ displacement(n, q1, q2)
                    sigma = symplectic_form((p1, p2), (q1, q2), n)
                    rhs = displacement(n, p1 + q1, p2 + q2).scale(tau**sigma)
                    if lhs != rhs:
                        comp_ok = False
    checks["displacement_composition"] = comp_ok
    proj = set()
    for p1 in range(n):
        for p2 in range(n):
            proj.add(displacement(n, p1, p2).scalar_canonical().key())
    checks["projective_displacements"] = len(proj) == n * n
    for name, ok in checks.items():
        if not ok:
            failures.append({"check": name})
    result = {"dim": n, "checks": checks, "failures": failures}
    return _emit(result, args)


# -- bloch export ------------------------------------------------------------------


def bloch_xyz(ray: Ray) -> tuple[float, float, float]:
    """Bloch coordinates of a dimension-2 ray; exact arithmetic ends here."""
    if ray.dim != 2:
        raise ValueError("bloch coordinates are defined for dimension 2 only")
    a0, a1 = ray.amps
    if a0.is_zero():
        return (0.0, 0.0, -1.0)
    w = a1.to_complex()  # canonical form: a0 == 1
    denom = 1.0 + abs(w) ** 2
    return (2 * w.real / denom, 2 * w.imag / denom, (1 - abs(w) ** 2) / denom)


def cmd_bloch_export(args) -> int:
    data = json.loads(Path(args.input).read_text())
    ss = StateSet.from_json(data)
    if ss.dim != 2:
        print(
            canonical_dumps(
                {"ok": False, "failures": [{"check": "dim must be 2", "actual": ss.dim}]}
            )
        )
        return 1
    lines = ["x,y,z,generation"]
    for ray in ss.sorted_states():
        x, y, z = bloch_xyz(ray)
        lines.append(f"{x:.12f},{y:.12f},{z:.12f},{ss.states[ray]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


# -- galois ------------------------------------------------------------------------


def cmd_galois(args) -> int:
    field = gf_build(args.p, args.ell)
    elements = []
    for e in field.elements():
        elements.append(
            {
                "index": e.index,
                "coeffs": list(e.coeffs),
                "trace": gf_trace_int(e),
            }
        )
    result = {"field": field.to_json(), "elements": elements, "failures": []}
    return _emit(result, args)


# -- parser -------------------------------------------------------------------------


def _dimension(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"dimension must be >= 2, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"value must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finiteqm",
        description="Exact finite-group quantum constructions over cyclotomic fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dim=True):
        if dim:
            p.add_argument(
                "--dim", type=_dimension, required=True, help="dimension N >= 2"
            )
        p.add_argument("--out", type=str, default=None, help="write JSON here")
        p.add_argument("--format", choices=["json", "summary"], default="json")

    def closure_flags(p):
        p.add_argument("--max-closure", type=_positive, default=_DEFAULT_MAX_SIZE)

    p = sub.add_parser("group", help="close a matrix group and report its order")
    common(p)
    closure_flags(p)
    p.add_argument("--which", choices=["wh", "clifford", "projective"], required=True)
    p.add_argument("--elements", action="store_true", help="include element bodies")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("census", help="group orders checked against closed forms")
    common(p, dim=False)
    closure_flags(p)
    p.add_argument("--dims", type=_dimension, nargs="+", default=[2, 3, 4, 5, 6])
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("cqs", help="generate the rational-probability state set")
    common(p)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--resume", type=str, default=None, help="state set JSON to extend")
    p.set_defaults(func=cmd_cqs)

    p = sub.add_parser("mub", help="mutually unbiased bases")
    common(p)
    p.add_argument(
        "--from-orbit",
        action="store_true",
        help="extract from the orbit of |0> instead of constructing",
    )
    p.set_defaults(func=cmd_mub)

    p = sub.add_parser("crt", help="coprime decomposition checks")
    common(p)
    closure_flags(p)
    p.add_argument("--mode", choices=["full", "projective"], default="projective")
    p.set_defaults(func=cmd_crt)

    p = sub.add_parser("verify", help="defining matrix relations")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bloch-export", help="CSV of Bloch coordinates (dim 2)")
    p.add_argument("--in", dest="input", required=True, help="state set JSON file")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_bloch_export)

    p = sub.add_parser("galois", help="finite field tables")
    common(p, dim=False)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.set_defaults(func=cmd_galois)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a machine-readable failure block
        print(
            canonical_dumps(
                {
                    "ok": False,
                    "failures": [
                        {"check": "command", "error": f"{type(exc).__name__}: {exc}"}
                    ],
                }
            )
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
