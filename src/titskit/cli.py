"""Command line surface: build or load arrangements, run the computations
and the verification suite, and emit human tables or machine JSON.

Reports always carry the command echo, the arrangement fingerprint, a
results payload, per-check pass/fail with both sides of each compared
identity, wall-clock timings, and (for stochastic paths) samples and seed.
Check output is sorted by check name so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .elements import (
    GenericDegenerate,
    WrongFamily,
    adams_a,
    adams_a_normalized,
    adams_b,
    build_family,
    coordinate_element,
    verify_deletion_restriction,
    verify_kung,
    zaslavsky_counts,
)
from .geometry import enumerate_faces, recession_cone, signs_to_str
from .intrinsic import (
    DEFAULT_SAMPLES,
    intrinsic_element,
    klivans_swartz_from_profiles,
    try_exact_profile,
    verify_intrinsic_product,
)
from .lattice import build_lattice
from .scalars import T, Poly, format_scalar, poly_str
from .tits import (
    basis_element,
    element_to_json,
    flat_multiply,
    is_characteristic,
    multiply,
    q_basis,
    takeuchi_element,
    unit_element,
)

_FLOOR = 1e-9


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}"
        ) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="titskit",
        description="Exact computations in the face algebra of a real "
        "hyperplane arrangement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument(
        "--family",
        choices=["braid", "signed-braid", "coordinate", "generic"],
        help="built-in arrangement family",
    )
    source.add_argument("--n", type=int, help="family size parameter")
    source.add_argument(
        "--m", type=int, help="hyperplane count (generic family)"
    )
    source.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the generic family and for Monte Carlo sampling",
    )
    source.add_argument("--file", help="arrangement JSON file")
    source.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument(
        "--samples",
        type=_positive_int,
        default=DEFAULT_SAMPLES,
        help="Monte Carlo sample count",
    )

    sub.add_parser("faces", parents=[source])
    sub.add_parser("flats", parents=[source])
    sub.add_parser("charpoly", parents=[source])
    sub.add_parser("zaslavsky", parents=[source])

    p_el = sub.add_parser("element", parents=[source, mc])
    p_el.add_argument(
        "kind",
        choices=["unit", "takeuchi", "adams", "coordinate", "intrinsic"],
    )

    p_ver = sub.add_parser("verify", parents=[source, mc])
    p_ver.add_argument(
        "what",
        choices=["characteristic", "kung", "deletion", "product", "all"],
    )
    p_ver.add_argument(
        "--s", type=_rational, default="2", help="rational parameter"
    )
    p_ver.add_argument(
        "--t", type=_rational, default="3", help="rational parameter"
    )
    p_ver.add_argument(
        "--hyperplane",
        type=int,
        default=None,
        help="restrict the deletion check to one hyperplane index",
    )

    p_int = sub.add_parser("intrinsic", parents=[source, mc])
    p_int.add_argument(
        "--exact-only",
        action="store_true",
        help="report only closed-form profiles; skip Monte Carlo",
    )
    return parser


def _load_arrangement(args, parser):
    try:
        if args.file is not None:
            if args.family is not None:
                parser.error("--family and --file are mutually exclusive")
            try:
                return build_family("file", path=args.file)
            except ValueError as exc:
                parser.error(f"{args.file}: {exc}")
        if args.family is None:
            parser.error("one of --family or --file is required")
        return build_family(
            args.family, n=args.n, m=args.m, seed=args.seed
        )
    except (ValueError, OSError, GenericDegenerate) as exc:
        parser.error(str(exc))


def _fmt_float(v, hw=None):
    if hw is not None and hw > 0:
        return f"{v:.6g} +- {hw:.2g}"
    return f"{v:.6g}"


def _profile_json(signs, prof, dim=None):
    out = {
        "sign_vector": signs_to_str(signs),
        "method": prof.method,
        "values": [float(v) for v in prof.values],
        "half_width": [float(h) for h in prof.half_width],
    }
    if dim is not None:
        out["dim"] = dim
    if prof.samples is not None:
        out["samples"] = prof.samples
        out["seed"] = prof.seed
    return out


def _cmd_faces(arr, faces, lattice, args):
    rows = [
        {
            "sign_vector": signs_to_str(f.signs),
            "dim": f.dim,
            "chamber": f.is_chamber(),
            "essentially_bounded": f.essentially_bounded,
        }
        for f in faces
    ]
    results = {
        "count": len(faces),
        "counts_by_dim": {str(k): v for k, v in faces.counts_by_dim().items()},
        "faces": rows,
    }
    human = [
        f"{len(faces)} faces "
        f"({len(faces.chambers())} chambers, min dim {faces.min_dim})"
    ]
    for r in rows:
        flags = "C" if r["chamber"] else " "
        flags += "b" if r["essentially_bounded"] else " "
        human.append(f"  {r['sign_vector'] or '()':<12} dim {r['dim']} {flags}")
    return results, [], human


def _cmd_flats(arr, faces, lattice, args):
    rows = [
        {
            "index": i,
            "closure": sorted(lattice.flat(i).closure),
            "dim": lattice.flat(i).dim,
            "rank": lattice.flat(i).rank,
            "mobius_to_top": str(lattice.mobius(i, lattice.top)),
        }
        for i in range(len(lattice))
    ]
    results = {
        "count": len(lattice),
        "flats": rows,
        "charpoly": poly_str(lattice.charpoly()),
    }
    human = [f"{len(lattice)} flats, chi = {results['charpoly']}"]
    for r in rows:
        closure = ",".join(str(c) for c in r["closure"]) or "-"
        human.append(
            f"  [{r['index']:>2}] rank {r['rank']} dim {r['dim']} "
            f"mu-to-top {r['mobius_to_top']:>4}  closure {{{closure}}}"
        )
    return results, [], human


def _cmd_charpoly(arr, faces, lattice, args):
    chi = lattice.charpoly()
    return {"charpoly": poly_str(chi)}, [], [poly_str(chi)]


def _cmd_zaslavsky(arr, faces, lattice, args):
    rep = zaslavsky_counts(faces, lattice)
    checks = [
        {
            "name": "zaslavsky-chambers",
            "ok": rep.chambers_census == rep.chambers_from_chi,
            "census": rep.chambers_census,
            "from_chi": rep.chambers_from_chi,
        },
        {
            "name": "zaslavsky-essentially-bounded",
            "ok": rep.bounded_census == rep.bounded_from_chi,
            "census": rep.bounded_census,
            "from_chi": rep.bounded_from_chi,
        },
    ]
    results = {
        "rank": rep.rank,
        "chambers": rep.chambers_census,
        "essentially_bounded": rep.bounded_census,
    }
    human = [
        f"chambers {rep.chambers_census} "
        f"(chi predicts {rep.chambers_from_chi})",
        f"essentially bounded {rep.bounded_census} "
        f"(chi predicts {rep.bounded_from_chi})",
    ]
    return results, checks, human


def _element_for(kind, arr, faces, args):
    if kind == "unit":
        return unit_element(faces), "1"
    if kind == "takeuchi":
        return takeuchi_element(faces), "-1"
    if kind == "adams":
        if arr.kind == "signed-braid":
            return adams_b(faces), "2t + 1"
        return adams_a(faces), "t (after dividing by t)"
    if kind == "coordinate":
        return coordinate_element(faces), "t"
    raise AssertionError(kind)


def _cmd_element(arr, faces, lattice, args):
    if args.kind == "intrinsic":
        nu = intrinsic_element(
            arr, faces, samples=args.samples, seed=args.seed
        )
        results = {
            "element": element_to_json(nu.element),
            "characteristic_for": "t",
            "profiles": [
                _profile_json(s, p, dim=faces.face(s).dim)
                for s, p in sorted(nu.profiles.items())
            ],
            "tolerance": nu.character_tolerance(),
        }
        human = ["intrinsic element (characteristic for t)"]
        for entry in results["element"]:
            human.append(
                f"  {entry['sign_vector'] or '()':<12} {entry['coeff']}"
            )
        return results, [], human
    w, param = _element_for(args.kind, arr, faces, args)
    results = {
        "element": element_to_json(w),
        "characteristic_for": param,
    }
    human = [f"{args.kind} element (characteristic for {param})"]
    for entry in results["element"]:
        human.append(f"  {entry['sign_vector'] or '()':<12} {entry['coeff']}")
    return results, [], human


def _char_report_check(name, rep):
    out = {"name": name, "ok": rep.ok, "parameter": format_scalar(rep.parameter)}
    if not rep.ok:
        out["violations"] = [
            {
                "flat": x,
                "character": format_scalar(chi),
                "expected": format_scalar(exp),
            }
            for x, chi, exp, _ in rep.violations()
        ]
    return out


def _characteristic_checks(arr, faces, lattice):
    checks = [
        _char_report_check(
            "characteristic-unit",
            is_characteristic(lattice, unit_element(faces), Fraction(1)),
        ),
        _char_report_check(
            "characteristic-takeuchi",
            is_characteristic(lattice, takeuchi_element(faces), Fraction(-1)),
        ),
    ]
    if arr.kind == "braid":
        checks.append(
            _char_report_check(
                "characteristic-adams",
                is_characteristic(lattice, adams_a_normalized(faces), T),
            )
        )
    if arr.kind == "signed-braid":
        checks.append(
            _char_report_check(
                "characteristic-adams-signed",
                is_characteristic(
                    lattice, adams_b(faces), Poly((1, 2))
                ),
            )
        )
    if arr.kind == "coordinate":
        checks.append(
            _char_report_check(
                "characteristic-coordinate",
                is_characteristic(lattice, coordinate_element(faces), T),
            )
        )
    return checks


def _kung_checks(lattice, pairs):
    checks = []
    for s, t in pairs:
        rep = verify_kung(lattice, s, t)
        checks.append(
            {
                "name": f"kung-s{s}-t{t}",
                "ok": rep.ok,
                "lhs": str(rep.lhs),
                "flat_sum": str(rep.flat_sum),
                "pair_sum": str(rep.pair_sum),
            }
        )
    return checks


def _deletion_checks(arr, faces, lattice, which=None):
    checks = []
    indices = range(arr.m) if which is None else [which]
    for h in indices:
        rep = verify_deletion_restriction(arr, faces, lattice, h)
        entry = {
            "name": f"deletion-h{h}",
            "chi": poly_str(rep.chi_full),
            "chi_deleted": poly_str(rep.chi_deleted),
            "chi_restriction": poly_str(rep.chi_restriction),
        }
        if not rep.rank_ok:
            entry["ok"] = True
            entry["note"] = "skipped: deletion drops rank"
        else:
            entry["ok"] = rep.identity_ok and rep.transport_ok
        checks.append(entry)
    return checks


def _unit_identity_check(faces):
    u = unit_element(faces)
    ok = True
    for f in faces:
        h = basis_element(faces.arr, f.signs)
        if multiply(faces, u, h) != h or multiply(faces, h, u) != h:
            ok = False
            break
    return {"name": "unit-identity", "ok": ok, "faces": len(faces)}


def _q_basis_check(lattice):
    q = q_basis(lattice)
    ok = True
    total = {}
    for x, qx in q.items():
        for y, qy in q.items():
            prod = flat_multiply(lattice, qx, qy)
            expect = qx if x == y else {}
            ok = ok and prod == expect
        for k, c in qx.items():
            total[k] = total.get(k, Fraction(0)) + c
    total = {k: c for k, c in total.items() if c != 0}
    # completeness: the Q's sum to the unit of the flat algebra (equals
    # H of the minimal flat only when the semilattice has a bottom)
    for y in range(len(lattice)):
        h_y = {y: Fraction(1)}
        ok = ok and flat_multiply(lattice, total, h_y) == h_y
    return {"name": "q-basis", "ok": ok, "flats": len(lattice)}


def _product_checks(arr, faces, nu, s, t):
    checks = []
    if arr.kind == "braid":
        a = adams_a(faces)
        lhs = multiply(faces, a.evaluate(s), a.evaluate(t))
        rhs = a.evaluate(s * t)
        checks.append(
            {
                "name": "adams-multiplicativity",
                "ok": lhs == rhs,
                "s": str(s),
                "t": str(t),
            }
        )
    rep = verify_intrinsic_product(faces, nu, s, t)
    checks.append(
        {
            "name": "intrinsic-product",
            "ok": rep.ok,
            "s": rep.s,
            "t": rep.t,
            "max_deviation": rep.max_deviation,
            "tolerance": rep.tolerance,
        }
    )
    return checks


def _profile_consistency_check(faces, profiles):
    """Total measure 1 and vanishing Euler alternation (sign alternating
    sum is +-1 exactly when the cone is a subspace)."""
    ok = True
    worst = 0.0
    for f in faces:
        prof = profiles[f.signs]
        slack = sum(prof.half_width) + _FLOOR
        dev = abs(prof.total() - 1.0)
        alt = prof.euler_alternation()
        if f.essentially_bounded:
            dev = max(dev, abs(abs(alt) - 1.0))
        else:
            dev = max(dev, abs(alt))
        worst = max(worst, dev)
        ok = ok and dev <= slack
    return {
        "name": "profile-consistency",
        "ok": ok,
        "max_deviation": worst,
    }


def _nu_checks(faces, nu):
    tol = nu.character_tolerance()
    out = []
    for name, value, target in (
        ("nu-at-1-vs-unit", 1.0, unit_element(faces)),
        ("nu-at-minus-1-vs-takeuchi", -1.0, takeuchi_element(faces)),
    ):
        ev = nu.evaluate(value)
        keys = set(ev.coeffs) | set(target.coeffs)
        dev = max(
            (
                abs(ev.coeffs.get(k, 0.0) - float(target.coeffs.get(k, 0)))
                for k in keys
            ),
            default=0.0,
        )
        out.append(
            {
                "name": name,
                "ok": dev <= tol,
                "max_deviation": dev,
                "tolerance": tol,
            }
        )
    return out


def _klivans_swartz_check(faces, lattice, profiles):
    rep = klivans_swartz_from_profiles(faces, lattice, profiles)
    return {
        "name": "klivans-swartz",
        "ok": rep.ok(),
        "estimate": [float(v) for v in rep.estimate],
        "exact": [float(v) for v in rep.exact],
        "deviations": [float(v) for v in rep.deviations],
    }


def _cmd_verify(arr, faces, lattice, args):
    s, t = args.s, args.t
    checks = []
    if args.what == "characteristic":
        checks += _characteristic_checks(arr, faces, lattice)
    elif args.what == "kung":
        checks += _kung_checks(lattice, [(s, t)])
    elif args.what == "deletion":
        checks += _deletion_checks(arr, faces, lattice, args.hyperplane)
    elif args.what == "product":
        nu = intrinsic_element(
            arr, faces, samples=args.samples, seed=args.seed
        )
        checks += _product_checks(arr, faces, nu, s, t)
    else:
        checks.append(_unit_identity_check(faces))
        checks += _characteristic_checks(arr, faces, lattice)
        rep = zaslavsky_counts(faces, lattice)
        checks.append(
            {
                "name": "zaslavsky",
                "ok": rep.ok,
                "chambers": rep.chambers_census,
                "essentially_bounded": rep.bounded_census,
            }
        )
        checks += _deletion_checks(arr, faces, lattice, args.hyperplane)
        checks += _kung_checks(
            lattice,
            [(s, t), (Fraction(-1), Fraction(3)), (Fraction(1, 2), Fraction(-2))],
        )
        checks.append(_q_basis_check(lattice))
        nu = intrinsic_element(
            arr, faces, samples=args.samples, seed=args.seed
        )
        checks += _product_checks(arr, faces, nu, s, t)
        checks += _nu_checks(faces, nu)
        checks.append(_profile_consistency_check(faces, nu.profiles))
        checks.append(_klivans_swartz_check(faces, lattice, nu.profiles))
    results = {"checked": len(checks)}
    human = []
    for c in sorted(checks, key=lambda c: c["name"]):
        status = "PASS" if c["ok"] else "FAIL"
        note = f" ({c['note']})" if "note" in c else ""
        human.append(f"{status} {c['name']}{note}")
    return results, checks, human


def _cmd_intrinsic(arr, faces, lattice, args):
    if args.exact_only:
        profiles = {}
        for f in faces:
            prof = try_exact_profile(recession_cone(arr, f))
            if prof is not None:
                profiles[f.signs] = prof
    else:
        profiles = intrinsic_element(
            arr, faces, samples=args.samples, seed=args.seed
        ).profiles
    rows = []
    skipped = []
    for f in faces:
        if f.signs in profiles:
            rows.append(_profile_json(f.signs, profiles[f.signs], dim=f.dim))
        else:
            skipped.append(f.signs)
            rows.append(
                {
                    "sign_vector": signs_to_str(f.signs),
                    "dim": f.dim,
                    "method": "unavailable",
                }
            )
    checks = []
    computed = [f for f in faces if f.signs in profiles]
    if computed:
        checks.append(_profile_consistency_check(computed, profiles))
    ks = None
    if all(c.signs in profiles for c in faces.chambers()):
        ks = _klivans_swartz_check(faces, lattice, profiles)
        checks.append(ks)
    results = {
        "profiles": rows,
        "klivans_swartz": ks,
        "skipped": [signs_to_str(s) for s in skipped],
    }
    human = []
    for r in rows:
        if r["method"] == "unavailable":
            human.append(
                f"  {r['sign_vector'] or '()':<12} dim {r['dim']}: "
                "needs Monte Carlo (skipped)"
            )
            continue
        vals = ", ".join(
            _fmt_float(v, h)
            for v, h in zip(r["values"], r["half_width"])
        )
        human.append(
            f"  {r['sign_vector'] or '()':<12} dim {r['dim']} "
            f"[{r['method']}]: ({vals})"
        )
    if ks is not None:
        est = ", ".join(_fmt_float(v) for v in ks["estimate"])
        exa = ", ".join(_fmt_float(v) for v in ks["exact"])
        human.append(f"chi from chamber volumes: ({est})")
        human.append(f"chi exact:               ({exa})")
    return results, checks, human


_HANDLERS = {
    "faces": _cmd_faces,
    "flats": _cmd_flats,
    "charpoly": _cmd_charpoly,
    "zaslavsky": _cmd_zaslavsky,
    "element": _cmd_element,
    "verify": _cmd_verify,
    "intrinsic": _cmd_intrinsic,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    arr = _load_arrangement(args, parser)
    hyperplane = getattr(args, "hyperplane", None)
    if hyperplane is not None and not 0 <= hyperplane < arr.m:
        parser.error(
            f"--hyperplane must lie in [0, {arr.m}), got {hyperplane}"
        )
    faces = enumerate_faces(arr)
    lattice = build_lattice(arr, faces)
    built = time.perf_counter()
    try:
        results, checks, human = _HANDLERS[args.command](
            arr, faces, lattice, args
        )
    except WrongFamily as exc:
        parser.error(str(exc))
    done = time.perf_counter()
    ok = all(c["ok"] for c in checks)
    report = {
        "command": " ".join(
            [args.command] + ([args.kind] if args.command == "element" else [])
            + ([args.what] if args.command == "verify" else [])
        ),
        "fingerprint": arr.fingerprint(),
        "results": results,
        "checks": sorted(checks, key=lambda c: c["name"]),
        "ok": ok,
        "timings": {
            "build_s": round(built - start, 3),
            "total_s": round(done - start, 3),
        },
        "seeds": (
            {"samples": args.samples, "seed": args.seed}
            if hasattr(args, "samples")
            else {}
        ),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in human:
            print(line)
        if checks and not args.command == "verify":
            for c in report["checks"]:
                status = "PASS" if c["ok"] else "FAIL"
                print(f"{status} {c['name']}")
        if not ok:
            print("FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
