"""Command line surface: build or load arrangements, run the computations
and the verification suite, and emit human tables or machine JSON.

Each command handler returns its results payload, its checks, its human
lines and the cone profiles it computed.  A check is one record built by
`_check`: its `name`, whether it is `ok`, and the values it compared (both
sides of an identity, a deviation and its tolerance), with an optional
`note`.  `main` alone renders checks: sorted by name into the JSON report,
and as `PASS name (note)` or `FAIL name` lines after the human output, so
runs diff cleanly.

Reports always carry the command echo, the arrangement fingerprint, the
results, the checks, wall-clock timings, and `seeds`: the sample count and
seed when some profile was sampled, else empty.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache

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
from .geometry import enumerate_faces, load_arrangement, recession_cone, signs_to_str
from .intrinsic import (
    DEFAULT_SAMPLES,
    FLOAT_FLOOR,
    intrinsic_element,
    klivans_swartz_from_profiles,
    try_exact_profile,
    verify_intrinsic_product,
)
from .lattice import build_lattice
from .scalars import T, Poly, format_scalar, poly_str
from .tits import (
    _deviation,
    basis_element,
    element_to_json,
    flat_multiply,
    is_characteristic,
    multiply,
    q_basis,
    takeuchi_element,
    unit_element,
)

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
        help="non-negative seed for the generic family and for Monte Carlo "
        "sampling",
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
                return load_arrangement(args.file)
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


def _profile_json(signs, prof, dim):
    out = {
        "sign_vector": signs_to_str(signs),
        "method": prof.method,
        "values": [float(v) for v in prof.values],
        "half_width": [float(h) for h in prof.half_width],
        "dim": dim,
    }
    if prof.samples is not None:
        out["samples"] = prof.samples
        out["seed"] = prof.seed
    return out


def _field(value):
    """A check field as JSON: Fraction and Poly as text, tuples as lists,
    lists and dicts entry by entry; the rest as it is."""
    if isinstance(value, (Fraction, Poly)):
        return format_scalar(value)
    if isinstance(value, dict):
        return {k: _field(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_field(v) for v in value]
    return value


def _check(name, ok, **fields):
    """The one check record: its name, whether it passed, and the values
    it compared, each through _field."""
    return {"name": name, "ok": ok, **_field(fields)}


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
    return results, [], human, {}


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
    return results, [], human, {}


def _cmd_charpoly(arr, faces, lattice, args):
    chi = lattice.charpoly()
    return {"charpoly": poly_str(chi)}, [], [poly_str(chi)], {}


def _cmd_zaslavsky(arr, faces, lattice, args):
    rep = zaslavsky_counts(faces, lattice)
    checks = [
        _check(
            "zaslavsky-chambers",
            rep.chambers_census == rep.chambers_from_chi,
            census=rep.chambers_census,
            from_chi=rep.chambers_from_chi,
        ),
        _check(
            "zaslavsky-essentially-bounded",
            rep.bounded_census == rep.bounded_from_chi,
            census=rep.bounded_census,
            from_chi=rep.bounded_from_chi,
        ),
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
    return results, checks, human, {}


# element kind -> (builder, the parameter it is characteristic for); the
# signed braid arrangement has its own Adams element, and the intrinsic
# element needs sampling arguments
_ELEMENTS = {
    "unit": (unit_element, "1"),
    "takeuchi": (takeuchi_element, "-1"),
    "adams": (adams_a, "t (after dividing by t)"),
    "coordinate": (coordinate_element, "t"),
}


def _cmd_element(arr, faces, lattice, args):
    extra, profiles = {}, {}
    if args.kind == "intrinsic":
        nu = intrinsic_element(
            arr, faces, samples=args.samples, seed=args.seed
        )
        w, param, profiles = nu.element, "t", nu.profiles
        extra = {
            "profiles": [
                _profile_json(s, p, faces.face(s).dim)
                for s, p in sorted(profiles.items())
            ],
            "tolerance": nu.character_tolerance(),
        }
    elif args.kind == "adams" and arr.kind == "signed-braid":
        w, param = adams_b(faces), "2t + 1"
    else:
        build, param = _ELEMENTS[args.kind]
        w = build(faces)
    results = {
        "element": element_to_json(w),
        "characteristic_for": param,
        **extra,
    }
    human = [f"{args.kind} element (characteristic for {param})"]
    for entry in results["element"]:
        human.append(f"  {entry['sign_vector'] or '()':<12} {entry['coeff']}")
    return results, [], human, profiles


# (check name, family it applies to or None for all, element, parameter)
_CHARACTERISTIC = (
    ("characteristic-unit", None, unit_element, Fraction(1)),
    ("characteristic-takeuchi", None, takeuchi_element, Fraction(-1)),
    ("characteristic-adams", "braid", adams_a_normalized, T),
    ("characteristic-adams-signed", "signed-braid", adams_b, Poly((1, 2))),
    ("characteristic-coordinate", "coordinate", coordinate_element, T),
)


def _characteristic_checks(arr, faces, lattice):
    checks = []
    for name, family, build, param in _CHARACTERISTIC:
        if family not in (None, arr.kind):
            continue
        rep = is_characteristic(lattice, build(faces), param)
        fields = {"parameter": rep.parameter}
        if not rep.ok:
            fields["violations"] = [
                {"flat": x, "character": chi, "expected": exp}
                for x, chi, exp, _ in rep.violations()
            ]
        checks.append(_check(name, rep.ok, **fields))
    return checks


def _kung_check(lattice, s, t):
    rep = verify_kung(lattice, s, t)
    return _check(
        f"kung-s{s}-t{t}",
        rep.ok,
        lhs=rep.lhs,
        flat_sum=rep.flat_sum,
        pair_sum=rep.pair_sum,
    )


def _deletion_checks(arr, faces, lattice, which=None):
    checks = []
    for h in range(arr.m) if which is None else [which]:
        rep = verify_deletion_restriction(arr, faces, lattice, h)
        note = {} if rep.rank_ok else {"note": "skipped: deletion drops rank"}
        checks.append(
            _check(
                f"deletion-h{h}",
                rep.ok or not rep.rank_ok,
                chi=rep.chi_full,
                chi_deleted=rep.chi_deleted,
                chi_restriction=rep.chi_restriction,
                **note,
            )
        )
    return checks


def _unit_identity_check(faces):
    u = unit_element(faces)
    ok = all(
        multiply(faces, u, h) == h and multiply(faces, h, u) == h
        for h in (basis_element(faces.arr, f.signs) for f in faces)
    )
    return _check("unit-identity", ok, faces=len(faces))


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
    return _check("q-basis", ok, flats=len(lattice))


def _product_checks(arr, faces, nu, s, t):
    checks = []
    if arr.kind == "braid":
        a = adams_a(faces)
        lhs = multiply(faces, a.evaluate(s), a.evaluate(t))
        checks.append(
            _check(
                "adams-multiplicativity",
                lhs == a.evaluate(s * t),
                s=s,
                t=t,
            )
        )
    rep = verify_intrinsic_product(faces, nu, s, t)
    checks.append(
        _check(
            "intrinsic-product",
            rep.ok,
            s=rep.s,
            t=rep.t,
            max_deviation=rep.max_deviation,
            tolerance=rep.tolerance,
        )
    )
    return checks


def _profile_consistency_check(faces, profiles):
    """Total measure 1 and vanishing Euler alternation (sign alternating
    sum is +-1 exactly when the cone is a subspace)."""
    ok = True
    worst = 0.0
    for f in faces:
        prof = profiles[f.signs]
        slack = sum(prof.half_width) + FLOAT_FLOOR
        dev = abs(prof.total() - 1.0)
        alt = prof.euler_alternation()
        if f.essentially_bounded:
            dev = max(dev, abs(abs(alt) - 1.0))
        else:
            dev = max(dev, abs(alt))
        worst = max(worst, dev)
        ok = ok and dev <= slack
    return _check("profile-consistency", ok, max_deviation=worst)


def _nu_checks(faces, nu):
    tol = nu.character_tolerance()
    out = []
    for name, value, target in (
        ("nu-at-1-vs-unit", 1.0, unit_element(faces)),
        ("nu-at-minus-1-vs-takeuchi", -1.0, takeuchi_element(faces)),
    ):
        dev = _deviation(nu.element.evaluate(value), target)
        out.append(_check(name, dev <= tol, max_deviation=dev, tolerance=tol))
    return out


def _klivans_swartz_check(faces, lattice, profiles):
    rep = klivans_swartz_from_profiles(faces, lattice, profiles)
    return _check(
        "klivans-swartz",
        rep.ok(),
        estimate=rep.estimate,
        exact=rep.exact,
        deviations=rep.deviations,
    )


# Kung's identity at these pairs too, besides (--s, --t), in `verify all`
_KUNG_PAIRS = ((Fraction(-1), Fraction(3)), (Fraction(1, 2), Fraction(-2)))


def _cmd_verify(arr, faces, lattice, args):
    """Each group's checks; `all` is every group plus the checks that
    belong to none."""
    s, t = args.s, args.t
    checks, profiles = [], {}
    if args.what in ("characteristic", "all"):
        checks += _characteristic_checks(arr, faces, lattice)
    if args.what in ("kung", "all"):
        checks.append(_kung_check(lattice, s, t))
    if args.what in ("deletion", "all"):
        checks += _deletion_checks(arr, faces, lattice, args.hyperplane)
    if args.what in ("product", "all"):
        nu = intrinsic_element(
            arr, faces, samples=args.samples, seed=args.seed
        )
        checks += _product_checks(arr, faces, nu, s, t)
        profiles = nu.profiles
    if args.what == "all":
        rep = zaslavsky_counts(faces, lattice)
        checks += [
            _unit_identity_check(faces),
            _check(
                "zaslavsky",
                rep.ok,
                chambers=rep.chambers_census,
                essentially_bounded=rep.bounded_census,
            ),
            *(_kung_check(lattice, *pair) for pair in _KUNG_PAIRS),
            _q_basis_check(lattice),
            *_nu_checks(faces, nu),
            _profile_consistency_check(faces, nu.profiles),
            _klivans_swartz_check(faces, lattice, nu.profiles),
        ]
    return {"checked": len(checks)}, checks, [], profiles


def _cmd_intrinsic(arr, faces, lattice, args):
    if args.exact_only:
        found = (
            (f.signs, try_exact_profile(recession_cone(arr, f))) for f in faces
        )
        profiles = {s: p for s, p in found if p is not None}
    else:
        profiles = intrinsic_element(
            arr, faces, samples=args.samples, seed=args.seed
        ).profiles
    rows, human, computed, skipped = [], [], [], []
    for f in faces:
        label = f"  {signs_to_str(f.signs) or '()':<12} dim {f.dim}"
        if f.signs not in profiles:
            skipped.append(f)
            rows.append(
                {
                    "sign_vector": signs_to_str(f.signs),
                    "dim": f.dim,
                    "method": "unavailable",
                }
            )
            human.append(f"{label}: needs Monte Carlo (skipped)")
            continue
        computed.append(f)
        r = _profile_json(f.signs, profiles[f.signs], f.dim)
        rows.append(r)
        vals = ", ".join(
            _fmt_float(v, h) for v, h in zip(r["values"], r["half_width"])
        )
        human.append(f"{label} [{r['method']}]: ({vals})")
    checks = []
    if computed:
        checks.append(_profile_consistency_check(computed, profiles))
    ks = None
    if not any(f.is_chamber() for f in skipped):
        ks = _klivans_swartz_check(faces, lattice, profiles)
        checks.append(ks)
        est = ", ".join(_fmt_float(v) for v in ks["estimate"])
        exa = ", ".join(_fmt_float(v) for v in ks["exact"])
        human.append(f"chi from chamber volumes: ({est})")
        human.append(f"chi exact:               ({exa})")
    results = {
        "profiles": rows,
        "klivans_swartz": ks,
        "skipped": [signs_to_str(f.signs) for f in skipped],
    }
    return results, checks, human, profiles


_HANDLERS = {
    "faces": _cmd_faces,
    "flats": _cmd_flats,
    "charpoly": _cmd_charpoly,
    "zaslavsky": _cmd_zaslavsky,
    "element": _cmd_element,
    "verify": _cmd_verify,
    "intrinsic": _cmd_intrinsic,
}


# built on the first call to main, once per process, and not at import
_parser = cache(build_parser)


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    hyperplane = getattr(args, "hyperplane", None)
    if hyperplane is not None and args.what not in ("deletion", "all"):
        parser.error("--hyperplane only applies to verify deletion and all")
    start = time.perf_counter()
    arr = _load_arrangement(args, parser)
    if hyperplane is not None and not 0 <= hyperplane < arr.m:
        parser.error(
            f"--hyperplane must lie in [0, {arr.m}), got {hyperplane}"
        )
    faces = enumerate_faces(arr)
    lattice = build_lattice(arr, faces)
    built = time.perf_counter()
    try:
        results, checks, human, profiles = _HANDLERS[args.command](
            arr, faces, lattice, args
        )
    except WrongFamily as exc:
        parser.error(str(exc))
    done = time.perf_counter()
    ok = all(c["ok"] for c in checks)
    checks = sorted(checks, key=lambda c: c["name"])
    report = {
        "command": " ".join(
            [args.command] + ([args.kind] if args.command == "element" else [])
            + ([args.what] if args.command == "verify" else [])
        ),
        "fingerprint": arr.fingerprint(),
        "results": results,
        "checks": checks,
        "ok": ok,
        "timings": {
            "build_s": round(built - start, 3),
            "total_s": round(done - start, 3),
        },
        "seeds": (
            {"samples": args.samples, "seed": args.seed}
            if any(p.samples is not None for p in profiles.values())
            else {}
        ),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in human:
            print(line)
        for c in checks:
            note = f" ({c['note']})" if "note" in c else ""
            print(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}{note}")
        if not ok:
            print("FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
