"""Command-line front end: polynomial tables, Siegel expansions, lattice
bases, decomposition, and the batch verification harness.

Exit codes: 0 success, 1 verification failure or a closed standard output,
2 usage or input error.
Output is deterministic for fixed flags (sorted JSON, no timestamps).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import tempfile
from math import gcd as _int_gcd
from pathlib import Path

from . import __version__, curve_series, divpoly, unit_lattice
from .bivar_poly import (
    RatPoly,
    poly_from_obj,
    poly_to_obj,
    rat_from_obj,
    rat_to_obj,
    render_obj,
)
from .qseries import QSeries
from .siegel import h_star, product_series
from .unit_lattice import (
    ExpVector,
    NotAUnitProduct,
    basis_S,
    d_to_h,
    decompose_series,
    is_in_S,
    lattice_index,
    p_to_h,
    t_to_h,
    to_p_expression,
    v_to_h,
)

__all__ = ["main", "run", "PolyDiskCache"]


def _dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


# -- on-disk polynomial cache --------------------------------------------------


class PolyDiskCache:
    """One JSON file per (kind, n), e.g. P_000017.json; entries carry the tool
    version and a content hash, and stale or corrupt entries are ignored.
    Writes are atomic (write-temp-then-rename)."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, kind, n):
        return self.root / ("%s_%06d.json" % (kind, n))

    @staticmethod
    def _hash(kind, n, polyobj):
        payload = json.dumps([kind, n, polyobj], sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def load(self, kind, n):
        path = self._path(kind, n)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("toolVersion") != __version__:
            return None
        polyobj = entry.get("polynomial")
        if entry.get("contentHash") != self._hash(kind, n, polyobj):
            return None
        try:
            if "num" in polyobj:
                return rat_from_obj(polyobj)
            return poly_from_obj(polyobj)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return None

    def store(self, kind, n, polyobj):
        """Write polyobj, the poly_to_obj or rat_to_obj object of P_n or F_n."""
        entry = {
            "kind": kind,
            "n": n,
            "polynomial": polyobj,
            "toolVersion": __version__,
            "contentHash": self._hash(kind, n, polyobj),
        }
        path = self._path(kind, n)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                # compact: json.dumps without indent runs the C encoder (json.dump
                # to a file would not); load reads any layout
                handle.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# -- subcommands ---------------------------------------------------------------


def _poly_obj(poly):
    return rat_to_obj(poly) if isinstance(poly, RatPoly) else poly_to_obj(poly)


def _cmd_poly(args, out):
    """Print P_n, F_n or D from one term object: the object a cold call
    stores is the one it prints, as JSON or as text."""
    kind = args.kind
    try:
        cache = PolyDiskCache(args.cache) if args.cache else None
    except OSError as exc:
        raise _UsageError("cannot use cache directory: %s" % exc)
    divc = divpoly.DivPolyCache()
    if kind == "D":
        obj = _poly_obj(divpoly.DISCRIMINANT)
    else:
        if args.n is None:
            raise _UsageError("--n is required for kind %s" % kind)
        n = args.n
        if kind == "F" and n < 2:
            raise _UsageError("F_n needs n >= 2")
        poly = cache.load(kind, n) if cache else None
        if poly is not None:
            obj = _poly_obj(poly)
        else:
            try:
                poly = divc.P(n) if kind == "P" else divc.F(n)
            except ValueError as exc:
                raise _UsageError(str(exc))
            obj = _poly_obj(poly)
            if cache:
                cache.store(kind, n, obj)
    print(render_obj(obj) if args.format == "text" else _dump(obj), file=out)
    return 0


def _cmd_series(args, out):
    try:
        series = h_star(args.k, args.N, args.prec)
    except ValueError as exc:
        raise _UsageError(str(exc))
    print(_dump(series.to_obj()), file=out)
    return 0


def _cmd_basis(args, out):
    try:
        basis = basis_S(args.N)
    except ValueError as exc:
        raise _UsageError(str(exc))
    obj = {
        "N": args.N,
        "rank": len(basis),
        "index": lattice_index(args.N),
        "basis": [list(vec.e) for vec in basis],
    }
    print(_dump(obj), file=out)
    return 0


def _cmd_decompose(args, out):
    N = args.N
    if (args.exponents is None) == (args.series is None):
        raise _UsageError("provide exactly one of --exponents or --series")
    if args.exponents is not None:
        try:
            exps = tuple(int(x) for x in args.exponents.split(","))
            evec = ExpVector(N, exps)
        except ValueError as exc:
            raise _UsageError(str(exc))
    else:
        try:
            data = json.loads(Path(args.series).read_text())
            fstar = QSeries.from_obj(data)
        except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
            raise _UsageError("cannot read series file: %s" % exc)
        try:
            evec = decompose_series(fstar, N)
        except NotAUnitProduct as exc:
            print("decomposition failed: %s" % exc, file=sys.stderr)
            return 1
        except ValueError as exc:
            raise _UsageError(str(exc))
    obj = {
        "evector": evec.to_obj(),
        "ledger": list(evec.ledger),
        "in_S": is_in_S(evec),
    }
    if obj["in_S"]:
        obj["pexpression"] = to_p_expression(evec).to_obj()
    print(_dump(obj), file=out)
    return 0


# -- verification harness --------------------------------------------------------


def _ledger_report(N):
    """The t/d/v/p_n ledger values: exact for N >= 7, congruences below."""
    M = N * _int_gcd(N, 2)
    targets = [(t_to_h(N), (0, -1)), (d_to_h(N), (12, 0)), (v_to_h(N), (0, -M))]
    targets += [(p_to_h(n, N)[1], (0, 0)) for n in range(1, N // 2 + 1)]
    ok = True
    for vec, want in targets:
        got = vec.ledger
        if N >= 7:
            ok = ok and got == want
        else:
            ok = ok and (got[0] - want[0]) % 12 == 0 and (got[1] - want[1]) % M == 0
    return {"check": "ledger", "N": N, "precN": 0, "pass": ok}


def _random_vector_in_S(rng, basis, bound=5):
    """A vector of S within h/2 of a draw from [-bound, bound] at each pivot h
    of the upper-triangular basis: add the multiple of each row that lands
    nearest its draw."""
    vec = [0] * len(basis)
    for k, row in enumerate(basis):
        h = row.e[k]
        x = (2 * (rng.randint(-bound, bound) - vec[k]) + h) // (2 * h)
        vec = [v + x * r for v, r in zip(vec, row.e)]
    return ExpVector(basis[0].N, tuple(vec))


def _roundtrip_report(N, trials, seed, precN):
    rng = random.Random("%d:%d" % (seed, N))
    basis = basis_S(N)
    ok = True
    for _ in range(trials):
        vec = _random_vector_in_S(rng, basis)
        sp = product_series(vec, precN)
        ok = ok and decompose_series(sp.fstar, N) == vec
        back = unit_lattice.expand_p_expression(to_p_expression(vec))
        ok = ok and back == (1, vec)
        if not ok:
            break
    return {
        "check": "decompose_roundtrip",
        "N": N,
        "precN": precN,
        "trials": trials,
        "pass": ok,
    }


def _verify_tasks(N, precN, nmax, trials, seed):
    expansion = curve_series.expand_curve(N, precN)
    reports = [
        curve_series.defining_equation_report(expansion),
        curve_series.d_consistency_report(expansion),
        curve_series.express2_series_report(expansion),
        _ledger_report(N),
        _roundtrip_report(N, trials, seed, N // 2 + 2),
    ]
    # the defining equation above rests on p-checks; each is made once
    reports.extend(expansion.p_report(n) for n in range(1, nmax + 1))
    return reports


def _parse_range(spec):
    out = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        try:
            if ".." in chunk or ("-" in chunk and not chunk.startswith("-")):
                lo, hi = map(int, chunk.split(".." if ".." in chunk else "-"))
            else:
                lo = hi = int(chunk)
        except ValueError:
            msg = "%r in --N %s is not a level or a range a..b" % (chunk, spec)
            raise ValueError(msg) from None
        if hi < lo:
            raise ValueError("the range %s is empty" % chunk)
        out.extend(range(lo, hi + 1))
    if not out or any(n < 4 for n in out):
        raise ValueError("levels must be integers >= 4")
    return sorted(set(out))


def _cmd_verify(args, out):
    try:
        levels = _parse_range(args.N)
    except ValueError as exc:
        raise _UsageError(str(exc))
    for name, least in (("prec", 0), ("nmax", 0), ("trials", 1)):
        if getattr(args, name) < least:
            raise _UsageError("--%s must be at least %d" % (name, least))
    reports = []
    for N in levels:
        precN = args.prec if args.prec else 15 * N
        nmax = args.nmax if args.nmax else N // 2 + 2
        reports.extend(_verify_tasks(N, precN, nmax, args.trials, args.seed))
    reports.sort(key=lambda r: (r["N"], r["check"], r.get("n", -1)))
    all_pass = all(r["pass"] for r in reports)
    print(_dump({"pass": all_pass, "reports": reports}), file=out)
    return 0 if all_pass else 1


# -- argument parsing --------------------------------------------------------------


class _UsageError(Exception):
    pass


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared after it:
    parse_args keeps no state between calls, each returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="modunits",
        description="Exact models and modular-unit dictionaries for X1(N).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="print P_n, F_n or the discriminant D")
    p_poly.add_argument("kind", choices=["P", "F", "D"])
    p_poly.add_argument("--n", type=int)
    p_poly.add_argument("--format", choices=["text", "json"], default="text")
    p_poly.add_argument("--cache", metavar="DIR")

    p_series = sub.add_parser("series", help="reduced Siegel series at (k/N, 0)")
    p_series.add_argument("--k", type=int, required=True)
    p_series.add_argument("--N", type=int, required=True)
    p_series.add_argument("--prec", type=int, required=True)

    p_basis = sub.add_parser("basis", help="canonical basis of the lattice S")
    p_basis.add_argument("--N", type=int, required=True)

    p_dec = sub.add_parser("decompose", help="exponent vector -> p-basis dictionary")
    p_dec.add_argument("--N", type=int, required=True)
    p_dec.add_argument("--exponents", metavar="E1,E2,...")
    p_dec.add_argument("--series", metavar="FILE")

    p_ver = sub.add_parser("verify", help="run the identity checks for a range of levels")
    p_ver.add_argument("--N", required=True, metavar="RANGE", help="e.g. 5 or 4..12 or 5,7,8")
    p_ver.add_argument("--prec", type=int, default=0, help="coefficient count (default 15*N)")
    p_ver.add_argument("--nmax", type=int, default=0, help="largest p_n index (default m+2)")
    p_ver.add_argument("--trials", type=int, default=20)
    p_ver.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "poly": _cmd_poly,
    "series": _cmd_series,
    "basis": _cmd_basis,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
}


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        code = _COMMANDS[args.command](args, out)
        out.flush()
        return code
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: send what is still buffered to the null
        # device so the flush at interpreter exit does not fail again
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
