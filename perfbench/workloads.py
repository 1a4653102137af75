"""The three benchmark workloads.

Each workload builds its inputs from a seed in ``setup`` (outside the timed
phase), runs a fixed batch of library work in ``run`` with every op bracketed
by ``clock.begin``/``clock.end``, and afterwards checks each op's output in
``check``, returning ``{op: (digest, failure reason or None)}``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import tempfile
from math import gcd
from pathlib import Path


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _call_main(argv):
    """cli.main looked up at call time (so a traced run sees its wrapper);
    returns (exit code or exception text, stdout text)."""
    from modunits import cli

    out = io.StringIO()
    try:
        rc = cli.main(argv, out=out)
    except Exception as exc:  # counted as a failed op, not a crashed run
        rc = "%s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue()


# -- verify-levels -----------------------------------------------------------------


class VerifyLevels:
    """`modunits verify --N 4..14 --seed S` in-process; one op is one level."""

    name = "verify-levels"
    # 7 batches at 40 s: the 11th-largest of 77 ops is the middle of level 13's seven
    nominal_batch_s = 5.5
    levels = range(4, 15)
    expected_reports = 124

    def setup(self, seed, batch, work_dir):
        from modunits import cli  # noqa: F401  (import is part of set-up)

        return {"seed": seed * 1000 + batch}

    def run(self, inp, clock):
        from modunits import cli

        # _verify_tasks runs one level; bracketing it times each level as an op
        level_tasks = cli._verify_tasks

        def timed_level(N, *args):
            clock.begin(N)
            try:
                return level_tasks(N, *args)
            finally:
                clock.end(N)

        cli._verify_tasks = timed_level
        try:
            return _call_main(["verify", "--N", "4..14", "--seed", str(inp["seed"])])
        finally:
            cli._verify_tasks = level_tasks

    def check(self, inp, out):
        rc, text = out
        try:
            doc = json.loads(text)
            reports = doc["reports"]
        except (ValueError, KeyError, TypeError):
            return {N: (None, "no JSON report (exit %r)" % (rc,)) for N in self.levels}
        whole = []
        if rc != 0:
            whole.append("exit code %r" % (rc,))
        if doc.get("pass") is not True:
            whole.append('"pass" is not true')
        if len(reports) != self.expected_reports:
            whole.append("%d reports, expected %d" % (len(reports), self.expected_reports))
        result = {}
        for N in self.levels:
            mine = [r for r in reports if r.get("N") == N]
            reasons = list(whole)
            if len(mine) != 7 + N // 2:
                reasons.append("%d reports at N=%d, expected %d" % (len(mine), N, 7 + N // 2))
            failed = [r["check"] for r in mine if r.get("pass") is not True]
            if failed:
                reasons.append("failed checks %s" % failed)
            result[N] = (_digest(json.dumps(mine, sort_keys=True)), "; ".join(reasons) or None)
        return result


# -- divpoly-tower -------------------------------------------------------------------

# sha256 of the text `modunits poly <kind> --n <n>` prints, pinned from the
# commit that introduced this benchmark.
PINNED = {
    ("F", 4): "12f37a8a84034d3e623d726fe10e5031f4df997ac13f4d5571b5a90c41fb84fe",
    ("F", 5): "2c57b0994f19b10097fafd38a9950740f380dcc71537ddde653c229d5844ef72",
    ("F", 6): "e8b19d163eff0ebc4429bb9d81fbb1047f782e5e7d13c850a07c0b6bf71cc056",
    ("F", 7): "b289ae2a587f0be8f1c90a098841069f8047ee5efe9fd58de78fc50249799938",
    ("F", 8): "4fe4b375b3c875c1c268416db9fd12bae8875d55c8b35d8c5699c3c7c3ff4b9d",
    ("F", 9): "09f33618258a94000a2aa206238c89007843b839d7ba09d070e2e49514432542",
    ("F", 10): "698ef9bddf745846653c144418be0e65450cd19da59bf7aa883c4acd61fd2998",
    ("F", 11): "36f918ee9943640ea634ec68c54e428c465acfe02e2593a4ba0094a61e2b26b5",
    ("F", 12): "e8db1dc02425e7aad6cf778833e181e01ce62977e1270645e93962579bea445a",
    ("F", 13): "d335d288eeb3a71cebcc5a5178a2653fcb070ef7fc101422ee992c745cdc742a",
    ("F", 14): "6da32cca99016d454e3653c366b2cf4e861569c2b041b42f44b062aea671d548",
    ("F", 15): "0612bedafd54251de929f80563d61c84d12279ddff7686107c02cbd0441ba0e4",
    ("F", 16): "749f73968a08082ceedbb40a198443ac118af752b2dbf0237f97a0c9e5cd9b6c",
    ("P", 45): "b907d13c9e269177ad2f0c24ea594f19960608d80e0ccdf6fdcb49126d7da1e4",
}


class DivpolyTower:
    """`modunits poly F --n k --cache DIR` for k = 4..16 and `poly P --n 45`,
    one cli.main call each (as separate user calls), cold into a fresh cache
    directory, then the same calls again as warm reads.  One op is one
    polynomial: its cold and its warm call."""

    name = "divpoly-tower"
    # 4 batches at 40 s: the 11th-largest of 56 ops sits among the four F_15
    nominal_batch_s = 9.5
    polys = sorted(PINNED, key=lambda kn: (kn[0] == "P", kn[1]))

    def setup(self, seed, batch, work_dir):
        from modunits import cli  # noqa: F401  (import is part of set-up)

        order = list(range(len(self.polys)))
        random.Random("%d:%d" % (seed, batch)).shuffle(order)
        return {"order": order, "cache": tempfile.mkdtemp(prefix="polycache-", dir=work_dir)}

    def run(self, inp, clock):
        out = {}
        for phase in ("cold", "warm"):
            for op in inp["order"]:
                kind, n = self.polys[op]
                clock.begin(op)
                out[phase, op] = _call_main(["poly", kind, "--n", str(n), "--cache", inp["cache"]])
                clock.end(op)
        return out

    def check(self, inp, out):
        stored = sorted(p.name for p in Path(inp["cache"]).iterdir())
        shutil.rmtree(inp["cache"], ignore_errors=True)
        result = {}
        for op, (kind, n) in enumerate(self.polys):
            (rc_cold, cold), (rc_warm, warm) = out["cold", op], out["warm", op]
            reasons = []
            if rc_cold != 0 or rc_warm != 0:
                reasons.append("exit codes %r/%r" % (rc_cold, rc_warm))
            if hashlib.sha256(cold.encode()).hexdigest() != PINNED[kind, n]:
                reasons.append("cold output differs from the pinned digest")
            if warm != cold:
                reasons.append("warm output differs from cold output")
            if "%s_%06d.json" % (kind, n) not in stored:
                reasons.append("no cache entry stored")
            result[op] = (_digest((cold, warm)), "; ".join(reasons) or None)
        return result


# -- lattice-dictionary ------------------------------------------------------------


def _ledger_ok(v, N):
    M = N * gcd(N, 2)
    return sum(v) % 12 == 0 and sum(k * k * x for k, x in enumerate(v, start=1)) % M == 0


def _s_vectors(rng, N, count):
    """Small vectors of S, built without the library.

    For m = N//2 >= 3 they are combinations, with coefficients +-1 and +-2,
    of three random members of a fixed family of vectors in S: with
    t = (2, -3, 1, 0, ...) (ledger (0, -1)), the family is
    (2k+1) t + e_{k+1} - e_k for k = 1..m-1, 12 (t + e_1) and M t,
    M = N gcd(N, 2).  For m = 2 (N = 4, 5) small vectors are drawn until one
    satisfies both congruences.
    """
    m = N // 2
    out = []
    if m < 3:
        while len(out) < count:
            v = tuple(rng.randint(-12, 12) for _ in range(m))
            if any(v) and _ledger_ok(v, N):
                out.append(v)
        return out
    t = [2, -3, 1] + [0] * (m - 3)
    family = []
    for k in range(1, m):
        g = [(2 * k + 1) * x for x in t]
        g[k] += 1
        g[k - 1] -= 1
        family.append(g)
    family.append([12 * x + (12 if i == 0 else 0) for i, x in enumerate(t)])
    family.append([N * gcd(N, 2) * x for x in t])
    while len(out) < count:
        v = [0] * m
        for g in rng.sample(family, 3):
            c = rng.choice((-2, -1, 1, 2))
            v = [a + c * b for a, b in zip(v, g)]
        if any(v):
            out.append(tuple(v))
    return out


class LatticeDictionary:
    """basis_S(N) and lattice_index(N) for N = 4..200; seeded S-vectors through
    to_p_expression / expand_p_expression, and for N = 20..60 also through
    product_series(v, N//2 + 2) and decompose_series.  One op is one level."""

    name = "lattice-dictionary"
    nominal_batch_s = 10.0
    levels = range(4, 201)
    series_levels = range(20, 61)
    per_level = 3

    def setup(self, seed, batch, work_dir):
        from modunits.unit_lattice import ExpVector

        rng = random.Random("%d:%d" % (seed, batch))
        vectors = {}
        for N in self.levels:
            vs = _s_vectors(rng, N, self.per_level)
            if not all(_ledger_ok(v, N) for v in vs):
                raise RuntimeError("generated a vector outside S at N=%d" % N)
            vectors[N] = [ExpVector(N, v) for v in vs]
        # levels share no cached state, so a seeded order spreads ops of every
        # size over the batch instead of timing all large levels at its end
        order = list(self.levels)
        rng.shuffle(order)
        return {"order": order, "vectors": vectors}

    def run(self, inp, clock):
        from modunits import siegel, unit_lattice as ul

        vectors = inp["vectors"]
        out = {}
        for N in inp["order"]:
            clock.begin(N)
            try:
                basis = ul.basis_S(N)
                index = ul.lattice_index(N)
                pexprs = [ul.to_p_expression(e) for e in vectors[N]]
                back = [ul.expand_p_expression(p) for p in pexprs]
                found = []
                if N in self.series_levels:
                    for e in vectors[N]:
                        sp = siegel.product_series(e, N // 2 + 2)
                        found.append(ul.decompose_series(sp.fstar, N))
                out[N] = (basis, index, pexprs, back, found)
            except Exception as exc:  # counted as a failed op, not a crashed run
                out[N] = "%s: %s" % (type(exc).__name__, exc)
            clock.end(N)
        return out

    def check(self, inp, out):
        from modunits.unit_lattice import is_in_S

        vectors = inp["vectors"]
        result = {}
        for N in self.levels:
            if isinstance(out[N], str):
                result[N] = (None, out[N])
                continue
            basis, index, pexprs, back, found = out[N]
            rows = [b.e for b in basis]
            m = N // 2
            reasons = []
            if len(rows) != m or any(len(r) != m for r in rows):
                reasons.append("basis is not %d x %d" % (m, m))
            elif any(rows[i][j] for i in range(m) for j in range(i)):
                reasons.append("basis is not upper triangular")
            else:
                det = 1
                for i in range(m):
                    det *= rows[i][i]
                if abs(det) != index:
                    reasons.append("|det| %d != lattice_index %d" % (abs(det), index))
                # [Z^m : S] = 12 N gcd(N, 2): the ledger map Z^m -> Z/12 x Z/M is onto
                if index != 12 * N * gcd(N, 2):
                    reasons.append("index %d != 12 N gcd(N, 2)" % index)
            if not all(is_in_S(b) and _ledger_ok(b.e, N) for b in basis):
                reasons.append("a basis row is not in S")
            if back != [(1, e) for e in vectors[N]]:
                reasons.append("p-expression round trip failed")
            if N in self.series_levels and found != vectors[N]:
                reasons.append("decompose_series did not recover v")
            digest = _digest((rows, index, [p.to_obj() for p in pexprs], back, found))
            result[N] = (digest, "; ".join(reasons) or None)
        return result


WORKLOADS = {w.name: w for w in (VerifyLevels(), DivpolyTower(), LatticeDictionary())}
