import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modunits import cli
from modunits.qseries import QSeries


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def test_poly_text_examples():
    assert run_cli("poly", "F", "--n", "4") == (0, "C\n")
    assert run_cli("poly", "P", "--n", "3") == (0, "-B^3\n")
    code, text = run_cli("poly", "D")
    assert code == 0
    assert text.startswith("B^3*C^4")


def test_console_script_entry_point(monkeypatch, capsys):
    # the `modunits` script pyproject.toml installs calls cli.run, which
    # exits with main's code
    monkeypatch.setattr(sys, "argv", ["modunits", "poly", "F", "--n", "8"])
    with pytest.raises(SystemExit) as done:
        cli.run()
    assert done.value.code == 0
    assert capsys.readouterr().out == "B*C^2 - 2*B^2 + 3*B*C - C^2\n"


def test_poly_json():
    code, text = run_cli("poly", "F", "--n", "8", "--format", "json")
    assert code == 0
    obj = json.loads(text)
    assert obj["terms"][0] == [1, 2, "1"]


def test_poly_f2_is_rational():
    code, text = run_cli("poly", "F", "--n", "2")
    assert code == 0
    assert text.startswith("B / (C^4")
    code, text = run_cli("poly", "F", "--n", "2", "--format", "json")
    obj = json.loads(text)
    assert set(obj) == {"num", "den"}


def test_poly_usage_errors():
    code, _ = run_cli("poly", "F")
    assert code == 2
    code, _ = run_cli("poly", "F", "--n", "1")
    assert code == 2
    code, _ = run_cli("poly", "P", "--n", "500")
    assert code == 2
    code, _ = run_cli("poly", "X", "--n", "4")
    assert code == 2


def test_poly_guard_rejects_large_n(capsys):
    for kind, n in (("P", "201"), ("P", "-201"), ("F", "201")):
        assert run_cli("poly", kind, "--n", n) == (2, "")
        assert capsys.readouterr().err == "error: n=%s exceeds the guard max_n=200\n" % n
    code, _ = run_cli("poly", "P", "--n", "4", "--max-n", "300")
    assert code == 2


def test_poly_guard_applies_to_a_cache_miss_only(tmp_path):
    # an entry past the guard is read like any other; only building is refused
    from modunits.bivar_poly import B, poly_to_obj

    cli.PolyDiskCache(tmp_path).store("P", 201, poly_to_obj(B))
    assert run_cli("poly", "P", "--n", "201", "--cache", str(tmp_path)) == (0, "B\n")
    assert run_cli("poly", "P", "--n", "202", "--cache", str(tmp_path)) == (2, "")


def test_poly_d_leaves_the_cache_alone(tmp_path):
    # D is a constant: --cache names a directory it neither makes nor reads,
    # so a new path stays absent and a regular file is no error
    plain = run_cli("poly", "D")
    assert plain[0] == 0
    new = tmp_path / "new"
    assert run_cli("poly", "D", "--cache", str(new)) == plain
    assert not new.exists()
    afile = tmp_path / "file"
    afile.write_text("")
    assert run_cli("poly", "D", "--cache", str(afile), "--format", "json") == (
        0, run_cli("poly", "D", "--format", "json")[1])
    assert afile.read_text() == ""


def test_series_command():
    code, text = run_cli("series", "--k", "1", "--N", "5", "--prec", "4")
    assert code == 0
    obj = json.loads(text)
    assert obj == {"denomN": 5, "ord": 0, "precN": 4, "coeffs": ["1", "-1", "0", "0"]}
    code, _ = run_cli("series", "--k", "9", "--N", "5", "--prec", "4")
    assert code == 2


def test_basis_command():
    code, text = run_cli("basis", "--N", "9")
    assert code == 0
    obj = json.loads(text)
    assert obj["rank"] == 4
    assert len(obj["basis"]) == 4


def test_decompose_exponents():
    code, text = run_cli("decompose", "--N", "5", "--exponents", "12,12")
    assert code == 0
    obj = json.loads(text)
    assert obj["pexpression"]["alpha"] == 2
    assert obj["pexpression"]["beta"] == 12
    assert obj["in_S"] is True
    # not in S: vector is still reported, without a p-expression
    code, text = run_cli("decompose", "--N", "5", "--exponents", "1,0")
    obj = json.loads(text)
    assert code == 0 and obj["in_S"] is False and "pexpression" not in obj


def test_decompose_series_file(tmp_path):
    from modunits.siegel import product_series
    from modunits.unit_lattice import ExpVector

    vec = ExpVector(5, (12, 12))
    fstar = product_series(vec, 5).fstar
    path = tmp_path / "series.json"
    path.write_text(json.dumps(fstar.to_obj()))
    code, text = run_cli("decompose", "--N", "5", "--series", str(path))
    assert code == 0
    obj = json.loads(text)
    assert obj["evector"]["e"] == [12, 12]
    # a non-product series is an input failure, not a crash
    bogus = QSeries.from_terms(5, {0: 1, 1: 7, 2: 1}, 4)
    path.write_text(json.dumps(bogus.to_obj()))
    code, _ = run_cli("decompose", "--N", "5", "--series", str(path))
    assert code == 1


@pytest.mark.parametrize("index", [1, 0])
def test_decompose_series_with_a_reduced_fraction_fails(index, tmp_path, capsys):
    # a reduced fraction is read as a series that is no unit product (exit 1),
    # not as unreadable input; at index 0 it comes before the constant term
    obj = QSeries.from_terms(5, {0: 1, 1: -1}, 4).to_obj()
    obj["coeffs"][index] = "-3/4"
    path = tmp_path / "series.json"
    path.write_text(json.dumps(obj))
    assert run_cli("decompose", "--N", "5", "--series", str(path)) == (1, "")
    err = capsys.readouterr().err
    assert err == "decomposition failed: series has a non-integral coefficient\n"


@pytest.mark.parametrize("N", [5, 8, 13])
def test_series_file_decomposes_to_its_unit_vector(N, tmp_path):
    # the series command's JSON read back by decompose --series: h*_k is the
    # product of the unit vector at k
    path = tmp_path / "series.json"
    for k in range(1, N // 2 + 1):
        code, text = run_cli("series", "--k", str(k), "--N", str(N), "--prec", str(3 * N))
        assert code == 0
        path.write_text(text)
        code, text = run_cli("decompose", "--N", str(N), "--series", str(path))
        assert code == 0, (N, k)
        want = [int(j == k) for j in range(1, N // 2 + 1)]
        assert json.loads(text)["evector"]["e"] == want, (N, k)


def test_decompose_usage():
    code, _ = run_cli("decompose", "--N", "5")
    assert code == 2
    code, _ = run_cli("decompose", "--N", "5", "--exponents", "1,2", "--series", "x")
    assert code == 2


def test_verify_small_level():
    code, text = run_cli("verify", "--N", "5", "--prec", "75", "--trials", "5")
    assert code == 0
    obj = json.loads(text)
    assert obj["pass"] is True
    checks = {r["check"] for r in obj["reports"]}
    assert checks == {
        "defining_equation",
        "d_consistency",
        "express2_series",
        "ledger",
        "decompose_roundtrip",
        "p_consistency",
    }


@pytest.mark.parametrize("fault", ["decompose_series", "expand_p_expression"])
def test_verify_reports_a_failing_round_trip(monkeypatch, fault):
    # a round trip that comes back wrong fails its report, stops the level's
    # trials at the first failure and leaves every other report as it was
    from modunits.unit_lattice import basis_S

    argv = ("verify", "--N", "5..7", "--trials", "3", "--seed", "1")
    code, text = run_cli(*argv)
    assert code == 0
    calls = []
    if fault == "decompose_series":
        real = cli.decompose_series

        def wrong(fstar, N):
            calls.append(N)
            return real(fstar, N) + basis_S(N)[0]  # another vector of S

        monkeypatch.setattr(cli, "decompose_series", wrong)
    else:
        real = cli.unit_lattice.expand_p_expression

        def wrong(pexp):
            calls.append(pexp.N)
            sign, vec = real(pexp)
            return -sign, vec

        monkeypatch.setattr(cli.unit_lattice, "expand_p_expression", wrong)
    bad_code, bad_text = run_cli(*argv)
    assert bad_code == 1 and calls == [5, 6, 7]
    good, bad = json.loads(text), json.loads(bad_text)
    assert good["pass"] is True and bad["pass"] is False
    assert len(bad["reports"]) == len(good["reports"])
    for before, after in zip(good["reports"], bad["reports"]):
        if before["check"] == "decompose_roundtrip":
            assert before["pass"] is True
            assert after == {**before, "pass": False}
        else:
            assert after == before


def test_verify_range_and_jobs():
    code1, text1 = run_cli("verify", "--N", "4..5", "--trials", "3")
    code2, text2 = run_cli("verify", "--N", "4,5", "--trials", "3")
    assert code1 == code2 == 0
    assert text1 == text2  # the range and the list name the same levels


def test_verify_reports_failure_exit_code(monkeypatch):
    def broken(expansion):
        return {"check": "defining_equation", "N": expansion.N, "precN": 0, "pass": False}

    monkeypatch.setattr(cli.curve_series, "defining_equation_report", broken)
    code, text = run_cli("verify", "--N", "5", "--prec", "30", "--trials", "1")
    assert code == 1
    assert json.loads(text)["pass"] is False


def test_successive_calls_share_no_state(capsys):
    # one parser serves every call in the process; each call parses afresh
    def precisions(text):
        reports = json.loads(text)["reports"]
        return {r["precN"] for r in reports if r["check"] not in ("ledger", "decompose_roundtrip")}

    code, text = run_cli("verify", "--N", "5", "--trials", "1", "--prec", "30")
    assert code == 0 and precisions(text) == {30}
    code, text = run_cli("verify", "--N", "5", "--trials", "1")
    assert code == 0 and precisions(text) == {75}
    capsys.readouterr()
    assert run_cli("verify", "--N", "5", "--prec", "x") == (2, "")
    assert "invalid int value" in capsys.readouterr().err
    assert run_cli("verify", "--N", "5", "--trials", "1") == (0, text)


def test_verify_usage_error():
    code, _ = run_cli("verify", "--N", "3")
    assert code == 2
    code, _ = run_cli("verify", "--N", "abc")
    assert code == 2


def test_determinism_byte_identical():
    a = run_cli("verify", "--N", "5", "--prec", "50", "--trials", "4", "--seed", "9")
    b = run_cli("verify", "--N", "5", "--prec", "50", "--trials", "4", "--seed", "9")
    assert a == b
    c = run_cli("basis", "--N", "12")
    d = run_cli("basis", "--N", "12")
    assert c == d


# sha256 of the stdout of `modunits verify --N 4..10 --trials 2 --seed 9`, as
# printed when product_series still multiplied powers of the h_star series
VERIFY_4_10_SHA256 = "c1f1984bff0847b0b6c7d8efaa0923153b962eea640d4e86c50ecd0c2e1fad23"


def test_verify_stdout_pinned():
    code, text = run_cli("verify", "--N", "4..10", "--trials", "2", "--seed", "9")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_4_10_SHA256


# sha256 of the stdout of `modunits verify --N 4..12 --nmax 36 --trials 2
# --seed 1`, which reaches the checks at n = 0 mod N up to n = 3N; as printed
# when the p_n checks compared p_n with the undivided recurrence
VERIFY_4_12_NMAX_36_SHA256 = "76bd8413d1be2d5209260680ed4f7cc7c0f5fd13f91ad7bd3b80ebde4dc34d6e"


def test_verify_nmax_stdout_pinned():
    code, text = run_cli("verify", "--N", "4..12", "--nmax", "36", "--trials", "2", "--seed", "1")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_4_12_NMAX_36_SHA256


# sha256 of the stdout of `modunits verify --N 120 --trials 2`, as printed
# when every check compared its series to 15N = 1,800 (13 s then; each
# compared window now ends at its proof top, far below that)
VERIFY_120_SHA256 = "f7f3ce1f50639eeb1b3e012f759498f737355abe5c501992833921c9f9af3b2d"


def test_verify_level_120_stdout_pinned():
    code, text = run_cli("verify", "--N", "120", "--trials", "2")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_120_SHA256


# (exit code, sha256 of stdout) of `modunits verify --N 4..9 --nmax 12
# --trials 1 --prec p`, as printed when the p-checks of n <= 4, the checks at
# n = 0 mod N, express2 and the defining equation each had their own exact
# rule.  At these windows a check decided exactly and one compared on the
# window can part ways; below --prec 6 the window at N = 4 is empty
LOW_PREC_SWEEP = {
    1: (1, "c4be84847a938f834bbd745d3c5aef4f7cab2640cd0b11905f7e3e5c5ef9ecc1"),
    2: (1, "992df9230fb96a54e673cd5297e4ee68a46130ab4fad799a2c8a65e0f9221e43"),
    3: (1, "ecd2061e3b2b75adabf9ec94e9224fcac51d20601efd77e437d59510832f4b47"),
    4: (1, "199ddb69c80e338b27724a725802dcad058924148223fcd4ee4f11693ceed2b2"),
    5: (1, "42652edfbc980aa4a48a7ad811b6c306e1746863919581fca9045018017fcc97"),
    6: (0, "609aeb4f3d6b89a90991d201a107fb3b5d0b4cb612bea1f0d5d3f85869599ae7"),
    7: (0, "4940f4be734861c4b718edb28c0c7ea0f6c94f36c8360a8eb1912ab6305e758b"),
    8: (0, "61d0cbdeda96caf603eb967edb7c972251bc9b1a2dbab9a9573c9f61d2b28bd1"),
    10: (0, "6ef4301b32ca6570c1a4c8f4bba1cb02fa3950536c7e08b036e0ee64f5253f30"),
    20: (0, "ba27ca960eee6ee1aca056f834fc679511e674b6858ea2c1b2022e4404a69ec1"),
}


@pytest.mark.parametrize("prec", sorted(LOW_PREC_SWEEP))
def test_verify_low_precision_sweep_pinned(prec):
    code, text = run_cli("verify", "--N", "4..9", "--nmax", "12", "--trials", "1",
                         "--prec", str(prec))
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == LOW_PREC_SWEEP[prec]


def test_random_vector_in_S_lands_near_the_box():
    import random

    from modunits.unit_lattice import basis_S, is_in_S

    rng = random.Random(7)
    for N in range(4, 41):
        basis = basis_S(N)
        for _ in range(20):
            vec = cli._random_vector_in_S(rng, basis)
            assert is_in_S(vec), vec
            for k, ek in enumerate(vec.e):
                h = basis[k].e[k]
                assert -5 - h / 2 < ek <= 5 + h / 2, (N, k + 1, vec)


def test_h_star_cache_untouched_off_the_series_command():
    from modunits.siegel import h_star, product_series
    from modunits.unit_lattice import (
        basis_S,
        decompose_series,
        expand_p_expression,
        to_p_expression,
    )

    h_star.cache_clear()
    code, _ = run_cli("verify", "--N", "4..8", "--trials", "2")
    assert code == 0
    vec = basis_S(8)[0] - basis_S(8)[2]
    assert decompose_series(product_series(vec, 6).fstar, 8) == vec
    assert expand_p_expression(to_p_expression(vec)) == (1, vec)
    assert h_star.cache_info().currsize == 0


def test_verify_empty_window_does_not_pass():
    # at N = 4, --prec 1 tracks F_4(b, c) = c only below q^(-1): nothing compared
    code, text = run_cli("verify", "--N", "4", "--prec", "1", "--trials", "1")
    assert code == 1
    obj = json.loads(text)
    assert obj["pass"] is False
    failed = {r["check"] for r in obj["reports"] if not r["pass"]}
    assert failed == {"defining_equation", "d_consistency"}


def _bad_input(tmp_path, case):
    """The argv of one bad input, with the files it names written under
    tmp_path."""
    if case.startswith("verify "):
        return ["verify", "--N", "5"] + case.split()[1:]
    if case == "cache is a file":
        path = tmp_path / "cache"
        path.write_text("")
        return ["poly", "F", "--n", "5", "--cache", str(path)]
    obj = QSeries.from_terms(5, {0: 1, 1: 2}, 3).to_obj()
    if case == "zero denominator":
        obj["coeffs"][0] = "1/0"
    elif case == "coeffs not a list":
        obj["coeffs"] = 5
    elif case == "infinite denominator":
        obj["denomN"] = float("inf")
    elif case == "fractional denominator":
        obj["denomN"] = 5.9
    elif case == "fractional precision":
        obj["precN"] = 3.2
    elif case == "boolean order":
        obj["ord"] = False
    elif case == "boolean and float coefficients":
        obj["coeffs"] = [True, 2.0, 0]
    elif case == "binary fraction coefficient":
        obj["coeffs"][1] = 0.1
    elif case == "decimal string coefficient":
        obj["coeffs"][1] = "0.5"
    elif case == "unreduced fraction coefficient":
        obj["coeffs"][1] = "2/4"
    elif case == "coeffs a string":
        obj["coeffs"] = "120"
    else:
        obj = list(obj.values())
    path = tmp_path / "series.json"
    path.write_text(json.dumps(obj))
    return ["decompose", "--N", "5", "--series", str(path)]


@pytest.mark.parametrize("case", [
    "verify --prec -5",
    "verify --trials 0",
    "verify --trials -2",
    "verify --nmax -3",
    "zero denominator",
    "coeffs not a list",
    "infinite denominator",
    "fractional denominator",
    "fractional precision",
    "boolean order",
    "boolean and float coefficients",
    "binary fraction coefficient",
    "decimal string coefficient",
    "unreduced fraction coefficient",
    "coeffs a string",
    "series is a list",
    "cache is a file",
])
def test_bad_input_is_a_usage_error(case, tmp_path, capsys):
    assert run_cli(*_bad_input(tmp_path, case)) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["14..4", "14-4", "4..8,9..7"])
def test_reversed_range_is_named_empty(spec, capsys):
    # a reversed range is empty, not a level below 4
    assert run_cli("verify", "--N", spec) == (2, "")
    err = capsys.readouterr().err
    empty = spec.split(",")[-1]
    assert err == "error: the range %s is empty\n" % empty


@pytest.mark.parametrize("spec", ["4-5-6", "4..x", "4,,5", "4-", "..5"])
def test_malformed_range_names_the_chunk(spec, capsys):
    # one error line naming the chunk, not Python's own unpacking or int()
    # message
    assert run_cli("verify", "--N", spec) == (2, "")
    err = capsys.readouterr().err
    chunk = [c for c in spec.split(",") if c not in ("4", "5")][0]
    assert err == "error: %r in --N %s is not a level or a range a..b\n" % (chunk, spec)


class _ClosedPipe(io.StringIO):
    def __init__(self, raise_in):
        super().__init__()
        self.raise_in = raise_in

    def write(self, text):
        if self.raise_in == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.raise_in == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("raise_in", ["write", "flush"])
def test_closed_stdout_exits_without_traceback(raise_in, capsys):
    assert cli.main(["basis", "--N", "12"], out=_ClosedPipe(raise_in)) == 1
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_subprocess():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # a large write (basis) and a small one left in the buffer until exit (poly)
    for argv in (["basis", "--N", "200"], ["poly", "F", "--n", "4"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "modunits.cli"] + argv,
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b""), argv


def test_cache_round_trip(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = run_cli("poly", "F", "--n", "8", "--cache", str(cache_dir))
    entry = cache_dir / "F_000008.json"
    assert entry.exists()
    warm = run_cli("poly", "F", "--n", "8", "--cache", str(cache_dir))
    assert cold == warm
    # corrupt entries are ignored and recomputed
    entry.write_text("{not json")
    again = run_cli("poly", "F", "--n", "8", "--cache", str(cache_dir))
    assert again == cold
    # wrong hash is also rejected
    obj = json.loads(entry.read_text())
    obj["contentHash"] = "0" * 64
    entry.write_text(json.dumps(obj))
    assert run_cli("poly", "F", "--n", "8", "--cache", str(cache_dir)) == cold
    # valid JSON that is not an entry object
    for text in ("[]", '"x"', "3", "null"):
        entry.write_text(text)
        assert run_cli("poly", "F", "--n", "8", "--cache", str(cache_dir)) == cold, text
        assert json.loads(entry.read_text())["kind"] == "F"  # rewritten
    # a missing or malformed polynomial, with the hash made to match it
    good = json.loads(entry.read_text())
    for polyobj in (
        None,
        [],
        "x",
        "num",
        5,
        {},
        {"terms": 5},
        {"terms": [[1, 2]]},
        {"terms": [[1, 2, "x"]]},
        {"terms": [[1, 2, 1.5]]},
        {"terms": [[-1, 2, "1"]]},
        {"num": {"terms": [[0, 0, "1"]]}},
        {"num": {"terms": [[0, 0, "1"]]}, "den": {"terms": []}},
    ):
        bad = dict(good, polynomial=polyobj)
        bad["contentHash"] = cli.PolyDiskCache._hash("F", 8, polyobj)
        if polyobj is None:
            del bad["polynomial"]
        entry.write_text(json.dumps(bad))
        assert cli.PolyDiskCache(cache_dir).load("F", 8) is None, polyobj
        assert run_cli("poly", "F", "--n", "8", "--cache", str(cache_dir)) == cold, polyobj


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_f2_cache_round_trip(tmp_path, monkeypatch, fmt):
    # F_2, the one quotient, is stored as {"num", "den"} and read back as
    # the same quotient: the warm call builds nothing and prints the same
    from modunits.divpoly import DivPolyCache

    argv = ("poly", "F", "--n", "2", "--format", fmt, "--cache", str(tmp_path))
    cold = run_cli(*argv)
    assert cold == run_cli("poly", "F", "--n", "2", "--format", fmt)
    entry = json.loads((tmp_path / "F_000002.json").read_text())
    assert set(entry["polynomial"]) == {"num", "den"}
    assert cli.PolyDiskCache(tmp_path).load("F", 2) == DivPolyCache().F(2)

    def refuse(self, n):
        raise AssertionError("F_%d built on a warm call" % n)

    monkeypatch.setattr(cli.divpoly.DivPolyCache, "F", refuse)
    assert run_cli(*argv) == cold


def test_indented_cache_entry_still_loads(tmp_path, monkeypatch):
    # entries are written compact; one in the indented layout still hits,
    # since the hash covers the polynomial, not the file's text
    cache_dir = tmp_path / "cache"
    cold = run_cli("poly", "F", "--n", "8", "--cache", str(cache_dir))
    entry = cache_dir / "F_000008.json"
    obj = json.loads(entry.read_text())
    assert entry.read_text() == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    entry.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    built = []
    build = cli.divpoly.DivPolyCache.F

    def spy(self, n):
        built.append(n)
        return build(self, n)

    monkeypatch.setattr(cli.divpoly.DivPolyCache, "F", spy)
    assert run_cli("poly", "F", "--n", "8", "--cache", str(cache_dir)) == cold
    assert built == []
    assert run_cli("poly", "F", "--n", "9", "--cache", str(cache_dir))[0] == 0
    assert built == [9]


def test_cache_entry_schema(tmp_path):
    cache_dir = tmp_path / "cache"
    run_cli("poly", "P", "--n", "6", "--cache", str(cache_dir))
    entry = json.loads((cache_dir / "P_000006.json").read_text())
    assert entry["kind"] == "P" and entry["n"] == 6
    assert {"polynomial", "toolVersion", "contentHash"} <= set(entry)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cold_poly_call_sorts_once(tmp_path, monkeypatch, fmt):
    # a cold call builds one term object, stores it and prints it: P_n's
    # terms are put in canonical order once, and the warm call that reads
    # the entry back prints the same bytes
    from modunits.bivar_poly import BivarPoly

    sorts = []
    real = BivarPoly.sorted_terms

    def spy(self):
        sorts.append(len(self.terms))
        return real(self)

    monkeypatch.setattr(BivarPoly, "sorted_terms", spy)
    argv = ("poly", "P", "--n", "12", "--format", fmt, "--cache", str(tmp_path / "cache"))
    cold = run_cli(*argv)
    assert cold[0] == 0 and len(sorts) == 1
    assert run_cli(*argv) == cold


@pytest.mark.parametrize("case", ["entry is a directory", "directory refuses new files"])
def test_unwritable_cache_entry_is_a_usage_error(case, tmp_path, monkeypatch, capsys):
    # the entry cannot be written: os.replace meets a directory at its name,
    # or tempfile.mkstemp is refused (as in a read-only directory, which
    # chmod cannot make for root); the poly is neither printed nor left
    # behind as a temporary file
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    if case == "entry is a directory":
        (cache_dir / "F_000005.json").mkdir()
    else:
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(cache_dir))

        monkeypatch.setattr(cli.tempfile, "mkstemp", refuse)
    assert run_cli("poly", "F", "--n", "5", "--cache", str(cache_dir)) == (2, "")
    err = capsys.readouterr().err
    entry = cache_dir / "F_000005.json"
    assert err.startswith("error: cannot write cache entry %s: " % entry)
    assert err.count("\n") == 1
    assert not list(cache_dir.glob("*.tmp"))
