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
    assert run_cli("poly", "P", "--n", "201") == (2, "")
    assert "n=201 exceeds the guard max_n=200" in capsys.readouterr().err
    code, _ = run_cli("poly", "P", "--n", "4", "--max-n", "300")
    assert code == 2


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


def test_cache_entry_schema(tmp_path):
    cache_dir = tmp_path / "cache"
    run_cli("poly", "P", "--n", "6", "--cache", str(cache_dir))
    entry = json.loads((cache_dir / "P_000006.json").read_text())
    assert entry["kind"] == "P" and entry["n"] == 6
    assert {"polynomial", "toolVersion", "contentHash"} <= set(entry)
