import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import ANY

import mpmath
import pytest

import ghzeta
from ghzeta.cli import SCHEMA_VERSION, _f_from_config, main
from ghzeta.ideals import ideal_factorize, norm_value
from ghzeta.zeros import Rectangle, periodic_series_evaluator
from oracles import fixtures, winding_reference


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def canonical(payload):
    payload = dict(payload)
    payload.pop("timestamp", None)
    return json.dumps(payload, sort_keys=True)


def test_eval_basic(tmp_path):
    code, payload = run_cli(
        ["eval", "--sigma", "2", "--t", "0", "--alpha", "1/1", "--f", "1", "--q", "1"],
        tmp_path,
    )
    assert code == 0
    assert payload["schema"] == SCHEMA_VERSION
    assert abs(payload["results"]["value_re"] - math.pi**2 / 6) < 1e-10
    assert payload["results"]["error_bound"] < 1e-10


def test_eval_cancelled_pole_high_precision(tmp_path):
    # (1, -1) at alpha = 1 is Dirichlet's eta: the pole of zeta cancels to ln 2
    code, payload = run_cli(
        ["eval", "--sigma", "1", "--alpha", "1", "--f=1,-1", "--digits", "30"], tmp_path,
    )
    assert code == 0
    res = payload["results"]
    assert isinstance(res["error_bound"], float)
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(res["value_str"][0]) - mpmath.log(2))
    assert err <= res["error_bound"]


def test_eval_non_dyadic_coefficient_to_working_digits(tmp_path):
    # f = (1/3, 1) at alpha = 1 sums to pi^2/12; 1/3 must not pass through a float
    code, payload = run_cli(
        ["eval", "--sigma", "2", "--alpha", "1", "--f", "1/3,1", "--digits", "40"], tmp_path,
    )
    assert code == 0
    with mpmath.workdps(50):
        ref = mpmath.pi**2 / 12
        assert abs(mpmath.mpf(payload["results"]["value_str"][0]) - ref) <= mpmath.mpf(10) ** -38 * ref


def test_eval_high_precision_and_algebraic(tmp_path):
    code, payload = run_cli(
        ["eval", "--sigma", "2", "--t", "1.5", "--minpoly", "1,2,-1",
         "--interval", "0.4,0.5", "--f", "1", "--q", "1", "--digits", "30"],
        tmp_path,
    )
    assert code == 0
    assert "value_str" in payload["results"]


def test_eval_pole_exit_code(tmp_path):
    code, _ = run_cli(
        ["eval", "--sigma", "1", "--t", "0", "--alpha", "1/1", "--f", "1", "--q", "1"],
        tmp_path,
    )
    assert code == 2


def test_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--sigma", "2", "--bogus-flag", "1"])
    assert exc.value.code == 1


@pytest.mark.parametrize("grid", ["0x4", "3x-1", "4", "2x3x4", "ax4"])
def test_zeros_bad_grid_is_usage_error(tmp_path, capsys, grid):
    # 1.3,1.9,0,30 holds the zero at log2(3); "3x-1" used to report none
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--alpha", "1", "--f", "1,-2", "--rect", "1.3,1.9,0,30",
              f"--grid={grid}", "--output", str(tmp_path / "report.json")])
    assert exc.value.code == 1
    assert "grid must be AxB with positive integers" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


ALPHA_FLAGS = ["--minpoly", "1,2,-1", "--interval", "0.4,0.5"]


@pytest.mark.parametrize("args", [
    ["eval", "--sigma", "2", "--alpha", "1", "--f", "1", "--q", "0"],
    ["density", *ALPHA_FLAGS, "--theta", "1/10", "--N", "100", "--q", "0"],
    ["construct-phi", *ALPHA_FLAGS, "--q", "0"],
    ["eval", "--sigma", "2", "--alpha", "1", "--f", "1", "--digits", "0"],
    ["eval", "--sigma", "2", "--alpha", "1", "--f", "1", "--digits", "-5"],
    ["construct-phi", *ALPHA_FLAGS, "--digits", "0"],
    ["construct-phi", *ALPHA_FLAGS, "--n1", "0"],
    ["construct-phi", *ALPHA_FLAGS, "--stages", "0"],
])
def test_non_positive_count_is_usage_error(tmp_path, capsys, args):
    # zero used to fall back to the default silently (q = 1, 50 digits, the profile's N1)
    with pytest.raises(SystemExit) as exc:
        main(args + ["--output", str(tmp_path / "report.json")])
    assert exc.value.code == 1
    assert "must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


ZEROS_FLAGS = ["zeros", "--alpha", "1", "--f", "1,-2"]


@pytest.mark.parametrize("args", [
    ["eval", "--sigma", "inf", "--alpha", "1", "--f", "1"],
    ["eval", "--sigma", "nan", "--alpha", "1", "--f", "1"],
    ["eval", "--sigma", "2", "--t", "inf", "--alpha", "1", "--f", "1"],
    ["classify", "--alpha", "1", "--f", "1,-2", "--tmax", "nan"],
    [*ZEROS_FLAGS, "--rect", "nan,1.9,0,30"],
    [*ZEROS_FLAGS, "--rect", "1.3,inf,0,30"],
    [*ZEROS_FLAGS, "--rect", "1.3,1.9,-inf,30"],
    [*ZEROS_FLAGS, "--rect", "1.3,1.9,0,inf"],
    ["verify", "report-to-check.json", "--fraction", "inf"],
    # exact numbers, read after argument parsing
    ["eval", "--sigma", "2", "--alpha", "1/0", "--f", "1"],
    ["eval", "--sigma", "2", "--alpha", "1", "--f", "1/0"],
    ["eval", "--sigma", "2", "--alpha", "1", "--f", "1e400"],
    ["eval", "--sigma", "2", "--alpha", "1", "--f", "1.0e400"],
    ["eval", "--sigma", "2", "--alpha", "1", "--f", "1,1e400j"],
    ["eval", "--sigma", "2", "--alpha", "1e400", "--f", "1"],
    ["decompose", "--alpha", "1", "--f", "1e400"],
    ["classify", "--alpha", "1", "--f", "1e400"],
    ["zeros", "--alpha", "1", "--f", "1e400", "--rect", "1.3,1.9,0,30"],
    ["density", *ALPHA_FLAGS, "--theta", "1/0", "--N", "100"],
    ["factor-ideals", "--minpoly", "1,2,-1", "--interval", "0.4,1/0", "--range", "0..5"],
])
def test_non_finite_number_is_usage_error(tmp_path, capsys, args):
    # these used to end in an OverflowError or ZeroDivisionError traceback,
    # PrecisionExhausted (exit 2), or "rectangle must have positive area";
    # argparse rejects a bad option value by SystemExit, main a bad exact
    # number by returning 1
    try:
        code = main(args + ["--output", str(tmp_path / "report.json")])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert "must be a finite number" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("t", ["1e9", "1e300", "-1e9"])
def test_eval_at_huge_t_refused_quickly(tmp_path, t):
    # the head sum needs T >= |t| terms; these used to run for hours
    src = str(Path(ghzeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ghzeta.cli", "eval", "--sigma", "2", f"--t={t}",
         "--alpha", "1", "--f", "1", "--output", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert "PrecisionExhausted" in proc.stderr and "exceeds the cap" in proc.stderr
    assert not (tmp_path / "report.json").exists()


def test_huge_t_refusal_writes_t_in_short_form(tmp_path, capsys):
    # the shift T >= |t| used to be printed as a 301-digit integer
    code, payload = run_cli(["zeros", "--alpha", "1", "--f", "1", "--rect", "1.5,2,0,1e300",
                             "--grid", "1x1"], tmp_path)
    assert code == 2 and payload is None
    err = capsys.readouterr().err
    assert err.startswith("PrecisionExhausted: Euler-Maclaurin head of 1.000e+300 terms exceeds the cap")
    assert len(err) < 150


def test_eval_at_t_one_million_still_evaluates(tmp_path):
    code, payload = run_cli(["eval", "--sigma", "2", "--t", "1e6", "--alpha", "1", "--f", "1"],
                            tmp_path)
    assert code == 0
    z = mpmath.zeta(mpmath.mpc(2, 1e6))
    assert abs(complex(payload["results"]["value_re"], payload["results"]["value_im"])
               - complex(z)) < 1e-9


@pytest.mark.parametrize("rect", ["1.3,1.9,0", "1.3,1.9,0,30,40"])
def test_zeros_rect_needs_four_numbers(tmp_path, capsys, rect):
    with pytest.raises(SystemExit) as exc:
        main([*ZEROS_FLAGS, "--rect", rect, "--output", str(tmp_path / "report.json")])
    assert exc.value.code == 1
    assert "rect must be sigma1,sigma2,t1,t2" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [[], ["--grid", "2x4"]], ids=["plain", "grid"])
def test_zeros_rect_reaching_sigma_1_is_refused(tmp_path, capsys, grid):
    # plain mode used to report winding 0 here: the pole at s = 1 cancelled
    # the zero at log2(3) inside the rectangle
    code, payload = run_cli([*ZEROS_FLAGS, "--q", "2", "--rect", "0.5,1.9,-0.5,0.5", *grid],
                            tmp_path)
    assert code == 1 and payload is None
    assert "zero searches live strictly in sigma > 1" in capsys.readouterr().err


def test_zeros_retry_padding_stays_in_half_plane(tmp_path):
    # the zero log2(2.07) lies on the region's bottom edge, so the cell is
    # retried padded; padding sigma by the full pad once carried it to
    # sigma_min 0.999171, where the pole at s = 1 cancelled the zero's winding
    code, payload = run_cli(["zeros", "--alpha", "1", "--f", "1,-107/100", "--q", "2",
                             "--rect", "1.01,1.5,0,5", "--grid", "1x1"], tmp_path)
    assert code == 0
    res = payload["results"]
    assert len(res["cells"]) == 1 and res["cells"][0]["winding"] == 1
    assert all(c["rect"][0] > 1 for c in res["cells"])
    (z,) = res["zeros"]
    assert abs(complex(z["sigma"], z["t"]) - math.log2(2.07)) < 1e-6


@pytest.mark.parametrize("grid", [None, "1x1"], ids=["plain", "grid"])
def test_verify_refuses_zeros_report_reaching_sigma_1(tmp_path, capsys, grid):
    # the pole at s = 1 cancels the zero at log2(3), so re-winding the rect
    # used to confirm winding 0 and both reports verified
    rect = [0.5, 1.9, -0.5, 0.5]
    results = {"winding": 0, "min_boundary_modulus": 0.1, "samples": 40}
    if grid:
        results = {"cells": [{**results, "rect": rect, "unresolved": 0}], "zeros": []}
    config = {"alpha": {"kind": "rational", "value": "1/1"}, "f": ["1", "-2"], "q": 2,
              "rect": rect, "grid": grid}
    report = tmp_path / "zeros.json"
    report.write_text(json.dumps({"schema": SCHEMA_VERSION, "command": "zeros", "config": config,
                                  "seed": 0, "timestamp": "", "results": results}))
    out = tmp_path / "verify.json"
    assert main(["verify", str(report), "--output", str(out)]) == 1
    assert "zero searches live strictly in sigma > 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("span", ["10..0", "5", "a..b", "-1..3", "0..5..9"])
def test_factor_ideals_bad_range_is_usage_error(tmp_path, capsys, span):
    # "10..0" used to exit 0 with no rows, "5" with "not enough values to unpack"
    with pytest.raises(SystemExit) as exc:
        main(["factor-ideals", *ALPHA_FLAGS, f"--range={span}",
              "--output", str(tmp_path / "report.json")])
    assert exc.value.code == 1
    assert "range must be A..B with integers 0 <= A <= B" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    import ghzeta.cli as cli

    built = []
    init = cli._Parser.__init__

    def counting(self, *a, **kw):
        built.append(kw.get("prog"))
        init(self, *a, **kw)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser.cache_clear()
    argvs = [
        ["eval", "--sigma", "2", "--alpha", "1", "--f", "1"],
        ["classify", "--alpha", "1/3", "--f", "1"],
        ["decompose", "--alpha", "1/3", "--f", "1"],
        ["eval", "--sigma", "3", "--alpha", "1/2", "--f", "1,-1"],
    ]
    for i, argv in enumerate(argvs):
        code, _ = run_cli(argv, tmp_path, f"{i}.json")
        assert code == 0
        if i == 0:
            after_first = len(built)
    assert built.count("ghzeta") == 1
    assert len(built) == after_first
    assert cli.build_parser.cache_info().misses == 1


def test_defaults_do_not_leak_between_calls(tmp_path):
    base = ["eval", "--sigma", "2", "--alpha", "1", "--f", "1"]
    assert run_cli(base + ["--digits", "40"], tmp_path, "a.json")[1]["config"]["digits"] == 40
    assert run_cli(base, tmp_path, "b.json")[1]["config"]["digits"] == 15
    base = ["density", *ALPHA_FLAGS, "--theta", "1/10", "--N", "100"]
    code, payload = run_cli(base + ["--q", "2", "--b", "1"], tmp_path, "c.json")
    assert code == 0 and (payload["config"]["q"], payload["config"]["b"]) == (2, 1)
    code, payload = run_cli(base, tmp_path, "d.json")
    assert code == 0 and (payload["config"]["q"], payload["config"]["b"]) == (1, None)


def test_errors_leave_the_next_call_working(tmp_path):
    ok = ["classify", "--alpha", "1/3", "--f", "1"]
    code, first = run_cli(ok, tmp_path, "first.json")
    assert code == 0
    with pytest.raises(SystemExit) as exc:  # usage error
        main(["eval", "--sigma", "2", "--alpha", "1", "--f", "1", "--digits", "0"])
    assert exc.value.code == 1
    assert run_cli(ok, tmp_path, "second.json") == (0, {**first, "timestamp": ANY})
    assert run_cli(["eval", "--sigma", "1", "--alpha", "1", "--f", "1"], tmp_path)[0] == 2  # pole
    assert run_cli(ok, tmp_path, "third.json") == (0, {**first, "timestamp": ANY})


def test_handler_patched_after_first_call_runs(tmp_path, monkeypatch):
    import ghzeta.cli as cli

    argv = ["classify", "--alpha", "1/3", "--f", "1"]
    assert run_cli(argv, tmp_path)[0] == 0
    seen = []

    def patched(args, seed):
        seen.append((args.command, args.alpha, seed))
        return cli.make_report("classify", {}, {"patched": True}, seed)

    monkeypatch.setattr(cli, "cmd_classify", patched)
    code, payload = run_cli(argv + ["--seed", "7"], tmp_path)
    assert code == 0 and payload["results"] == {"patched": True}
    assert seen == [("classify", "1/3", 7)]


def test_classify_examples(tmp_path):
    code, payload = run_cli(["classify", "--alpha", "1/3", "--f", "1", "--q", "1"], tmp_path)
    assert code == 0
    res = payload["results"]
    assert res["verdict"] == "infinitely many zeros in sigma > 1"
    assert res["certificate"]["proof"] == "ResidueObstruction"

    code, payload = run_cli(["classify", "--alpha", "1", "--f", "1,-1", "--q", "2"], tmp_path)
    assert payload["results"]["verdict"] == "no zeros found; consistent with zero-free form"

    code, payload = run_cli(["classify", "--alpha", "1", "--f", "1,-2", "--q", "2"], tmp_path)
    res = payload["results"]
    assert res["verdict"].startswith("zeros exist")
    assert abs(res["polynomial_zeros"][0][0] - math.log2(3)) < 1e-6


PL_KEYS = {"character_modulus", "polynomial", "verification_period"}
SCAN_KEYS = {"scan_region", "polynomial_zeros"}


@pytest.mark.parametrize("flags, keys, certificate_keys", [
    ([*ALPHA_FLAGS, "--f", "1"], set(), None),
    (["--alpha", "1/3", "--f", "1"], {"certificate"}, {"obstruction"}),
    (["--alpha", "1", "--f", "1,2,1", "--q", "3"], {"certificate"}, {"conductors"}),
    (["--alpha", "1", "--f", "1,0,-1,0", "--q", "4"], {"certificate"}, PL_KEYS),
    (["--alpha", "1", "--f", "1,-1", "--q", "2"], {"certificate", *SCAN_KEYS}, PL_KEYS),
    (["--alpha", "1", "--f", "1,-2", "--q", "2"], {"certificate", *SCAN_KEYS}, PL_KEYS),
], ids=["algebraic", "obstruction", "conductors", "single-term", "scan-empty", "scan-zeros"])
def test_classify_payload_keys_per_route(tmp_path, flags, keys, certificate_keys):
    code, payload = run_cli(["classify", *flags], tmp_path)
    assert code == 0
    res = payload["results"]
    assert set(res) == {"alpha", "alpha_kind", "evidence", "lift_prefactor", "verdict"} | keys
    if certificate_keys:
        assert set(res["certificate"]) == {"verdict", "proof"} | certificate_keys
    if "polynomial_zeros" in res:  # P = 1 - 2 2^-s vanishes only on sigma = 1
        assert (res["polynomial_zeros"] == []) == (flags[3] == "1,-1")


def test_classify_untyped_float_rejected(tmp_path):
    code, _ = run_cli(["classify", "--alpha", "0.333", "--f", "1", "--q", "1"], tmp_path)
    assert code == 2


def test_decompose_report(tmp_path):
    code, payload = run_cli(
        ["decompose", "--alpha", "1/3", "--f", "1", "--q", "1"], tmp_path
    )
    assert code == 0
    res = payload["results"]
    assert res["prefactor"] == 3
    assert res["verified"]
    assert sorted(t["conductor"] for t in res["terms"]) == [1, 3]
    assert res["pl_certificate"]["verdict"] == "NotPL"


def test_factor_ideals_and_verify(tmp_path):
    args = ["factor-ideals", "--minpoly", "1,2,-1", "--interval", "0.4,0.5",
            "--range", "0..50", "--csv", str(tmp_path / "rows.csv")]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    rows = payload["results"]["rows"]
    assert rows[4][:2] == [4, 7]
    csv_text = (tmp_path / "rows.csv").read_text().splitlines()
    assert csv_text[0] == "n,norm,admissible,residual"
    assert len(csv_text) == 52

    code2 = main(["verify", str(tmp_path / "report.json"), "--fraction", "0.2",
                  "--output", str(tmp_path / "verify.json")])
    assert code2 == 0
    vr = json.loads((tmp_path / "verify.json").read_text())
    assert vr["results"]["ok"] and vr["results"]["checked"] >= 1


def test_factor_ideals_range_rows_match_per_n_records(tmp_path):
    # the rows come from one window-level call; each must be the row the
    # one-number path gives, and verify re-derives every row that way
    lo, hi = 999999000, 999999040
    code, payload = run_cli(["factor-ideals", "--minpoly", "1,2,-1", "--interval", "0.4,0.5",
                             "--range", f"{lo}..{hi}"], tmp_path)
    assert code == 0
    alpha = fixtures()
    expect = []
    for n in range(lo, hi + 1):
        rec = ideal_factorize(alpha, n)
        adm = " ".join(f"{k.p}^{e}@{k.root}" for k, e in rec.admissible_part)
        expect.append([n, norm_value(alpha, n), adm, rec.residual_norm])
    assert payload["results"]["rows"] == expect
    assert main(["verify", str(tmp_path / "report.json"), "--fraction", "1",
                 "--output", str(tmp_path / "verify.json")]) == 0


@pytest.mark.parametrize("minpoly, interval", [
    ("2,5,-3", "0.4,0.6"),       # (2x - 1)(x + 3)
    ("1,2,-4,-6,3", "0.4,0.5"),  # (x^2 + 2x - 1)(x^2 - 3)
])
def test_factor_ideals_reducible_minpoly_is_usage_error(tmp_path, capsys, minpoly, interval):
    args = ["factor-ideals", "--minpoly", minpoly, "--interval", interval, "--range", "0..5"]
    code, payload = run_cli(args, tmp_path)
    assert code == 1 and payload is None
    assert capsys.readouterr().err == "error: minimal polynomial must be irreducible\n"


@pytest.mark.parametrize("minpoly, interval", [
    ("1,0,-10,0,1", "0.3,0.4"),  # sqrt(3) - sqrt(2)
    ("3,0,1,-1", "0.5,0.6"),     # non-monic irreducible cubic
])
def test_factor_ideals_irreducible_minpoly(tmp_path, minpoly, interval):
    args = ["factor-ideals", "--minpoly", minpoly, "--interval", interval, "--range", "0..5"]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    assert [row[0] for row in payload["results"]["rows"]] == list(range(6))


def test_algebraic_alpha_imports_no_sympy(tmp_path):
    # a fresh process, so no earlier test has imported sympy for it
    code = "\n".join([
        "import sys",
        "from fractions import Fraction",
        "import ghzeta.cli",
        "from ghzeta.ideals import AlgebraicAlpha",
        "AlgebraicAlpha((3, 0, 1, -1), (Fraction(1, 2), Fraction(3, 5)))",
        "assert ghzeta.cli.main(['factor-ideals', '--minpoly', '1,2,-1', '--interval', '0.4,0.5',",
        "                        '--range', '0..10', '--output', sys.argv[1]]) == 0",
        "assert 'sympy' not in sys.modules, 'sympy was imported'",
    ])
    src = str(Path(ghzeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "report.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("bad", ["34,34", "34,x"])
def test_factor_ideals_ignores_corrupt_cache_line(tmp_path, capsys, bad):
    # N(7) = 34 = 2 * 17 for sqrt(2) - 1; 2 ramifies, so 17 is the only ideal
    cache = tmp_path / "cache.csv"
    cache.write_text(bad + "\n")
    args = ["factor-ideals", "--minpoly", "1,2,-1", "--interval", "0.4,0.5",
            "--range", "7..7", "--cache", str(cache)]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    assert payload["results"]["rows"] == [[7, 34, "17^1@7", 2]]
    assert f"skipped 1 malformed or unverified line(s) of factor cache {cache}" in capsys.readouterr().err
    assert cache.read_text().splitlines() == ["34,2^1 17^1"]
    # the load dropped the bad line from the file, so the next run is quiet
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    assert payload["results"]["rows"] == [[7, 34, "17^1@7", 2]]
    assert "warning" not in capsys.readouterr().err


def test_verify_catches_corruption(tmp_path):
    args = ["factor-ideals", "--minpoly", "1,2,-1", "--interval", "0.4,0.5",
            "--range", "0..20"]
    code, payload = run_cli(args, tmp_path)
    payload["results"]["rows"][7][1] = 999  # corrupt a norm
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(bad), "--fraction", "1.0",
              "--output", str(tmp_path / "verify2.json")])
    assert exc.value.code == 2


def test_density_report_and_csv(tmp_path):
    args = ["density", "--minpoly", "1,2,-1", "--interval", "0.4,0.5", "--q", "1",
            "--theta", "1/10", "--N", "100", "--csv", str(tmp_path / "per_n.csv")]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    win = payload["results"]["windows"][0]
    assert [e[0] for e in win["eligible"]] == [101, 103, 104, 105, 106, 107, 108, 110]
    lines = (tmp_path / "per_n.csv").read_text().splitlines()
    assert lines[0] == "N,q,b,n,eligible,p,root"
    assert len(lines) == 11


def test_zeros_grid_and_csv(tmp_path):
    args = ["zeros", "--alpha", "1", "--f", "1,-2", "--q", "2",
            "--rect", "1.3,1.9,0,10", "--grid", "3x6",
            "--csv", str(tmp_path / "zeros.csv")]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    zs = payload["results"]["zeros"]
    assert len(zs) == 2
    assert abs(zs[0]["sigma"] - math.log2(3)) < 1e-6
    assert (tmp_path / "zeros.csv").read_text().splitlines()[0] == "sigma,t,residual"


def test_zeros_winding_only(tmp_path):
    args = ["zeros", "--alpha", "0.5", "--f", "1", "--q", "1",
            "--rect", "1.2,2,0,10"]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    assert payload["results"]["winding"] == 0


def test_zeros_report_verifies(tmp_path):
    args = ["zeros", "--alpha", "1", "--f", "1,-2", "--q", "2",
            "--rect", "1.3,1.9,0,10", "--grid", "3x6"]
    code, _ = run_cli(args, tmp_path)
    assert code == 0
    assert main(["verify", str(tmp_path / "report.json"), "--fraction", "1.0",
                 "--output", str(tmp_path / "vz.json")]) == 0


# cell (1.3, 1.6, -1, 6.75) winds once around log2(3), but the secant from
# its centre leaves the cell; the zero used to be lost
SECANT_LEAVES_CELL = ["zeros", "--alpha", "1", "--f", "1,-2", "--q", "2",
                      "--rect", "1.3,1.9,-1,30", "--grid", "2x4"]


def test_zeros_finds_zero_whose_secant_leaves_its_cell(tmp_path):
    code, payload = run_cli(SECANT_LEAVES_CELL, tmp_path)
    assert code == 0
    res = payload["results"]
    assert [(c["winding"], c["unresolved"]) for c in res["cells"]] == [(1, 0)] * 4 + [(0, 0)] * 4
    zs = [complex(z["sigma"], z["t"]) for z in res["zeros"]]
    assert len(zs) == 4
    assert abs(zs[0] - math.log2(3)) < 1e-9
    for k, z in enumerate(zs[1:], 1):  # t = 9.06, 18.13, 27.19
        assert abs(z - complex(math.log2(3), 2 * math.pi * k / math.log(2))) < 1e-8


@pytest.mark.parametrize("cell, winding, caught_by", [
    (4, 1, "account"),  # a zero-free cell claims a zero no listed zero covers
    (0, 0, "outside"),  # the zero at log2(3) then lies in no winding cell
])
def test_verify_zeros_catches_edited_winding(tmp_path, cell, winding, caught_by):
    code, payload = run_cli(SECANT_LEAVES_CELL, tmp_path)
    assert code == 0
    code, vr = _verify(tmp_path / "report.json", tmp_path)
    assert code == 0 and vr["results"]["ok"]
    assert vr["results"]["checked"] == 4 + 8 + 8 + 4  # residuals, rewinds, accounts, zeros
    payload["results"]["cells"][cell]["winding"] = winding
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, vr = _verify(bad, tmp_path)  # every cell rewound
    assert code == 2
    assert ["winding", payload["results"]["cells"][cell]["rect"]] in vr["results"]["mismatches"]
    # at the default fraction one cell is rewound; the account still catches it
    out = tmp_path / "default.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(bad), "--output", str(out)])
    assert exc.value.code == 2
    assert caught_by in [m[0] for m in json.loads(out.read_text())["results"]["mismatches"]]


def test_zeros_winding_only_report_is_rewound(tmp_path):
    args = ["zeros", "--alpha", "1", "--f", "1,-2", "--q", "2", "--rect", "1.4,1.8,8,10"]
    code, payload = run_cli(args, tmp_path)
    assert code == 0 and payload["results"]["winding"] == 1
    assert _verify(tmp_path / "report.json", tmp_path)[0] == 0
    payload["results"]["winding"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, vr = _verify(bad, tmp_path)
    assert code == 2 and vr["results"]["mismatches"] == [["winding", [1.4, 1.8, 8.0, 10.0]]]


# P(s) L(s, chi_d) with P = 1 - 3 2^-s (zeros on sigma = log2 3) for
# d = 1, -3, -4, and the alpha = 1/2 lift 2^s (1 - 5 3^-s) L(s, chi_4)
PL_ROUTES = {
    "d=1": (["--alpha", "1", "--f", "1,-2", "--q", "2"], "1.2,2.0,-1,12"),
    "d=-3": (["--alpha", "1", "--f", "1,-4,0,4,-1,0", "--q", "6"], "1.2,2.0,-1,12"),
    "d=-4": (["--alpha", "1", "--f", "1,-3,-1,0,1,3,-1,0", "--q", "8"], "1.2,2.0,-1,12"),
    "lift": (["--alpha", "1/2", "--f=1,-6,1,-1,6,-1", "--q", "6"], "1.2,1.8,0,12"),
}


@pytest.mark.parametrize("route", list(PL_ROUTES))
def test_zeros_polynomial_route_winds_as_the_series(tmp_path, route):
    flags, rect = PL_ROUTES[route]
    code, payload = run_cli(["zeros", *flags, "--rect", rect, "--grid", "4x2"], tmp_path)
    assert code == 0
    res = payload["results"]
    assert res["searched"] == "polynomial factor"
    config = payload["config"]  # F summed class by class, not through P and L
    F = periodic_series_evaluator(_f_from_config(config), float(Fraction(config["alpha"]["value"])))
    for cell in res["cells"]:  # certified cells (samples 0) included
        assert winding_reference(F, Rectangle(*cell["rect"])).winding == cell["winding"], cell
    assert any(c["samples"] == 0 for c in res["cells"])
    assert any(c["winding"] for c in res["cells"])
    assert res["zeros"] and all(z["residual"] <= 1e-8 for z in res["zeros"])
    assert _verify(tmp_path / "report.json", tmp_path)[1]["results"]["ok"]


def test_zeros_single_term_polynomial_certifies_every_cell(tmp_path):
    # F = zeta(s): P = 1, so no cell is wound and no zero is listed
    code, payload = run_cli(["zeros", "--alpha", "1", "--f", "1", "--rect", "1.1,2,0,20",
                             "--grid", "2x4"], tmp_path)
    assert code == 0
    res = payload["results"]
    assert res["searched"] == "polynomial factor" and res["zeros"] == []
    assert len(res["cells"]) == 8
    for cell in res["cells"]:
        assert (cell["winding"], cell["samples"], cell["unresolved"]) == (0, 0, 0)
        assert 0 < cell["min_boundary_modulus"] <= 1


@pytest.mark.parametrize("rect, grid", [("1.01,1.5,0,5", "1x1"), ("1.02,1.6,0,30", "2x4")])
def test_zeros_polynomial_route_residual_is_the_series_at_target(tmp_path, rect, grid):
    # at sigma ~ 1.05, |F| ~ 20 |P|: on 2x4 the secant's end point has
    # |P| < 1e-8 but |F| = 1.5e-8, so the zero is polished on P
    code, payload = run_cli(["zeros", "--alpha", "1", "--f", "1,-107/100", "--q", "2",
                             "--rect", rect, "--grid", grid], tmp_path)
    assert code == 0
    zeros = payload["results"]["zeros"]
    assert abs(complex(zeros[0]["sigma"], zeros[0]["t"]) - math.log2(2.07)) < 1e-9
    assert all(z["residual"] <= 1e-8 for z in zeros)


@pytest.mark.parametrize("flags", [
    ["--alpha", "1", "--f", "1,2,3", "--q", "3"],  # MultipleCharacters
    ["--alpha", "1/3", "--f", "1,-1"],  # ResidueObstruction
    ["--alpha", "0.5", "--f", "1,-3", "--q", "2"],  # untyped float
], ids=["two-characters", "obstructed", "float"])
@pytest.mark.parametrize("grid", [[], ["--grid", "2x2"]], ids=["plain", "grid"])
def test_zeros_series_route_when_not_a_product(tmp_path, flags, grid):
    code, payload = run_cli(["zeros", *flags, "--rect", "1.2,1.8,0.5,4", *grid], tmp_path)
    assert code == 0
    res = payload["results"]
    assert res["searched"] == "series"
    assert all(c["samples"] > 0 for c in res.get("cells", [res]))


def test_classify_unresolved_scan_is_domain_error(tmp_path, capsys, monkeypatch):
    from ghzeta import zeros

    # a refinement that locates nothing must not read as "no zeros found"
    monkeypatch.setattr(zeros, "_refine", lambda series, cell, winding, depth=0: ([], winding))
    code, payload = run_cli(["classify", "--alpha", "1", "--f", "1,-2", "--q", "2"], tmp_path)
    assert code == 2 and payload is None
    assert capsys.readouterr().err.startswith(
        "UnresolvedZeros: cell (1.5075, 2.005, -0.25, 1.2625) winds 1 times")


def test_density_empty_window_exit_code(tmp_path):
    args = ["density", "--minpoly", "1,2,-1", "--interval", "0.4,0.5", "--q", "5",
            "--theta", "1/50", "--N", "100", "--b", "3"]
    code, _ = run_cli(args, tmp_path)
    assert code == 2


def test_construct_phi_desk(tmp_path):
    args = ["construct-phi", "--minpoly", "1,2,-1", "--interval", "0.4,0.5",
            "--q", "1", "--profile", "desk", "--stages", "1", "--n1", "1000",
            "--phi-csv", str(tmp_path / "phi.csv")]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    res = payload["results"]
    assert res["stages"][0]["induction_ok"]
    assert (tmp_path / "phi.csv").read_text().splitlines()[0] == "p,root,phase_re,phase_im"


def test_construct_phi_thin_class_exit_code(tmp_path):
    # a 5-wide window cannot hold 5 private primes here: domain error
    args = ["construct-phi", "--minpoly", "1,2,-1", "--interval", "0.4,0.5",
            "--q", "1", "--profile", "desk", "--stages", "1", "--n1", "100"]
    code, _ = run_cli(args, tmp_path)
    assert code == 2


def test_determinism_tolerates_timestamp(tmp_path):
    args = ["classify", "--alpha", "1/3", "--f", "1", "--q", "1", "--seed", "5"]
    _, p1 = run_cli(args, tmp_path, "a.json")
    _, p2 = run_cli(args, tmp_path, "b.json")
    assert canonical(p1) == canonical(p2)
    assert p1["seed"] == 5


def test_density_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.delenv("HURWITZ_CACHE", raising=False)
    base = ["density", "--minpoly", "1,2,-1", "--interval", "0.4,0.5", "--q", "2",
            "--theta", "1/100", "--N", "2000,4000"]
    code, plain = run_cli(base, tmp_path, "plain.json")
    assert code == 0
    cache = tmp_path / "factors.csv"
    code, cold = run_cli(base + ["--cache", str(cache)], tmp_path, "cold.json")
    assert code == 0
    before = cache.read_text()
    assert before.splitlines() and all(before.splitlines())
    # a warm cache gains no duplicate line and changes no report
    code, warm = run_cli(base + ["--cache", str(cache)], tmp_path, "warm.json")
    assert code == 0
    assert cache.read_text() == before
    assert canonical(warm) == canonical(cold) == canonical(plain)


def test_density_single_class_scans_every_window_start(tmp_path):
    args = ["density", *ALPHA_FLAGS, "--q", "2", "--b", "1", "--theta", "1/1000",
            "--N", "100000,200000"]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    assert [(w["N"], w["b"]) for w in payload["results"]["windows"]] == [(100000, 1), (200000, 1)]
    assert main(["verify", str(tmp_path / "report.json"), "--fraction", "1",
                 "--output", str(tmp_path / "v.json")]) == 0


def test_verify_density_catches_dropped_window(tmp_path):
    args = ["density", *ALPHA_FLAGS, "--q", "2", "--theta", "1/100", "--N", "2000,4000"]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    assert main(["verify", str(tmp_path / "report.json"), "--fraction", "1",
                 "--output", str(tmp_path / "v.json")]) == 0
    del payload["results"]["windows"][1]  # (2000, 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(bad), "--fraction", "1", "--output", str(tmp_path / "v2.json")])
    assert exc.value.code == 2
    mismatches = json.loads((tmp_path / "v2.json").read_text())["results"]["mismatches"]
    assert mismatches == [["windows", [[2000, 0], [4000, 0], [4000, 1]]]]


def _verify_tampered(tmp_path, payload, *fraction):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(bad), *fraction, "--output", str(tmp_path / "v2.json")])
    assert exc.value.code == 2
    return json.loads((tmp_path / "v2.json").read_text())["results"]["mismatches"]


def test_verify_density_checks_derived_window_fields(tmp_path):
    args = ["density", *ALPHA_FLAGS, "--q", "2", "--theta", "1/100", "--N", "2000,4000"]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    res = payload["results"]
    window = res["windows"][0]  # (2000, 0)
    window.update(count_A=999, passed=not window["passed"], fraction=0.99)
    res["mean_fraction"] = 0.99
    mismatches = _verify_tampered(tmp_path, payload, "--fraction", "1")
    assert mismatches == [["aggregates"], [2000, 0]]


def test_verify_density_checks_sweep_aggregates(tmp_path):
    args = ["density", *ALPHA_FLAGS, "--q", "2", "--theta", "1/100", "--N", "2000,4000"]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    payload["results"]["mean_fraction"] += 0.01
    assert _verify_tampered(tmp_path, payload) == [["aggregates"]]


def test_construct_phi_canonical_single_stage(tmp_path):
    args = ["construct-phi", "--minpoly", "1,2,-1", "--interval", "0.4,0.5",
            "--q", "1", "--profile", "canonical", "--stages", "1"]
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    stage = payload["results"]["stages"][0]
    assert stage["M_j"] == 10 and stage["induction_ok"]


def test_construct_phi_cache_file_round_trip(tmp_path, monkeypatch):
    # without a cache file construct-phi keeps no factor cache; with one it
    # writes one line per distinct window norm, and a run that reads the
    # file back writes the same report
    monkeypatch.delenv("HURWITZ_CACHE", raising=False)
    cache = tmp_path / "cache.csv"
    args = ["construct-phi", "--minpoly", "1,2,-1", "--interval", "0.4,0.5",
            "--q", "1", "--profile", "desk", "--stages", "1", "--n1", "1000",
            "--cache", str(cache)]
    code, cold = run_cli(args, tmp_path, "cold.json")
    assert code == 0
    lines = cache.read_text().splitlines()
    alpha = fixtures()
    assert len(lines) == len({norm_value(alpha, n) for n in range(1001, 1051)})
    code, warm = run_cli(args, tmp_path, "warm.json")
    assert code == 0
    assert cache.read_text().splitlines() == lines
    assert canonical(warm) == canonical(cold)
    code, plain = run_cli(args[:-2], tmp_path, "plain.json")
    assert code == 0 and canonical(plain) == canonical(cold)


def test_cache_env_and_flag(tmp_path, monkeypatch):
    cache_file = tmp_path / "cache.csv"
    args = ["factor-ideals", "--minpoly", "1,2,-1", "--interval", "0.4,0.5",
            "--range", "90..110", "--cache", str(cache_file)]
    code, _ = run_cli(args, tmp_path)
    assert code == 0
    assert cache_file.exists() and cache_file.read_text().strip()


def test_decompose_terms_are_canonical(tmp_path):
    code, payload = run_cli(["decompose", "--alpha", "1/2", "--f=1,-1", "--q", "2"], tmp_path)
    assert code == 0
    (term,) = payload["results"]["terms"]
    assert term["conductor"] == 4
    assert term["polynomial"] == {"1": {"order": 1, "terms": {"0": "1"}, "re": 1.0, "im": 0.0}}


def test_classify_certificate_quarter_turn_is_exact(tmp_path):
    # -i times the quartic character mod 5; alpha = 1 shifts f by one place
    code, payload = run_cli(["classify", "--alpha", "1", "--f=-1j,1,-1,1j,0"], tmp_path)
    assert code == 0
    cert = payload["results"]["certificate"]
    assert cert["character_modulus"] == 5
    assert cert["polynomial"]["1"] == {"order": 4, "terms": {"1": "-1"}, "re": 0.0, "im": -1.0}


def test_decompose_max_conductor_is_usage_error():
    # the conductor search and its cap are gone: the flag is unknown
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--alpha", "1/3", "--f", "1", "--q", "1", "--max-conductor", "3"])
    assert exc.value.code == 1


def test_verify_rejects_other_schema(tmp_path, capsys):
    code, payload = run_cli(["classify", "--alpha", "1/3", "--f", "1", "--q", "1"], tmp_path)
    assert code == 0
    payload["schema"] = 99
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    assert main(["verify", str(old), "--output", str(tmp_path / "v.json")]) == 2
    assert "schema 99" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("payload", [
    {"command": "classify", "config": {}, "results": {}},
    {"schema": SCHEMA_VERSION, "command": "classify", "config": {}, "results": {}},
    {"schema": SCHEMA_VERSION, "command": "factor-ideals", "config": {"alpha": {}}, "results": {}},
    [1, 2, 3],
    # a zero denominator in the config used to end in a ZeroDivisionError traceback
    {"schema": SCHEMA_VERSION, "command": "decompose",
     "config": {"alpha": {"kind": "rational", "value": "1/0"}, "f": ["1"], "q": 1}, "results": {}},
    {"schema": SCHEMA_VERSION, "command": "density",
     "config": {"alpha": {"kind": "algebraic", "minpoly": [1, 2, -1], "interval": ["2/5", "1/2"]},
                "q": 1, "theta": "1/0"},
     "results": {"windows": [{"N": 100, "q": 1, "b": 0, "eligible": []}]}},
    # a sweep with no windows has no mean to rebuild
    {"schema": SCHEMA_VERSION, "command": "density",
     "config": {"alpha": {"kind": "algebraic", "minpoly": [1, 2, -1], "interval": ["2/5", "1/2"]},
                "q": 1, "theta": "1/100", "N": [], "b": None},
     "results": {"windows": []}},
])
def test_verify_malformed_report_is_usage_error(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", str(bad), "--output", str(tmp_path / "v.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_write_csv_is_atomic(tmp_path, monkeypatch):
    import ghzeta.cli as cli

    target = tmp_path / "rows.csv"
    cli._write_csv(target, ("a", "b"), [(1, 2)])
    assert target.read_bytes() == b"a,b\r\n1,2\r\n"

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError):
        cli._write_csv(target, ("a", "b"), [(3, 4)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]
    assert target.read_bytes() == b"a,b\r\n1,2\r\n"


def _verify(report_path, tmp_path):
    """(exit code, verify report) of `verify --fraction 1.0` on one report."""
    out = tmp_path / "verify.json"
    try:
        code = main(["verify", str(report_path), "--fraction", "1.0", "--output", str(out)])
    except SystemExit as exc:
        code = exc.code
    return code, json.loads(out.read_text())


def test_verify_eval_checks_value_str_digits(tmp_path):
    code, payload = run_cli(
        ["eval", "--sigma", "2", "--t", "0.5", "--alpha", "2/7", "--f", "1/3,1,-2",
         "--digits", "40"], tmp_path,
    )
    assert code == 0
    code, vr = _verify(tmp_path / "report.json", tmp_path)
    assert code == 0 and vr["results"]["ok"]
    # change the 20th significant digit of the real part; value_re is untouched
    re_str = payload["results"]["value_str"][0]
    digits_seen = 0
    for i, ch in enumerate(re_str):
        if ch.isdigit() and (digits_seen or ch != "0"):
            digits_seen += 1
            if digits_seen == 20:
                re_str = re_str[:i] + str((int(ch) + 5) % 10) + re_str[i + 1:]
                break
    payload["results"]["value_str"][0] = re_str
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, vr = _verify(bad, tmp_path)
    assert code == 2
    assert vr["results"]["mismatches"] == ["value_str"]


@pytest.mark.parametrize("args", [
    ["decompose", "--alpha", "1/2", "--f", "1,-1,0", "--q", "3"],
    ["classify", "--alpha", "1/3", "--f", "1", "--q", "1"],
    ["classify", "--minpoly", "1,2,-1", "--interval", "0.4,0.5", "--f", "1,2", "--q", "2"],
])
def test_verify_rebuilds_structure_reports(tmp_path, args):
    code, payload = run_cli(args, tmp_path)
    assert code == 0
    code, vr = _verify(tmp_path / "report.json", tmp_path)
    assert code == 0 and vr["results"]["ok"]
    payload["results"]["tampered"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, vr = _verify(bad, tmp_path)
    assert code == 2
    assert vr["results"]["mismatches"] == ["results"]
