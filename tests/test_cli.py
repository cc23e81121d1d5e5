import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oddcycle import cli, verify_radius
from oddcycle.cli import UsageError, main, parse_graph_argument, run_verification
from oddcycle.extremal import SUITE_ORDERS
from oddcycle import ReductionInvariantError, cycle_graph, make_F, path_graph, star_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ------------------------------------------------------------ graph parsing


def test_parse_graph_argument_forms(tmp_path):
    assert parse_graph_argument("Dhc") == cycle_graph(5)
    assert parse_graph_argument("C 5") == cycle_graph(5)
    assert parse_graph_argument("C,5") == cycle_graph(5)
    assert parse_graph_argument("F 5 6") == make_F(5, 6)
    assert parse_graph_argument("h 5") == make_F(5, 6)
    assert parse_graph_argument("K1 3") == star_graph(3)
    assert parse_graph_argument("P 4") == path_graph(4)
    listing = tmp_path / "g.txt"
    listing.write_text("n 4\n0 1\n1 2\n2 3\n")
    assert parse_graph_argument(f"@{listing}") == path_graph(4)


def test_parse_graph_argument_errors():
    for bad in ["", "Q 3", "C x", "@/no/such/file", "C 5 5"]:
        with pytest.raises(ValueError):
            parse_graph_argument(bad)


# ------------------------------------------------------------------- poly


def test_poly_table(capsys):
    code, out, err = run(capsys, "poly", "C 5")
    assert code == 0 and err == ""
    assert "Dhc" in out
    assert "profile: [1, 5, 5]" in out
    assert "x^5 - 5x^3 + 5x" in out


def test_poly_json(capsys):
    code, blob, _ = run_json(capsys, "poly", "Bw")
    assert code == 0
    assert blob["schema"] == 1 and blob["command"] == "poly"
    (entry,) = blob["results"]
    assert entry == {
        "graph6": "Bw",
        "n": 3,
        "m": 3,
        "profile": [1, 3],
        "coefficients": [0, -3, 0, 1],
        "polynomial": "x^3 - 3x",
    }


def test_poly_stdin_batch(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\n\nDhc\n"))
    code, blob, _ = run_json(capsys, "poly", "-")
    assert code == 0
    assert [r["graph6"] for r in blob["results"]] == ["Bw", "Dhc"]


def test_poly_empty_stdin_fails(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out, err = run(capsys, "poly", "-")
    assert code == 2
    assert "error:" in err


def test_poly_reads_back_k1_and_still_rejects_missing_edge_lists(capsys, monkeypatch, tmp_path):
    # "@" alone is the graph6 string of K1, as `poly "P 1"` prints it
    code, blob, _ = run_json(capsys, "poly", "@")
    assert code == 0
    (entry,) = blob["results"]
    assert entry["graph6"] == "@" and entry["profile"] == [1]
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "poly", "@missing.txt")
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------------- maxroot


def test_maxroot(capsys):
    code, out, err = run(capsys, "maxroot", "Bw", "--digits", "8")
    assert code == 0
    assert "t = 1.73205081" in out
    assert "certified in [" in out


def test_maxroot_json_interval_brackets_the_root(capsys):
    code, blob, _ = run_json(capsys, "maxroot", "C 4", "--digits", "6")
    assert code == 0
    (entry,) = blob["results"]
    assert entry["value"] == "1.847759"
    lo, hi = Fraction(entry["interval"][0]), Fraction(entry["interval"][1])
    assert lo < hi
    assert hi - lo <= Fraction(1, 10**8)
    # the certified interval brackets the sign change of x^4 - 4x^2 + 2
    from oddcycle import IntPolynomial

    mpoly = IntPolynomial.from_coeffs([2, 0, -4, 0, 1])
    assert mpoly.sign_at(lo) < 0 < mpoly.sign_at(hi)


@pytest.mark.parametrize("digits", ["-1", "-3"])
@pytest.mark.parametrize(
    "argv", [("maxroot", "F 5 6"), ("skew", "C 5"), ("dominance", "F 5 6", "C 5")]
)
def test_negative_digits_is_bad_input(capsys, argv, digits):
    code, out, err = run(capsys, *argv, "--digits", digits)
    assert code == 2 and out == ""
    assert f"argument --digits: expected an integer >= 0, got '{digits}'" in err


# -------------------------------------------------------------------- skew


def test_skew_single_orientation(capsys):
    code, blob, _ = run_json(capsys, "skew", "Bw", "--mask", "0x0")
    assert code == 0
    (entry,) = blob["results"]
    assert entry["distinct_polynomials"] == 1
    (orient,) = entry["orientations"]
    assert orient == {
        "mask": "0x0",
        "char_poly": "x^3 + 3x",
        "identity": True,
        "radius": "1.732051",
    }


def test_skew_all_orientations(capsys):
    code, blob, _ = run_json(capsys, "skew", "C 4", "--all")
    assert code == 0
    (entry,) = blob["results"]
    assert len(entry["orientations"]) == 16
    assert entry["distinct_polynomials"] == 2
    assert not any(o["identity"] for o in entry["orientations"])
    polys = {o["char_poly"] for o in entry["orientations"]}
    assert polys == {"x^4 + 4x^2", "x^4 + 4x^2 + 4"}
    _, table, _ = run(capsys, "skew", "C 4", "--all")
    assert "VIOLATES" in table


def test_skew_mask_out_of_range(capsys):
    code, out, err = run(capsys, "skew", "Bw", "--mask", "8")
    assert code == 2 and "error:" in err


# ------------------------------------------------------------------ reduce


def test_reduce(capsys):
    code, blob, _ = run_json(capsys, "reduce", "C 5")
    assert code == 0
    (entry,) = blob["results"]
    assert entry["start"] == "Dhc"
    assert len(entry["steps"]) == 2
    assert entry["steps"][0]["phase"] == "long_cycle"
    assert entry["steps"][1]["phase"] == "degree_lift"
    assert entry["steps"][-1]["result"] == entry["final"]

    code, out, _ = run(capsys, "reduce", "C 5")
    assert code == 0
    assert "in 2 step(s)" in out
    assert "[long_cycle]" in out


def test_reduce_rejects_even_cycles(capsys):
    code, out, err = run(capsys, "reduce", "C 4")
    assert code == 2 and "error:" in err


# --------------------------------------------------------------- dominance


def test_dominance_output(capsys):
    code, blob, _ = run_json(capsys, "dominance", "C 5", "F 5 5")
    assert code == 0
    assert blob["verdict"] == "incomparable"

    code, blob, _ = run_json(capsys, "dominance", "F 5 5", "C 5")
    assert code == 0
    assert blob["verdict"] == "strictly_dominates"
    assert blob["difference"] == "3x"
    assert blob["difference_max_root"] == "0.000000"

    code, blob, _ = run_json(capsys, "dominance", "C 5", "C 5")
    assert blob["verdict"] == "equal_polynomials"
    assert blob["difference"] == "0"
    assert blob["difference_max_root"] is None


def test_dominance_rejects_mixed_orders(capsys):
    code, out, err = run(capsys, "dominance", "C 5", "C 7")
    assert code == 2 and "error:" in err


# ------------------------------------------------------------------ verify


def test_verify_passes_and_reports(capsys):
    code, blob, _ = run_json(capsys, "verify", "identity", "--max-n", "3")
    assert code == 0
    assert blob["claim"] == "identity"
    assert blob["passed"] is True
    assert blob["universe"] == "orders 1..3"
    assert blob["checked"] > 0


def test_verify_numeric_aliases(capsys):
    code, blob, _ = run_json(capsys, "verify", "1.2", "--max-n", "3")
    assert code == 0 and blob["claim"] == "identity"
    code, blob, _ = run_json(capsys, "verify", "2.2", "--max-n", "3")
    assert code == 0 and blob["claim"] == "reduction"


def test_verify_monotonicity(capsys):
    code, blob, _ = run_json(capsys, "verify", "monotonicity", "--max-n", "8")
    assert code == 0 and blob["claim"] == "monotonicity"


def test_verify_usage_errors(capsys):
    code, out, err = run(capsys, "verify", "bogus")
    assert code == 2 and "error:" in err
    code, out, err = run(capsys, "verify", "classification", "--max-n", "1")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "suite,max_n,message",
    [
        ("dominance", 7, "suite dominance needs 2 <= --max-n <= 6"),
        ("oracles", 8, "suite oracles needs 1 <= --max-n <= 7"),
        ("3.7", 1, "suite dominance needs 2 <= --max-n <= 6"),
    ],
)
def test_verify_rejects_max_n_before_any_order_runs(capsys, monkeypatch, suite, max_n, message):
    def ran(*args, **kwargs):
        raise AssertionError("a sweep ran")

    for name in SUITE_ORDERS:
        monkeypatch.setattr(cli, f"verify_{name}", ran)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", suite, "--max-n", str(max_n))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_default_max_n_comes_from_the_order_table(monkeypatch):
    seen = []

    def radius(n):
        seen.append(n)
        return verify_radius(1)

    monkeypatch.setattr(cli, "verify_radius", radius)
    run_verification("radius", None)
    lo, _, default = SUITE_ORDERS["radius"]
    assert seen == list(range(lo, default + 1))


def test_verify_has_no_threads_option(capsys, monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(cli, "run_verification", ran)
    code, out, err = run(capsys, "verify", "identity", "--max-n", "3", "--threads", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --threads 2" in err


def test_run_verification_accepts_only_one_thread():
    with pytest.raises(UsageError):
        run_verification("radius", 3, threads=2)
    rep = run_verification("radius", 3, threads=1)
    assert rep.passed and rep.witnesses == run_verification("radius", 3).witnesses


def test_import_loads_no_process_pool():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import oddcycle\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_readme_suite_table_matches_the_order_table():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Verification sweeps", 1)[1].split("\n## ", 1)[0]
    header, *rows = (
        [cell.strip() for cell in line.split("|")[1:-1]]
        for line in section.splitlines()
        if line.startswith("| ")
    )
    assert header[0] == "suite" and header[2:] == ["min n", "max n", "default"]
    assert {row[0].strip("`"): tuple(map(int, row[2:])) for row in rows} == SUITE_ORDERS


def test_internal_failure_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ReductionInvariantError("step 2 left the family")

    monkeypatch.setattr(cli, "run_verification", broken)
    code, out, err = run(capsys, "verify", "classification", "--max-n", "3")
    assert code == 3
    assert out == ""
    assert err == "internal error: ReductionInvariantError: step 2 left the family\n"


def test_run_verification_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_verification("nope", 4)


# ------------------------------------------------------------------ output


def test_default_format_is_table(capsys):
    code, out, _ = run(capsys, "verify", "monotonicity", "--max-n", "4")
    assert code == 0
    assert out.startswith("claim monotonicity: PASS\n")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, err = run(capsys, "poly", "Bw", "--format", "json", "--out", str(path))
    assert code == 0
    assert out == ""
    blob = json.loads(path.read_text())
    assert blob["command"] == "poly"


def test_out_into_a_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "poly", "Bw", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.parent.exists()


def test_bad_graph6_exits_2(capsys):
    code, out, err = run(capsys, "poly", "B")
    assert code == 2 and "error:" in err


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "oddcycle", "poly", "Bw"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "x^3 - 3x" in proc.stdout
