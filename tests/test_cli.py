"""CLI command behavior: outputs, formats, exit codes, determinism."""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import pytest

from nekrasov import analysis, darcais, series, stirling
from nekrasov.cli import (
    EXIT_ABORTED, EXIT_OK, EXIT_VIOLATION, FORMATS, _checks_stirling, _multiplicity_multisets, _write,
    main, parse_range,
)
from nekrasov.partitions import enumerate_partitions, multiplicities
from nekrasov.series import RationalSeries, register_series_rule


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("7") == range(7, 8)
    assert parse_range("2..5") == range(2, 6)
    assert len(parse_range("0..1000000000000")) == 10**12 + 1  # nothing is materialized
    for text in ("5..2", "2..", "..5"):
        with pytest.raises(ValueError):
            parse_range(text)


def test_qpoly_all_methods_agree(capsys):
    code, out, _ = run(capsys, "qpoly", "--n", "0..3", "--method", "all")
    assert code == EXIT_OK
    assert out.count("# method=") == 4
    assert "# verdict agree" in out
    assert "3 1 29/6" in out


def test_qpoly_single_method_tsv(capsys):
    code, out, _ = run(capsys, "qpoly", "--n", "0", "--method", "recursion")
    assert code == EXIT_OK
    assert out.strip() == "0 0 1"


def test_qpoly_json(capsys):
    code, out, _ = run(capsys, "qpoly", "--n", "2", "--method", "recursion",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == [{"n": 2, "coeffs": ["2", "5/2", "1/2"]}]


def test_qpoly_json_all(capsys):
    code, out, _ = run(capsys, "qpoly", "--n", "1..2", "--method", "all",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["agree"] is True
    assert set(payload["methods"]) == {
        "recursion", "hooks", "trivial-hooks", "multiplicities"
    }


def test_qpoly_all_json_golden(capsys):
    # sha256 of this stdout as the coefficient-by-coefficient integer kernel
    # printed it; a change to the routes' kernels must leave it byte-identical
    code, out, _ = run(capsys, "qpoly", "--n", "0..16", "--method", "all", "--format", "json")
    assert code == EXIT_OK
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "e82705319142d838270da54f7bb7010d21d05c4ee8e6d37539db04a06bf5ac2f"


def test_qpoly_all_json_golden_to_22(capsys):
    # the benchmark's agreement command, as the per-partition packed products
    # printed it before the depth-first partition walks replaced them
    code, out, _ = run(capsys, "qpoly", "--n", "0..22", "--method", "all", "--format", "json")
    assert code == EXIT_OK
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "0f1b5b78e7b5672b914d3aaf17198002b056b113e83a59fe602a0bf49cadb893"


def test_qpoly_recursion_json_golden_to_120(capsys):
    # the recursion route as the falling-factorial table R_n = n! Q_n printed it,
    # before the table moved to one common denominator with small weights
    code, out, _ = run(capsys, "qpoly", "--n", "0..120", "--format", "json")
    assert code == EXIT_OK
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "093105e4ee2fbbe53256559d78a0db6b8d5626ae12c0259e5c62de6f94b3339b"


def test_qpoly_csv(capsys):
    code, out, _ = run(capsys, "qpoly", "--n", "2", "--method", "hooks",
                       "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "method,n,k,coeff"
    assert lines[1] == "hooks,2,0,2"


def test_qpoly_enumeration_limit_exit(capsys):
    code, _, err = run(capsys, "qpoly", "--n", "40", "--method", "hooks")
    assert code == EXIT_ABORTED
    assert "32" in err


def test_qpoly_long_range_is_refused_at_its_first_n(capsys):
    # the range is walked, not built: n = 40 is refused before n = 41 exists
    code, out, err = run(capsys, "qpoly", "--n", "40..1000000000", "--method", "hooks")
    assert code == EXIT_ABORTED
    assert out == "" and "32" in err


def test_scan_exact_csv(capsys):
    code, out, _ = run(capsys, "scan", "--k", "2..3", "--mode", "exact")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k,n0,mode,elapsed_ms,n_max"
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[:3] == ["2", "6", "exact"]
    assert second[:3] == ["3", "21", "exact"]


def test_scan_empty_n0(capsys):
    code, out, _ = run(capsys, "scan", "--k", "2", "--n-max", "5")
    assert code == EXIT_OK
    row = out.strip().splitlines()[1].split(",")
    assert row[1] == ""


def test_scan_reports_no_violation_below_n_max(capsys):
    code, out, err = run(capsys, "scan", "--k", "9", "--n-max", "300", "--mode", "exact")
    assert code == EXIT_OK
    assert out.strip().splitlines()[1].split(",")[:3] == ["9", "", "exact"]
    assert "scan: k=9 has no violation below n_max=300" in err.splitlines()
    code, out, err = run(capsys, "scan", "--k", "2", "--n-max", "100", "--mode", "exact")
    assert code == EXIT_OK
    assert "no violation" not in err


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--k", "2", "--n-max", "100",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload[0]["k"] == 2 and payload[0]["n0"] == 6
    assert payload[0]["certified"] is True


def test_scan_custom_rule(capsys):
    code, out, _ = run(capsys, "scan", "--k", "1", "--n-max", "50",
                       "--rule", "remark-series")
    assert code == EXIT_OK
    assert out.strip().splitlines()[1].split(",")[1] == "3"


def test_scan_rejects_k1_for_sigma(capsys):
    code, _, err = run(capsys, "scan", "--k", "1", "--n-max", "50")
    assert code == EXIT_ABORTED
    assert "k must be >= 2" in err


def _mask_elapsed(out):
    """Scan output with its elapsed_ms values replaced by "_", in csv, tsv or json."""
    out = re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":_', out)
    return re.sub(r"(?m)^(\d+[,\t][^,\t\n]*[,\t][^,\t\n]*[,\t])\d+", r"\1_", out)


def test_scan_determinism_and_jobs(capsys):
    code, out1, _ = run(capsys, "scan", "--k", "2..4", "--mode", "exact")
    assert code == EXIT_OK
    code, out2, _ = run(capsys, "scan", "--k", "2..4", "--mode", "exact")
    assert code == EXIT_OK
    code, out3, _ = run(capsys, "scan", "--k", "2..4", "--mode", "exact",
                        "--jobs", "2")
    assert code == EXIT_OK
    assert _mask_elapsed(out1) == _mask_elapsed(out2) == _mask_elapsed(out3)


def test_scan_out_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--k", "2", "--n-max", "64",
                       "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    content = target.read_text().strip().splitlines()
    assert content[0] == "k,n0,mode,elapsed_ms,n_max"


@pytest.mark.parametrize("argv", [
    ("qpoly", "--n", "1"), ("scan", "--k", "2..3", "--jobs", "2"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, argv, where):
    # refused before the result is computed: aborted, not a violation, and nothing written
    module, name = {"qpoly": (darcais, "q_polynomial"), "scan": (analysis, "scan_conjecture")}[argv[0]]
    calls = []
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a))
    target = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == EXIT_ABORTED
    assert calls == []
    assert out == ""
    assert err.splitlines()[-1].startswith("nekrasov: ") and str(target) in err
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists() and list(tmp_path.iterdir()) == []


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities",
                       "--n-max", "12")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "suite,check,status"
    assert all(line.endswith(",pass") for line in lines[1:])
    assert any("four-way-agreement" in line for line in lines)


@pytest.mark.parametrize("suite", ["identities", "all"])
@pytest.mark.parametrize("n_max", range(8))
def test_verify_passes_at_the_smallest_sizes(capsys, suite, n_max):
    # below n_max = 6 the identity check reads rows of f^6, which is 0 to q^n_max
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n-max", str(n_max))
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "suite,check,status" and len(lines) > 1
    assert all(line.endswith(",pass") for line in lines[1:])


@pytest.mark.parametrize("row, failing", [
    (6, ["power-consistency"]),  # row 6 is only compared with products of lower rows
    (3, ["generating-identity-per-k", "power-consistency"]),
])
def test_verify_identities_catches_a_wrong_ladder_coefficient(capsys, monkeypatch, row, failing):
    class Perturbed(series._PowerRow):
        def extend(self, order, power, free=False):
            built = super().extend(order, power, free)
            self.rows[row][order // 2] += 1
            return built

    monkeypatch.setattr(series, "_PowerRow", Perturbed)
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--n-max", "20")
    assert code == EXIT_VIOLATION
    assert [line for line in out.strip().splitlines() if line.endswith(",fail")] == [
        f"identities,{check},fail" for check in failing
    ]


def test_verify_identities_catches_a_wrong_table_ladder(capsys, monkeypatch):
    # the generating identity builds its own ladder, so a wrong entry in the Q table's
    # ladder shows: column 3 of the table is wrong from n = 10 on
    table = darcais._QTable()
    table.powers.extend(20, 20)
    table.powers.rows[3][10] += 1
    monkeypatch.setattr(darcais, "_ladder", table)
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--n-max", "20")
    assert code == EXIT_VIOLATION
    assert [line for line in out.strip().splitlines() if line.endswith(",fail")] == [
        f"identities,{check},fail" for check in ("generating-identity-per-k", "four-way-agreement")
    ]


def test_verify_stirling(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stirling", "--n-max", "15")
    assert code == EXIT_OK
    assert all(line.endswith(",pass") for line in out.strip().splitlines()[1:])


@pytest.mark.parametrize("argv, digest", [
    (("--format", "json"), "96c3874f5edf520e82a9b2daf7166a0832e3db6063fb26d0c5045c0e6bd5ee03"),
    (("--n-max", "25", "--format", "csv"),
     "17a9c406f008fba368656e9a32dd743dc99d311ea32a0499aae1cecd70b7110a"),
], ids=["json", "csv-n25"])
def test_verify_stirling_golden(capsys, argv, digest):
    # sha256 of this stdout as the per-partition Fraction checks printed it
    code, out, _ = run(capsys, "verify", "--suite", "stirling", *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _multisets(n):
    return list(dict.fromkeys(
        tuple(sorted(multiplicities(p).values())) for p in enumerate_partitions(n)
    ))


def test_multiplicity_multisets_match_the_partitions():
    sets = _multiplicity_multisets(25)
    assert [sets[n] == set(_multisets(n)) for n in range(26)] == [True] * 26


@pytest.mark.parametrize("check", [
    "constrained-sum-descent", "mode-below-threshold", "binomial-product-log-concave",
])
@pytest.mark.parametrize("pick", [0, 10, -1])
def test_verify_stirling_checks_every_multiset(capsys, monkeypatch, check, pick):
    # one multiset at n = 12 fails one check; the deduplicated loop must still reach it
    key = _multisets(12)[pick]
    if check == "binomial-product-log-concave":
        real_lc, target = analysis.is_log_concave, stirling.q_coeff_numerators(key)[0]
        monkeypatch.setattr(analysis, "is_log_concave",
                            lambda seq: 1 if list(seq) == target else real_lc(seq))
    else:
        name = "descent_check" if check == "constrained-sum-descent" else "mode_bound_check"
        real = getattr(stirling, name)

        def stub(k_vec, n):
            result = real(k_vec, n)
            if n == 12 and tuple(sorted(k_vec)) == key:
                return dataclasses.replace(result, holds=False)
            return result

        monkeypatch.setattr(stirling, name, stub)
    code, out, _ = run(capsys, "verify", "--suite", "stirling", "--n-max", "12")
    assert code == EXIT_VIOLATION
    failed = [line for line in out.strip().splitlines()[1:] if not line.endswith(",pass")]
    assert failed == [f"stirling,{check},fail"]


def test_verify_ratio_decay_checks_the_fraction_precondition_pairs(monkeypatch):
    calls = []
    real = stirling.stirling_ratio_decay_check
    monkeypatch.setattr(stirling, "stirling_ratio_decay_check",
                        lambda n, m, t: calls.append((n, m, t)) or real(n, m, t))
    assert dict(_checks_stirling(60))["ratio-decay-bound"]
    assert calls == [
        (n, m, t)
        for n in range(2, 61)
        for m in range(1, n + 1)
        if not Fraction(m) < 2 * stirling.harmonic(n) + 1
        for t in range(n - m + 1)
    ]


def test_verify_ratio_decay_fails_on_one_wrong_table_entry(monkeypatch):
    # [21 15] raised to [21 10] breaks 2^5 [21 15] <= [21 10], the triple
    # (n, m, t) = (20, 9, 5); m = 9 is the first m the check takes at n = 20
    rows = stirling.stirling_rows(41)
    rows[21][15] = rows[21][10]
    monkeypatch.setattr(stirling, "_rows", rows)
    assert stirling.ratio_decay_start(20) == 9
    assert not stirling.stirling_ratio_decay_check(20, 9, 5)
    assert stirling.stirling_ratio_decay_check(20, 9, 4)
    assert not dict(_checks_stirling(40))["ratio-decay-bound"]


def test_verify_logconcave(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "logconcave", "--n-max", "40")
    assert code == EXIT_OK
    assert all(line.endswith(",pass") for line in out.strip().splitlines()[1:])


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities",
                       "--n-max", "8", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert all(item["status"] == "pass" for item in payload)


def test_series_dump_tsv(capsys):
    code, out, _ = run(capsys, "series-dump", "--rule", "remark-series",
                       "--order", "4")
    assert code == EXIT_OK
    assert out.strip().splitlines() == ["0\t0", "1\t1", "2\t3/2", "3\t1", "4\t3/2"]


def test_series_dump_json(capsys):
    code, out, _ = run(capsys, "series-dump", "--rule", "sigma-minus-one",
                       "--order", "3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["coeffs"] == ["0", "1", "3/2", "4/3"]


def test_stirling_dump(capsys):
    code, out, _ = run(capsys, "stirling-dump", "--n-max", "4")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert "4 2 11" in lines
    assert lines[0] == "0 0 1"


def test_stirling_dump_csv(capsys):
    code, out, _ = run(capsys, "stirling-dump", "--n-max", "3",
                       "--format", "csv")
    assert code == EXIT_OK
    assert out.strip().splitlines()[0] == "n,m,value"


@pytest.mark.parametrize("n_max", [30, 60])
def test_stirling_dump_after_verify_matches_a_cold_dump(capsys, monkeypatch, n_max):
    # verify --suite stirling grows the shared table to row 41; a dump then prints rows 0..n_max only
    monkeypatch.setattr(stirling, "_rows", [[1]])
    cold = [run(capsys, "stirling-dump", "--n-max", str(n_max), "--format", fmt) for fmt in FORMATS]
    monkeypatch.setattr(stirling, "_rows", [[1]])
    assert run(capsys, "verify", "--suite", "stirling")[0] == EXIT_OK
    assert len(stirling._rows) == 42
    assert [run(capsys, "stirling-dump", "--n-max", str(n_max), "--format", fmt) for fmt in FORMATS] == cold


@pytest.mark.parametrize("n_max", [-1, stirling.TABLE_LIMIT + 1])
def test_stirling_dump_out_of_range_names_the_range(capsys, n_max):
    held = len(stirling._rows)
    assert run(capsys, "stirling-dump", "--n-max", str(n_max)) == (
        EXIT_ABORTED, "", f"nekrasov: n_max={n_max} is outside the Stirling range 0..{stirling.TABLE_LIMIT}\n")
    assert len(stirling._rows) == held


@pytest.mark.parametrize("argv", [
    ("stirling-dump", "--n-max", "-1"),
    ("stirling-dump", "--n-max", str(stirling.TABLE_LIMIT + 1)),
    ("verify", "--suite", "stirling", "--n-max", str(stirling.TABLE_LIMIT + 1)),
    ("verify", "--suite", "all", "--n-max", str(stirling.TABLE_LIMIT + 1)),
])
def test_bad_stirling_size_exits_2(capsys, argv):
    # refused before any table is built
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ABORTED
    assert out == ""
    assert "Stirling" in err and "n_max=" in err


@pytest.mark.parametrize("suite", ["identities", "logconcave", "stirling", "all"])
def test_negative_verify_size_exits_2(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", "-3")
    assert code == EXIT_ABORTED
    assert out == ""
    assert "n_max=-3 is negative" in err


@pytest.mark.parametrize("argv", [
    ("qpoly", "--n", "5000"),
    ("qpoly", "--n", f"0..{darcais.TABLE_LIMIT + 1}", "--method", "all"),
    ("verify", "--suite", "identities", "--n-max", str(darcais.TABLE_LIMIT + 1)),
    ("verify", "--suite", "logconcave", "--n-max", str(darcais.TABLE_LIMIT + 1)),
])
def test_q_table_size_above_limit_exits_2(capsys, monkeypatch, argv):
    # refused before any method or suite starts work, and before the table grows a row
    def ran(*args):
        raise AssertionError("the size check came too late")

    tripwires = ["q_polynomial", "coefficient_series"]
    if argv[0] == "verify":  # qpoly's refusal comes from q_table_via_recursion itself
        tripwires.append("q_table_via_recursion")
    for name in tripwires:
        monkeypatch.setattr(darcais, name, ran)
    monkeypatch.setattr(series, "partition_series", ran)
    table = darcais._QTable()
    monkeypatch.setattr(darcais, "_ladder", table)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ABORTED
    assert out == ""
    assert f"above the Q table limit {darcais.TABLE_LIMIT}" in err
    assert table.rows == [] and table.ints == [] and table.powers.rows == [[], []]


@pytest.mark.parametrize("argv, top", [
    (("--n", "0..40"), 40), (("--n", "0..12", "--method", "all"), 12),
], ids=["recursion", "all"])
def test_qpoly_range_grows_the_table_once(capsys, monkeypatch, argv, top):
    # one build to the top of the range, not one growth (and rescale) per n
    grown = []

    class Counting(darcais._QTable):
        def ensure(self, n_max):
            if n_max > self.n_max:
                grown.append(n_max)
            super().ensure(n_max)

    monkeypatch.setattr(darcais, "_ladder", Counting())
    code, _, _ = run(capsys, "qpoly", *argv)
    assert code == EXIT_OK
    assert grown == [top]


# --precision-cap is no longer a scan flag either (see the test below); the
# other commands keep refusing it
@pytest.mark.parametrize("flag", [
    ("--mode", "exact"), ("--precision-cap", "64"), ("--exact-fallback", "10"), ("--jobs", "1"),
], ids=lambda flag: flag[0])
@pytest.mark.parametrize("argv", [
    ("qpoly", "--n", "2"), ("verify", "--suite", "stirling"), ("series-dump",), ("stirling-dump",),
], ids=lambda argv: argv[0])
def test_scan_flags_are_refused_by_other_commands(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == EXIT_ABORTED
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag[0]}" in err


def test_scan_refuses_the_removed_precision_cap(capsys):
    # the 64-bit pass runs wherever longdouble is wider; no flag turns it off
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--k", "2", "--precision-cap", "64"])
    assert exc.value.code == EXIT_ABORTED
    assert "unrecognized arguments: --precision-cap" in capsys.readouterr().err


def test_scan_jobs_below_one_exits_2(capsys):
    code, out, err = run(capsys, "scan", "--k", "2..3", "--jobs", "0")
    assert code == EXIT_ABORTED
    assert out == ""
    assert "jobs must be >= 1" in err


def test_worker_error_with_jobs_exits_2(capsys):
    # raised in a worker process, reported like a serial refusal
    code, out, err = run(capsys, "scan", "--k", "2..3", "--jobs", "2", "--n-max", "2")
    assert code == EXIT_ABORTED
    assert out == ""
    assert "n_max must be >= 3" in err


class _InlinePool(concurrent.futures.Executor):
    """Runs each call at submission and counts the submissions; Executor.map submits through it."""

    submitted = 0

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def submit(self, fn, *args, **kwargs):
        type(self).submitted += 1
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def test_scan_jobs_keep_at_most_jobs_in_flight(capsys, monkeypatch):
    # every k of the range is refused; the run must stop after the first jobs
    # submissions, not submit the whole range first
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "submitted", 0)
    code, out, err = run(capsys, "scan", "--k", "300000..320000", "--jobs", "3")
    assert code == EXIT_ABORTED
    assert out == ""
    assert "262144" in err
    assert _InlinePool.submitted <= 3
    # a range that succeeds comes back in order, as without --jobs
    code, out_jobs, _ = run(capsys, "scan", "--k", "2..6", "--jobs", "2", "--mode", "exact")
    assert code == EXIT_OK
    code, out_serial, _ = run(capsys, "scan", "--k", "2..6", "--mode", "exact")
    assert _mask_elapsed(out_jobs) == _mask_elapsed(out_serial)


def test_series_dump_negative_order_exits_2(capsys):
    for rule in series.series_rule_names():
        code, out, err = run(capsys, "series-dump", "--rule", rule, "--order", "-5")
        assert code == EXIT_ABORTED, rule
        assert out == ""
        assert "truncation order must be non-negative" in err


@pytest.mark.parametrize("mode", ["exact", "adaptive-float"])
def test_scan_bound_above_limit_exits_2(capsys, mode):
    code, out, err = run(capsys, "scan", "--k", "30", "--mode", mode)
    assert code == EXIT_ABORTED
    assert out == ""
    assert "scan limit 262144" in err


@pytest.mark.parametrize("mode", ["exact", "adaptive-float"])
@pytest.mark.parametrize("argv", [
    ("--k", "20000"), ("--k", "10000000000"), ("--k", "300000", "--n-max", "300"),
], ids=lambda argv: "-".join(argv[1::2]))
def test_scan_huge_k_exits_2_before_building(capsys, monkeypatch, mode, argv):
    def built(*args):
        raise AssertionError("the k check came too late")

    monkeypatch.setattr(analysis, "_PowerRow", built)
    monkeypatch.setattr(analysis, "_shared_power", built)
    monkeypatch.setattr(analysis, "_float_base", built)
    code, out, err = run(capsys, "scan", *argv, "--mode", mode)
    assert code == EXIT_ABORTED
    assert out == ""
    assert "scan limit 262144" in err


def test_series_dump_order_above_scan_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(series, "custom_series", lambda *args: pytest.fail("built the series"))
    code, out, err = run(capsys, "series-dump", "--order", str(analysis.SCAN_LIMIT + 1))
    assert code == EXIT_ABORTED
    assert out == ""
    assert f"above the scan limit {analysis.SCAN_LIMIT}" in err


def test_scan_uncertified_exit_status(capsys):
    # exact ties are undecidable by enclosures; with the exact fallback off,
    # the row must be flagged uncertified and the exit status must say so
    from fractions import Fraction

    from nekrasov.series import RationalSeries, register_series_rule

    register_series_rule(
        "geometric-cli-test",
        lambda n: RationalSeries([0] + [Fraction(1, 3**i) for i in range(1, n + 1)]),
    )
    code, out, err = run(capsys, "scan", "--k", "1", "--n-max", "12",
                         "--rule", "geometric-cli-test",
                         "--mode", "adaptive-float", "--exact-fallback", "0")
    assert code == EXIT_ABORTED
    row = out.strip().splitlines()[1].split(",")
    assert row[1] == "" and row[2] == "uncertified"
    assert "uncertified" in err


def test_scan_rule_outside_float_range_exits_2(capsys):
    from fractions import Fraction

    from nekrasov.series import RationalSeries, register_series_rule

    register_series_rule(
        "huge-coefficient-cli-test",
        lambda n: RationalSeries([0, 1, Fraction(10**400)] + [1] * (n - 2)),
    )
    code, _, err = run(capsys, "scan", "--k", "1", "--n-max", "12",
                       "--rule", "huge-coefficient-cli-test", "--mode", "adaptive-float")
    assert code == EXIT_ABORTED
    assert "coefficient 2" in err and "float64" in err


def test_qpoly_disagreement_exit_status(capsys, monkeypatch):
    from fractions import Fraction

    from nekrasov import darcais

    real = darcais.q_polynomial

    def skewed(n, method="recursion"):
        q = real(n, method)
        if method == "hooks":
            return darcais.QPolynomial(q.n, (q.coeffs[0] + 1,) + q.coeffs[1:])
        return q

    monkeypatch.setattr(darcais, "q_polynomial", skewed)
    code, out, _ = run(capsys, "qpoly", "--n", "2", "--method", "all")
    assert code == 1
    assert "# verdict disagree" in out


# ---------------------------------------------------------------------------
# golden matrix: every command in every format
# ---------------------------------------------------------------------------

_GOLDEN_CASES = {
    "qpoly-all": ("qpoly", "--n", "0..6", "--method", "all"),
    "qpoly-recursion": ("qpoly", "--n", "0..12"),
    "qpoly-hooks": ("qpoly", "--n", "3..5", "--method", "hooks"),
    "scan-certified": ("scan", "--k", "2..3"),
    "scan-no-violation": ("scan", "--k", "9", "--n-max", "300"),
    "scan-uncertified": ("scan", "--k", "1", "--n-max", "12", "--rule", "geometric-golden-test",
                         "--mode", "adaptive-float", "--exact-fallback", "0"),
    "verify-identities": ("verify", "--suite", "identities", "--n-max", "8"),
    "verify-logconcave": ("verify", "--suite", "logconcave", "--n-max", "20"),
    "verify-stirling": ("verify", "--suite", "stirling", "--n-max", "12"),
    "series-dump": ("series-dump", "--rule", "remark-series", "--order", "8"),
    "stirling-dump": ("stirling-dump", "--n-max", "8"),
}

# (exit code, sha256 of stdout) as the per-command format branches printed them,
# with elapsed_ms masked in the scan rows
_GOLDEN = {
    ("qpoly-all", "csv"): (0, "d819cd708c68fd5d2189ff4d17e909b8d0b46a97a7f085cfd62d4614778b6a54"),
    ("qpoly-all", "json"): (0, "d975014e4198556576ecd5513284bd622719e111e93e498216dccf7c2f65bfba"),
    ("qpoly-all", "tsv"): (0, "dff52350d5f22c63a86a904ca363cbac424887e8f549b9d1a6b85da75bdbc08c"),
    ("qpoly-recursion", "csv"): (0, "d64b33cd8b273d2f23e66295ea4652167a5ab67f15b6746257092ddc23236275"),
    ("qpoly-recursion", "json"): (0, "49502db7c2e09997267a748c384ed33f61994c050513f4f4832ffbb4a58c8a0f"),
    ("qpoly-recursion", "tsv"): (0, "2562ae17e44d97c7cf7b68240d9ce156de81ef4877bd2c9942585054f97e4d05"),
    ("qpoly-hooks", "csv"): (0, "1038adc59083e8fbacf63aa944a67edb6d9fd32e1b38090a4ca72fa9641016a2"),
    ("qpoly-hooks", "json"): (0, "32757be8d916e6ac90c0d44af563cd7e8b2ac2093abe5b0c2acbcf35ce75d05d"),
    ("qpoly-hooks", "tsv"): (0, "8cd1975fc8cbd737b74dd8a0766a3180804f64ed3c3f957b1e99b3bce18cfe58"),
    ("scan-certified", "csv"): (0, "7f14ac8e172170958e0a6f8b8ebb21cad09aee30cb7acf1ed879f68e24065673"),
    ("scan-certified", "json"): (0, "f91ab917563b63cf0b033e29c281287c8063eb234766e4938bb90d2282bbefdd"),
    ("scan-certified", "tsv"): (0, "9848567e084d473369c3f0a66cea17ab338455d64ce78c8602f5d0d2cf685a50"),
    ("scan-no-violation", "csv"): (0, "e2923084f7dafe80764c923fd14d0649fab7dd7f0a89c3819087b7e3cece10f2"),
    ("scan-no-violation", "json"): (0, "454da9a9f786bd19613ea1b42e5692e41f57412c1ed9ee3774ecbbc8f1621a56"),
    ("scan-no-violation", "tsv"): (0, "66c0900d6f556574a4ef77432b7cf0b28a31241ee8248ae31fd040a246b913f1"),
    ("scan-uncertified", "csv"): (2, "d9bed38115f3405804470445137e435454fdc7d73c4ba2c986ee390032182f82"),
    ("scan-uncertified", "json"): (2, "fe3214cc0e8a54a8ca96173a69b8bead5180a52ca148f9c6532fdf2219fcd651"),
    ("scan-uncertified", "tsv"): (2, "48aae94705ed767381c3cb37b2c862c3588275b16475c5782d2c31c4fa100b49"),
    ("verify-identities", "csv"): (0, "90ed09e9e4cd88eb226e716d90573a0fd4d0219866f4c994f69051c1d94d6b4b"),
    ("verify-identities", "json"): (0, "6d465fc1ad79e44b81e8cf173dc895cd21593532443433b28cc674ec7c44d135"),
    ("verify-identities", "tsv"): (0, "35f0d52f430506d6e511c7cfebef42df7b1e361727a37e18eba68aa81c4ca141"),
    ("verify-logconcave", "csv"): (0, "7c500a1a841acede4999288657eba6e1e278d5f68741bff8da9996f459d3858e"),
    ("verify-logconcave", "json"): (0, "fdda3f6e42d64dfa1038f1fa6c54ea41eed1078f68f82f8605334bb1634ae69e"),
    ("verify-logconcave", "tsv"): (0, "2ae6cc931b92dd625131b60f45bfddc13e243ce4326ba8aad2be3927c99d9fa0"),
    ("verify-stirling", "csv"): (0, "17a9c406f008fba368656e9a32dd743dc99d311ea32a0499aae1cecd70b7110a"),
    ("verify-stirling", "json"): (0, "96c3874f5edf520e82a9b2daf7166a0832e3db6063fb26d0c5045c0e6bd5ee03"),
    ("verify-stirling", "tsv"): (0, "514704f5f3802ecb840fd301572d3b36bb4dcdc3f5539766160c295d3c682372"),
    ("series-dump", "csv"): (0, "a05c2908bf8770027c5e54ec9be2dc3d55c4bfdb2371fa431602b48e49177c5f"),
    ("series-dump", "json"): (0, "9b7ad30e356a4dafab46f4aa0ce5468e6ed22b7351d8d04472bcd7af4e0bc752"),
    ("series-dump", "tsv"): (0, "f7f14026dc42b39d77b8241bc8ba5d2bb4970da752619fa612d49023bca60873"),
    ("stirling-dump", "csv"): (0, "afdba9583129fa34d1c523112f203e3a62ee3c7d3972d8523b5bacbd8ea729fa"),
    ("stirling-dump", "json"): (0, "2558d8f8c5354b5260a73783ee87820acc02a51f8b733ef63782ae0c5756a168"),
    ("stirling-dump", "tsv"): (0, "1e76d4124d164dd4938fc5b23539097681b70502727c3f7305db9f9803c31811"),
}


def _golden_run(capsys, name, fmt, *extra):
    register_series_rule(  # exact ties that no enclosure decides: an uncertified row
        "geometric-golden-test",
        lambda n: RationalSeries([0] + [Fraction(1, 3**i) for i in range(1, n + 1)]),
    )
    code, out, _ = run(capsys, *_GOLDEN_CASES[name], "--format", fmt, *extra)
    return code, out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", list(_GOLDEN_CASES))
def test_output_golden_matrix(capsys, name, fmt):
    code, out = _golden_run(capsys, name, fmt)
    if name.startswith("scan"):
        out = _mask_elapsed(out)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _GOLDEN[name, fmt]


def _unbuilt():
    raise AssertionError("built the output of another format")
    yield


@pytest.mark.parametrize("fmt, dumps, expected", [
    ("json", False, '{"rows":2}\n'),
    ("csv", True, "a,b\n1,\n"),
    ("tsv", False, "a\tb\n1\t\n"),
    ("tsv", True, "1 -\n"),
])
def test_write_builds_only_what_its_format_prints(capsys, fmt, dumps, expected):
    args = argparse.Namespace(format=fmt, out=None)
    payload = (lambda: {"rows": 2}) if fmt == "json" else _unbuilt
    rows = _unbuilt() if fmt == "json" or (fmt == "tsv" and dumps) else iter([(1, None)])
    dump = (lambda: iter(["1 -"])) if fmt == "tsv" else _unbuilt
    _write(args, payload, ("a", "b"), rows, dump if dumps else None)
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", FORMATS)
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, fmt):
    target = tmp_path / "out.txt"
    code, out = _golden_run(capsys, "qpoly-all", fmt, "--out", str(target))
    assert out == ""
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert (code, digest) == _GOLDEN["qpoly-all", fmt]
