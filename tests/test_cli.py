"""Command line interface, run as subprocesses and, against the
benchmark's golden reports, in-process."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hhext import cli
from hhext.resolution import TermTables
from hhext.exactla import PRIME_BOUND

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hhext.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_dims_text_passes():
    r = run_cli("dims", "--n", "2", "--m-max", "3", "--no-timestamp")
    assert r.returncode == 0
    assert "0 failed" in r.stdout


def test_dims_json_structure():
    r = run_cli("dims", "--n", "2", "--m-max", "2", "--format", "json",
                "--no-timestamp")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["version"]
    assert rep["summary"]["fail"] == 0
    assert rep["config"]["command"] == "dims"
    ids = {rec["id"] for rec in rep["records"]}
    assert {"dims.hh", "dims.hhc", "dims.cyclic", "dims.hilbert"} <= ids
    recs = rep["records"]
    keys = [(r["id"], json.dumps(r["params"], sort_keys=True)) for r in recs]
    assert keys == sorted(keys)


def test_dims_char2():
    r = run_cli("dims", "--n", "3", "--m-max", "3", "--char", "2",
                "--format", "json", "--no-timestamp")
    rep = json.loads(r.stdout)
    assert r.returncode == 0
    assert rep["summary"]["fail"] == 0
    hh = {rec["params"]["m"]: rec["computed"] for rec in rep["records"]
          if rec["id"] == "dims.hh"}
    assert hh == {0: 8, 1: 24, 2: 48, 3: 80}


def test_verify_suites():
    for suite in ("resolution", "ranks", "identities"):
        r = run_cli("verify", "--n", "2", "--m-max", "3", "--suite", suite,
                    "--format", "json", "--no-timestamp")
        rep = json.loads(r.stdout)
        assert r.returncode == 0, suite
        assert rep["summary"]["fail"] == 0, suite
        assert rep["records"], suite


def readme_commands():
    """The argv of every `hhext ...` line in the README's sh blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("hhext ")]


def test_readme_examples_run(tmp_path):
    """Every README example exits 0, run in-process with its report
    written under tmp_path."""
    commands = readme_commands()
    assert len(commands) >= 6, commands
    for i, argv in enumerate(commands):
        if "--out" in argv:
            i_out = argv.index("--out")
            del argv[i_out:i_out + 2]
        out = tmp_path / f"example{i}"
        assert cli.main([*argv, "--out", str(out)]) == 0, argv
        assert out.read_text(), argv


def test_composite_zero_skips_at_degree_zero():
    """At --m-max 0 no two differentials compose, so the d^2 = 0 record
    is a skip with a note, not a pass; from --m-max 1 on it passes."""
    for m_max, status in (("0", "skip"), ("1", "pass")):
        r = run_cli("verify", "--n", "2", "--m-max", m_max, "--suite",
                    "ranks", "--format", "json", "--no-timestamp")
        rep = json.loads(r.stdout)
        assert r.returncode == 0
        rec, = [rec for rec in rep["records"]
                if rec["id"] == "ranks.composite-zero"]
        assert rec["status"] == status
        assert ("note" in rec) == (status == "skip")


def test_verify_oracle_skips_beyond_cap():
    r = run_cli("verify", "--n", "3", "--m-max", "4", "--suite", "oracle",
                "--format", "json", "--no-timestamp", "--oracle-cap", "50000")
    rep = json.loads(r.stdout)
    assert r.returncode == 0
    skipped = [rec for rec in rep["records"] if rec["status"] == "skip"]
    assert skipped and all(rec["params"]["m"] == 4 for rec in skipped)
    assert rep["summary"]["fail"] == 0


def test_ring_findings_do_not_fail():
    r = run_cli("ring", "--n", "3", "--deg-max", "2", "--format", "json",
                "--no-timestamp")
    rep = json.loads(r.stdout)
    assert r.returncode == 0
    assert rep["summary"]["findings"] >= 1
    assert rep["summary"]["fail"] == 0
    findings = [rec for rec in rep["records"] if rec["status"] == "finding"]
    assert any(rec["id"] == "ring.presentation" for rec in findings)


def test_findings_as_failures_flag():
    r = run_cli("ring", "--n", "3", "--deg-max", "2", "--no-timestamp",
                "--findings-as-failures")
    assert r.returncode == 1


def test_cyclic_values():
    r = run_cli("cyclic", "--n", "2", "--m-max", "5", "--format", "json",
                "--no-timestamp")
    rep = json.loads(r.stdout)
    assert r.returncode == 0
    vals = {rec["params"]["m"]: rec["expected"] for rec in rep["records"]
            if rec["id"] == "cyclic.value"}
    assert vals == {0: 3, 1: 2, 2: 5, 3: 4, 4: 7, 5: 6}


def test_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--n", "2", "--m-max", "3", "--suite", "ranks",
            "--format", "json", "--no-timestamp")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_output():
    r = run_cli("dims", "--n", "2", "--m-max", "1", "--format", "csv",
                "--no-timestamp")
    lines = r.stdout.splitlines()
    assert lines[0] == "id,params,status,expected,computed,note"
    assert all("pass" in line for line in lines[1:])


def test_usage_errors():
    assert run_cli("dims", "--n", "1").returncode == 2
    assert run_cli("verify", "--char", "4").returncode == 2
    assert run_cli("dims", "--n", "2", "--n-max", "3").returncode == 2
    assert run_cli().returncode == 2
    small = ("--n", "2", "--m-max", "1", "--no-timestamp")
    for char in ("1", "-3"):
        assert run_cli("dims", *small, "--char", char).returncode == 2, char
    assert run_cli("dims", "--n-max", "1").returncode == 2
    assert run_cli("dims", "--n", "2", "--m-max", "-1").returncode == 2
    assert run_cli("cyclic", "--n", "2", "--m-max", "-1").returncode == 2
    assert run_cli("dims", *small, "--char", "0").returncode == 0


@pytest.mark.parametrize("where", ("missing-directory", "directory"))
def test_unwritable_out_is_a_usage_error_before_the_run(tmp_path, monkeypatch,
                                                       capsys, where):
    """An --out path that cannot be written exits 2 with a usage message
    before any record is computed, not 1 with a traceback after the run."""
    out = {"missing-directory": tmp_path / "missing" / "x.json",
           "directory": tmp_path}[where]
    monkeypatch.setattr(cli, "_dims_records", pytest.fail)
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--n", "3", "--m-max", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    result = run_cli("dims", "--n", "3", "--m-max", "2", "--out", str(out))
    assert result.returncode == 2 and "Traceback" not in result.stderr


def test_vacuous_ring_and_oracle_inputs_rejected():
    """A negative degree bound would check nothing and report pass."""
    assert run_cli("ring", "--n", "2", "--deg-max", "-1").returncode == 2
    assert run_cli("verify", "--n", "2", "--deg-max", "-1").returncode == 2
    assert run_cli("verify", "--suite", "oracle",
                   "--oracle-cap", "-5").returncode == 2


def test_large_prime_char():
    """2^61 - 1 is accepted without a trial-division hang; 2^61 + 1
    (divisible by 3) and values beyond the exact primality range are
    usage errors."""
    args = ("dims", "--n", "2", "--m-max", "1", "--no-timestamp", "--char")
    r = run_cli(*args, str(2 ** 61 - 1))
    assert r.returncode == 0
    assert "0 failed" in r.stdout
    assert run_cli(*args, str(2 ** 61 + 1)).returncode == 2
    assert run_cli(*args, str(PRIME_BOUND + 2)).returncode == 2


def test_unguarded_chain_column_fails_dims_hh(tmp_path, monkeypatch):
    """The chain column rule drops an entry that would take an exponent
    below 0.  Without that guard ``dims`` fails every dims.hh record (and
    the cyclic ones built on them) at n = 3: its blocks read the one
    column rule, ``TermTables.column``."""
    def unguarded(self, m, chain):
        table = self(m, chain)
        step = table.step

        def column(key):
            idx, e = key
            return {(t, e[:h - 1] + (e[h - 1] + step,) + e[h:]): v
                    for h, t, v in table[idx]}
        return column
    monkeypatch.setattr(TermTables, "column", unguarded)
    out = tmp_path / "report.json"
    assert cli.main(["dims", "--n", "3", "--m-max", "3", "--format", "json",
                     "--no-timestamp", "--out", str(out)]) == 1
    records = json.loads(out.read_text())["records"]
    failed = {(r["id"], r["params"]["m"]) for r in records
              if r["status"] == "fail"}
    assert failed == {(rid, m) for rid in ("dims.hh", "dims.cyclic")
                      for m in range(4)}


def test_timestamp_present_by_default():
    r = run_cli("dims", "--n", "2", "--m-max", "0", "--format", "json")
    rep = json.loads(r.stdout)
    assert "generated_at" in rep


def _record_fields(path):
    """Records of a JSON report, keyed by (id, params), reduced to the
    fields the benchmark's golden check compares."""
    with open(path) as fh:
        records = json.load(fh)["records"]
    return {(r["id"], json.dumps(r["params"], sort_keys=True)):
            {k: r.get(k) for k in ("status", "expected", "computed")}
            for r in records}


def test_reports_match_benchmark_golden(tmp_path):
    """The three benchmark workloads, run in-process, reproduce every
    record of their golden reports in status, expected and computed."""
    workloads = {
        "dims-q": ["dims", "--n", "7", "--m-max", "5"],
        "ring-q": ["ring", "--n", "5", "--deg-max", "4"],
        "verify-gf3": ["verify", "--n", "3", "--m-max", "4", "--suite", "all",
                       "--oracle-cap", "300000", "--char", "3"],
    }
    for name, argv in workloads.items():
        out = tmp_path / f"{name}.json"
        code = cli.main([*argv, "--format", "json", "--no-timestamp",
                         "--out", str(out)])
        assert code == 0, name
        got = _record_fields(out)
        want = _record_fields(GOLDEN / f"{name}.json")
        assert want, name
        for key, fields in want.items():
            assert got.get(key) == fields, (name, key)


def _matches_tier1_golden(tmp_path, name, argv):
    """Whether the JSON report of argv, run in-process, equals
    tests/golden/<name> byte for byte."""
    out = tmp_path / name
    code = cli.main([*argv, "--format", "json", "--no-timestamp",
                     "--out", str(out)])
    assert code == 0, name
    golden = Path(__file__).resolve().parent / "golden" / name
    return out.read_bytes() == golden.read_bytes()


def test_dims_over_prime_fields_match_golden(tmp_path):
    """dims over GF(3) and GF(2), whose ranks the benchmark's Q-only dims
    workload never takes, writes its JSON report byte for byte as kept in
    tests/golden."""
    for char in ("3", "2"):
        assert _matches_tier1_golden(
            tmp_path, f"dims-n5-m6-char{char}.json",
            ["dims", "--n", "5", "--m-max", "6", "--char", char]), char


def test_dims_over_q_at_n8_matches_golden(tmp_path):
    """dims over Q at n = 8, past the benchmark's n = 7, writes its JSON
    report byte for byte as kept in tests/golden."""
    assert _matches_tier1_golden(tmp_path, "dims-n8-m4-char0.json",
                                 ["dims", "--n", "8", "--m-max", "4"])


def test_dims_over_q_at_n14_matches_golden(tmp_path):
    """dims over Q at n = 14, m <= 3, where every term table is read on
    only a small share of its 2^14 monomials, writes its JSON report byte
    for byte as kept in tests/golden."""
    assert _matches_tier1_golden(tmp_path, "dims-n14-m3-char0.json",
                                 ["dims", "--n", "14", "--m-max", "3"])


def test_ring_over_prime_fields_matches_golden(tmp_path):
    """ring in characteristic 2 (every single term a class, the normal
    forms x_S y^e) and over GF(5), cup paths that no benchmark workload
    takes, writes its JSON report byte for byte as kept in tests/golden."""
    for name, argv in (
            ("ring-n4-d4-char2.json",
             ["ring", "--n", "4", "--deg-max", "4", "--char", "2"]),
            ("ring-n3-d5-char5.json",
             ["ring", "--n", "3", "--deg-max", "5", "--char", "5"])):
        assert _matches_tier1_golden(tmp_path, name, argv), name


def test_ring_and_verify_over_q_match_golden(tmp_path):
    """ring and every verify suite over Q, whose reports the benchmark
    checks only record by record, write their JSON reports byte for byte
    as kept in tests/golden."""
    for name, argv in (
            ("ring-n4-d4-char0.json", ["ring", "--n", "4", "--deg-max", "4"]),
            ("verify-n3-m3-char0.json",
             ["verify", "--n", "3", "--m-max", "3", "--suite", "all"])):
        assert _matches_tier1_golden(tmp_path, name, argv), name


def test_bar_oracle_over_q_and_gf2_matches_golden(tmp_path):
    """The bar oracle over Q and over GF(2), fields whose bar blocks the
    benchmark's GF(3) verify workload never ranks, writes its JSON report
    byte for byte as kept in tests/golden."""
    for char in ("0", "2"):
        assert _matches_tier1_golden(
            tmp_path, f"verify-oracle-n2-m6-char{char}.json",
            ["verify", "--n", "2", "--m-max", "6", "--suite", "oracle",
             "--char", char]), char


def _plus_one_at_m1(f):
    return lambda n, m, *rest: f(n, m, *rest) + (m == 1)


def _hilbert_plus_one_at_degree1(f):
    def planted(n, char, N):
        coeffs = f(n, char, N)
        coeffs[1] += 1
        return coeffs
    return planted


def _negated_at_m1_j0(f):
    return lambda n, m, j: f(n, m, j) != (m == 1 and j == 0)


@pytest.mark.parametrize("name, plant, failing", [
    ("hh_dim_formula", _plus_one_at_m1, {
        "dims": {"dims.hh"},
        "verify": {"identities.dimension-split.chain", "oracle.hh"},
        "cyclic": {"cyclic.value", "cyclic.recurrence"}}),
    ("hhc_dim_formula", _plus_one_at_m1, {
        "dims": {"dims.hhc"},
        "verify": {"identities.dimension-split.cochain", "oracle.hhc",
                   "ring.basis-count"}}),
    ("hc_dim_formula", _plus_one_at_m1, {
        "dims": {"dims.cyclic"},
        "cyclic": {"cyclic.value", "cyclic.recurrence"}}),
    ("chain_rank_double_sum", _plus_one_at_m1, {
        "verify": {"ranks.chain", "identities.rank-forms.chain"}}),
    ("cochain_rank_double_sum", _plus_one_at_m1, {
        "verify": {"ranks.cochain", "identities.rank-forms.cochain"}}),
    ("chain_rank_closed_form", _plus_one_at_m1, {
        "verify": {"identities.rank-forms.chain",
                   "identities.dimension-split.chain"}}),
    ("cochain_rank_closed_form", _plus_one_at_m1, {
        "verify": {"identities.rank-forms.cochain",
                   "identities.dimension-split.cochain"}}),
    ("hilbert_coeffs", _hilbert_plus_one_at_degree1, {
        "dims": {"dims.hilbert"}}),
    ("binomial_sum_identity", _negated_at_m1_j0, {
        "verify": {"identities.binomial-sum"}}),
])
def test_planted_formula_defect_fails_its_records(tmp_path, monkeypatch,
                                                  name, plant, failing):
    """An off-by-one planted at m = 1 in one closed formula (the degree-1
    Hilbert coefficient; the binomial identity negated at m = 1, j = 0)
    fails exactly the records that compare it, at n = 2, --m-max 3, and
    each command with such a record exits 1."""
    monkeypatch.setattr(cli, name, plant(getattr(cli, name)))
    out = tmp_path / "report.json"
    for argv in (["dims"], ["verify", "--suite", "all"], ["cyclic"]):
        code = cli.main([*argv, "--n", "2", "--m-max", "3", "--format",
                         "json", "--no-timestamp", "--out", str(out)])
        records = json.loads(out.read_text())["records"]
        failed = {rec["id"] for rec in records if rec["status"] == "fail"}
        want = failing.get(argv[0], set())
        assert failed == want, argv
        assert code == (1 if want else 0), argv
