"""Command line interface.

Subcommands:
  dims    dimension tables: closed formulas against matrix ranks
  verify  verification suites (resolution, ranks, identities, oracle, ring)
  ring    cup product ring: basis counts, relations, presentation audit
  cyclic  cyclic homology dimensions in characteristic 0

Reports are deterministic: records are sorted, and with --no-timestamp
two runs with the same arguments produce byte-identical output.

Exit codes: 0 all checks passed (skips and findings allowed), 1 at least
one mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .exactla import field_of_char
from .formulas import (
    binomial_sum_identity,
    chain_rank_closed_form,
    chain_rank_double_sum,
    cochain_rank_closed_form,
    cochain_rank_double_sum,
    hc_dim_formula,
    hh_dim_formula,
    hhc_dim_formula,
    hilbert_coeffs,
)
from .complexes import (
    DEFAULT_ORACLE_CAP,
    bar_oracle_dims,
    commutator_quotient_dim,
)
from .resolution import (
    TermTables,
    chain_dim,
    observed_coefficients,
    resolution_ranks,
    verify_d_squared_zero,
    verify_delta_squared_zero,
    verify_generator_space_dim,
    verify_left_right,
    verify_relation_window_membership,
)
from .ring import (
    cohomology_basis,
    presentation_audit,
    verify_associativity,
    verify_cohomology_basis,
    verify_graded_commutativity,
    verify_ring_relations,
    verify_unital,
)

SUITES = ("resolution", "ranks", "identities", "oracle", "ring", "all")


def _rec(rid, params, expected, computed, status=None, note=None):
    """One report record.  The status is pass or fail by comparing
    expected with computed unless given (skip, finding); the note is
    emitted only when given."""
    rec = {
        "id": rid,
        "params": params,
        "expected": expected,
        "computed": computed,
        "status": status or ("pass" if expected == computed else "fail"),
    }
    if note:
        rec["note"] = note
    return rec


def _cyclic_dim(m, hh_dim):
    """Cyclic homology dimension in degree m from the Hochschild
    dimensions hh_dim(0..m): the alternating sum, plus 1 in odd degree."""
    acc = 0
    for i in range(m + 1):
        acc = -acc + hh_dim(i)
    return acc + (1 if m % 2 else 0)


def _dims_records(ns, m_max, field):
    char = field.char
    out = []
    for n in ns:
        ranks = resolution_ranks(TermTables(n, field), m_max)
        for m in range(m_max + 1):
            p = {"n": n, "m": m, "char": char}
            out.append(_rec("dims.hh", p, hh_dim_formula(n, m, char),
                            ranks.hh(m)))
            out.append(_rec("dims.hhc", p, hhc_dim_formula(n, m, char),
                            ranks.hhc(m)))
        coeffs = hilbert_coeffs(n, char, m_max + 1)
        for m in range(m_max + 1):
            p = {"n": n, "m": m, "char": char}
            out.append(_rec("dims.hilbert", p, coeffs[m], ranks.hhc(m)))
        if char == 0:
            for m in range(m_max + 1):
                p = {"n": n, "m": m, "char": 0}
                out.append(_rec("dims.cyclic", p, hc_dim_formula(n, m, 0),
                                _cyclic_dim(m, ranks.hh)))
    return out


def _resolution_records(ns, m_max):
    out = []
    for n in ns:
        for m in range(m_max + 1):
            p = {"n": n, "m": m}
            out.append(_rec("resolution.coefficients", p, [1],
                            sorted(observed_coefficients(n, m))))
            if m >= 1:
                out.append(_rec("resolution.left-right", p, True,
                                verify_left_right(n, m)))
            if m >= 2:
                out.append(_rec("resolution.generator-count", p, True,
                                verify_generator_space_dim(n, m)))
                out.append(_rec("resolution.window-membership", p, True,
                                verify_relation_window_membership(n, m)))
            if 1 <= m <= m_max - 1:
                out.append(_rec("resolution.composite-zero", p, True,
                                verify_delta_squared_zero(n, m)))
    return out


def _ranks_records(ns, m_max, field):
    char = field.char
    out = []
    for n in ns:
        tables = TermTables(n, field)
        ranks = resolution_ranks(tables, m_max)
        for m in range(1, m_max + 1):
            p = {"n": n, "m": m, "char": char}
            out.append(_rec("ranks.chain", p, chain_rank_double_sum(n, m, char),
                            ranks.chain[m]))
        for m in range(m_max + 1):
            p = {"n": n, "m": m, "char": char}
            out.append(_rec("ranks.cochain", p, cochain_rank_double_sum(n, m, char),
                            ranks.cochain[m]))
        p = {"n": n, "m_max": m_max, "char": char}
        if m_max == 0:
            out.append(_rec("ranks.composite-zero", p, None, None, "skip",
                            "no two differentials compose within degree 0"))
        else:
            out.append(_rec("ranks.composite-zero", p, True,
                            verify_d_squared_zero(tables, m_max)))
    return out


def _identities_records(ns, m_max):
    out = []
    for n in ns:
        for m in range(1, m_max + 1):
            p = {"n": n, "m": m}
            out.append(_rec("identities.rank-forms.chain", p,
                            chain_rank_double_sum(n, m),
                            chain_rank_closed_form(n, m)))
            for j in range(n):
                out.append(_rec("identities.binomial-sum",
                                {"n": n, "m": m, "j": j}, True,
                                binomial_sum_identity(n, m, j)))
        for m in range(m_max + 1):
            p = {"n": n, "m": m}
            out.append(_rec("identities.rank-forms.cochain", p,
                            cochain_rank_double_sum(n, m),
                            cochain_rank_closed_form(n, m)))
        for m in range(1, m_max + 1):
            p = {"n": n, "m": m}
            out.append(_rec("identities.dimension-split.chain", p,
                            hh_dim_formula(n, m, 0),
                            chain_dim(n, m) - chain_rank_closed_form(n, m)
                            - chain_rank_closed_form(n, m + 1)))
            out.append(_rec("identities.dimension-split.cochain", p,
                            hhc_dim_formula(n, m, 0),
                            chain_dim(n, m) - cochain_rank_closed_form(n, m - 1)
                            - cochain_rank_closed_form(n, m)))
    return out


def _oracle_records(ns, m_max, field, cap):
    char = field.char
    out = []
    for n in ns:
        dims = bar_oracle_dims(n, m_max, field, cap)
        if dims:
            ranks = resolution_ranks(TermTables(n, field), len(dims) - 1)
        for m, h, c in dims:
            p = {"n": n, "m": m, "char": char}
            out.append(_rec("oracle.hh", p, hh_dim_formula(n, m, char), h))
            out.append(_rec("oracle.hhc", p, hhc_dim_formula(n, m, char), c))
            out.append(_rec("oracle.hh-vs-matrix", p, ranks.hh(m), h))
            out.append(_rec("oracle.hhc-vs-matrix", p, ranks.hhc(m), c))
        for m in range(len(dims), m_max + 1):
            p = {"n": n, "m": m, "char": char}
            note = f"bar complex too large at cap {cap}"
            out.append(_rec("oracle.hh", p, None, None, "skip", note))
            out.append(_rec("oracle.hhc", p, None, None, "skip", note))
        p = {"n": n, "char": char}
        out.append(_rec("oracle.commutator-quotient", p,
                        hh_dim_formula(n, 0, char),
                        commutator_quotient_dim(n, field)))
    return out


def _basis_records(n, m, field, dim):
    """The two records of the degree-m basis, built once; it is dropped on
    return, before the next degree is built.  ``dim`` is the computed
    cohomology dimension."""
    p = {"n": n, "m": m, "char": field.char}
    basis = cohomology_basis(n, m, field)
    return [_rec("ring.basis-count", p, hhc_dim_formula(n, m, field.char),
                 len(basis)),
            _rec("ring.basis-independent", p, True,
                 verify_cohomology_basis(n, m, field, basis, dim))]


def _ring_records(ns, deg_max, field):
    char = field.char
    out = []
    for n in ns:
        ranks = resolution_ranks(TermTables(n, field), deg_max)
        hhc = [ranks.hhc(m) for m in range(deg_max + 1)]
        for m in range(deg_max + 1):
            out += _basis_records(n, m, field, hhc[m])
        for rec in verify_ring_relations(n, field):
            p = {"n": n, "family": rec["family"], "char": char}
            out.append(_rec("ring.relation-family", p,
                            {"instances": rec["instances"], "failures": []},
                            {"instances": rec["instances"],
                             "failures": [list(f) for f in rec["failures"]]}))
        p = {"n": n, "deg_max": deg_max, "char": char}
        out.append(_rec("ring.unital", p, True,
                        verify_unital(n, field, deg_max)))
        out.append(_rec("ring.graded-commutativity", p, True,
                        verify_graded_commutativity(n, field, deg_max)))
        out.append(_rec("ring.associativity", p, True,
                        verify_associativity(n, field, deg_max)))
        audits = presentation_audit(n, field, hhc)
        top = (tuple(range(1, n + 1)), (0,) * n)
        for audit in audits:
            p = {"n": n, "degree": audit["degree"], "char": char}
            expected = audit["expected"]
            count = audit["count"]
            indep = audit["evaluations_independent"]
            if indep and audit["unreached"] == [top] \
                    and expected - count == 1:
                out.append(_rec("ring.presentation", p, expected, count,
                                "finding",
                                "normal forms span one less than the "
                                "degree-0 dimension when n is odd: the "
                                "top monomial class is central but not "
                                "a product of the listed generators"))
            else:
                out.append(_rec("ring.presentation", p,
                                {"dim": expected, "independent": True},
                                {"dim": count, "independent": indep}))
        p = {"n": n, "deg_max": deg_max, "char": char}
        dims = [a["expected"] for a in audits]
        strict = [a["strict_count"] for a in audits]
        if strict == dims:
            out.append(_rec("ring.presentation-strict-reading", p, dims, strict))
        else:
            out.append(_rec(
                "ring.presentation-strict-reading", p, dims, strict, "finding",
                "per-degree counts when the normal-form chains must start "
                "above index 1; they undercount every degree"))
    return out


def _cyclic_records(ns, m_max):
    out = []
    for n in ns:
        for m in range(m_max + 1):
            p = {"n": n, "m": m, "char": 0}
            out.append(_rec(
                "cyclic.value", p, hc_dim_formula(n, m, 0),
                _cyclic_dim(m, lambda i: hh_dim_formula(n, i, 0))))
            if m >= 1:
                out.append(_rec("cyclic.recurrence", p,
                                hh_dim_formula(n, m, 0) + 1,
                                hc_dim_formula(n, m, 0)
                                + hc_dim_formula(n, m - 1, 0)))
    return out


def _build_report(args, records):
    records = sorted(
        records,
        key=lambda r: (r["id"], json.dumps(r["params"], sort_keys=True)),
    )
    summary = {"pass": 0, "fail": 0, "skip": 0, "findings": 0}
    for r in records:
        key = "findings" if r["status"] == "finding" else r["status"]
        summary[key] += 1
    report = {
        "version": __version__,
        "config": {
            "command": args.command,
            "n": args.ns,
            "char": getattr(args, "char", 0),
        },
        "records": records,
        "summary": summary,
    }
    for opt in ("m_max", "deg_max", "suite", "oracle_cap"):
        if getattr(args, opt, None) is not None:
            report["config"][opt] = getattr(args, opt)
    if not args.no_timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    return report


def _emit(report, fmt, out_path):
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "params", "status", "expected", "computed", "note"])
        for r in report["records"]:
            writer.writerow([
                r["id"],
                json.dumps(r["params"], sort_keys=True),
                r["status"],
                json.dumps(r["expected"], sort_keys=True),
                json.dumps(r["computed"], sort_keys=True),
                r.get("note", ""),
            ])
        text = buf.getvalue()
    else:
        lines = []
        for r in report["records"]:
            params = json.dumps(r["params"], sort_keys=True)
            line = f"{r['status']:<7} {r['id']} {params}"
            if r["status"] == "fail":
                line += (f" expected={json.dumps(r['expected'], sort_keys=True)}"
                         f" computed={json.dumps(r['computed'], sort_keys=True)}")
            if r.get("note"):
                line += f" note: {r['note']}"
            lines.append(line)
        s = report["summary"]
        lines.append(
            f"total {len(report['records'])}: {s['pass']} passed, "
            f"{s['fail']} failed, {s['skip']} skipped, "
            f"{s['findings']} findings"
        )
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="hhext",
        description="Exact Hochschild (co)homology of ungraded exterior algebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_m=True, with_deg=False, with_char=True):
        sp.add_argument("--n", type=int, help="single generator count (>= 2)")
        sp.add_argument("--n-max", type=int, dest="n_max",
                        help="run every n from 2 to this bound")
        if with_m:
            sp.add_argument("--m-max", type=int, default=4, dest="m_max",
                            help="largest (co)homological degree")
        if with_deg:
            sp.add_argument("--deg-max", type=int, default=4, dest="deg_max",
                            help="largest total degree of the ring checks; "
                            "the relations are checked in full at any value")
        if with_char:
            sp.add_argument("--char", type=int, default=0,
                            help="field characteristic: 0 or a prime")
        sp.add_argument("--format", choices=("json", "csv", "text"),
                        default="text")
        sp.add_argument("--out", help="write the report to this path")
        sp.add_argument("--no-timestamp", action="store_true",
                        dest="no_timestamp",
                        help="omit the timestamp for byte-stable output")
        sp.add_argument("--findings-as-failures", action="store_true",
                        dest="findings_as_failures",
                        help="exit nonzero when findings are present")

    sp = sub.add_parser("dims", help="dimension tables, formulas vs matrices")
    common(sp)

    sp = sub.add_parser("verify", help="run verification suites")
    common(sp, with_deg=True)
    sp.add_argument("--suite", choices=SUITES, default="all")
    sp.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
                    dest="oracle_cap",
                    help="largest bar complex dimension the oracle may build")

    sp = sub.add_parser("ring", help="cup product ring checks")
    common(sp, with_m=False, with_deg=True)

    sp = sub.add_parser("cyclic", help="cyclic homology dimensions (char 0)")
    common(sp, with_char=False)
    return parser


def main(argv=None):
    parser = _make_parser()
    args = parser.parse_args(argv)

    if args.n is not None and args.n_max is not None:
        parser.error("--n and --n-max are mutually exclusive")
    if args.n is not None:
        if args.n < 2:
            parser.error("--n must be >= 2")
        args.ns = [args.n]
    elif args.n_max is not None:
        if args.n_max < 2:
            parser.error("--n-max must be >= 2")
        args.ns = list(range(2, args.n_max + 1))
    else:
        args.ns = [2, 3]
    try:
        field = field_of_char(getattr(args, "char", 0))
    except ValueError as exc:
        parser.error(f"--char: {exc}")
    if getattr(args, "m_max", 0) < 0:
        parser.error("--m-max must be >= 0")
    if getattr(args, "deg_max", 0) < 0:
        parser.error("--deg-max must be >= 0")
    if getattr(args, "oracle_cap", 0) < 0:
        parser.error("--oracle-cap must be >= 0")
    if args.out:
        try:  # before the run, not after it; append mode keeps a file as is
            open(args.out, "a").close()
        except OSError as exc:
            parser.error(f"--out: {exc}")

    if args.command == "dims":
        records = _dims_records(args.ns, args.m_max, field)
    elif args.command == "verify":
        records = []
        suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
        if "resolution" in suites:
            records += _resolution_records(args.ns, args.m_max)
        if "ranks" in suites:
            records += _ranks_records(args.ns, args.m_max, field)
        if "identities" in suites:
            records += _identities_records(args.ns, args.m_max)
        if "oracle" in suites:
            records += _oracle_records(args.ns, args.m_max, field,
                                       args.oracle_cap)
        if "ring" in suites:
            records += _ring_records(args.ns, args.deg_max, field)
    elif args.command == "ring":
        records = _ring_records(args.ns, args.deg_max, field)
    else:
        records = _cyclic_records(args.ns, args.m_max)

    report = _build_report(args, records)
    _emit(report, args.format, args.out)
    if report["summary"]["fail"]:
        return 1
    if args.findings_as_failures and report["summary"]["findings"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
