"""The nested-dict form of an analysis report, for tests: the reference that
`vpal.cli.report_json` must serialize byte for byte, as
`json.dumps(to_json_dict(report), indent=2, ensure_ascii=False)`.  It
assembles every solution's constraints, as the library's own JSON path once
did, and takes each solution's case and pair for a crucial prime from that
prime's constraint table in the report."""

from vpal.indicator import AnalysisReport


def to_json_dict(report: AnalysisReport) -> dict:
    """Stable JSON shape; all integers as decimal strings.

    Solutions that give a crucial prime the same weight share one pair
    dict: treat the result as read-only.
    """
    # one pair dict per crucial prime and weight: the vacuous and always-false
    # pairs are single objects that several primes share, but each dict names its p
    pair_dicts = [
        {
            u: {
                "p": str(r.p),
                "required": [str(a) for a in sorted(pair.required)],
                "excluded": [str(b) for b in sorted(pair.excluded)],
            }
            for u, (_, pair) in table.items()
        }
        for r, table in zip(report.records, report.tables)
    ]
    return {
        "n": str(report.n),
        "reverse": str(report.reverse),
        "digits": str(report.digits),
        "crucial_primes": [
            {
                "p": str(r.p),
                "exp_n": str(r.exp_n),
                "exp_reverse": str(r.exp_reverse),
                "delta": str(r.delta),
                "mu": str(r.mu),
            }
            for r in report.records
        ],
        "solutions": [
            {
                "values": [str(v) for v in c.solution],
                "cases": [table[u][0].value for table, u in zip(report.tables, c.solution)],
                "pairs": [dicts[u] for dicts, u in zip(pair_dicts, c.solution)],
                "required": [str(a) for a in sorted(c.required)],
                "excluded": [str(b) for b in sorted(c.excluded)],
                "degenerate": c.degenerate,
            }
            for c in report.constraints
        ],
        "indicator": [
            {"c": str(modulus), "lambda": str(coeff)} for modulus, coeff in report.combination.terms
        ],
        "order": str(report.order),
        "omega0": str(report.omega0),
        "omega_f": str(report.omega_f),
        "omega_b": str(report.omega_b),
    }
