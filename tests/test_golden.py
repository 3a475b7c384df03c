"""Golden digest of the whole analysis of every eligible n <= 2100 and 21726.

One sha256 over the JSON document `table --format json` prints for all the
reports pins case labels, per-prime constraint pairs, degenerate solutions,
the indicator and the periods at once, independently of how the classifier
computes them or the writer renders them.  The digest was recorded with the
library at commit 90c3644; a change to it means some report changed.
"""

import hashlib

from vpal import analyze, reverse_digits
from vpal.cli import table_json

GOLDEN_SHA256 = "eb04a6939b37751ec2b8e0502f87105bf7e0da0b86b12c72a8ad2ddb71176efe"


def test_reports_match_golden_digest():
    ns = [n for n in range(1, 2101) if n % 10 and reverse_digits(n) != n] + [21726]
    assert len(ns) == 1772
    doc = table_json([analyze(n) for n in ns])
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_SHA256
