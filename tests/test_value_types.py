"""The outward contract of the package's value types: construction by
position and keyword, validation messages, repr, equality and hash, read-only
fields and pickling; and the tuple behaviour they share as named tuples."""

import math
import pickle

import pytest

from vpal import (
    AnalysisReport,
    ConstraintPair,
    CrucialPrimeRecord,
    Factorization,
    IndicatorCombination,
    InvalidInput,
    PeriodicSamples,
    SolutionConstraints,
    VerificationRow,
    analyze,
    factorize,
    gcd_period,
    samples_to_spectrum,
    verify,
)

REPORT_FIELDS = (
    "n", "reverse", "digits", "n_factorization", "reverse_factorization", "records",
    "combination", "order", "omega0", "omega_f", "omega_b", "budget",
)

#: per type: a function building a fresh instance, and its field names in order
TYPES = {
    Factorization: (lambda: Factorization(((2, 3), (3, 2), (5, 1))), ("factors",)),
    CrucialPrimeRecord: (lambda: CrucialPrimeRecord(3, 2, 0), ("p", "exp_n", "exp_reverse")),
    ConstraintPair: (lambda: ConstraintPair(frozenset({6}), frozenset({3})), ("required", "excluded")),
    SolutionConstraints: (lambda: analyze(126).constraints[0], ("solution", "required", "excluded", "degenerate")),
    IndicatorCombination: (lambda: IndicatorCombination(((154, 1), (3542, -1))), ("terms",)),
    AnalysisReport: (lambda: analyze(126, 10**6), REPORT_FIELDS),
    VerificationRow: (lambda: verify(48, 3)[2], ("k", "predicted", "observed")),
    PeriodicSamples: (lambda: PeriodicSamples((1, 0.5, 2 + 1j, 0)), ("values",)),
}


def _read_cached(x):
    """Fill the cached properties, as a reader of a report or window would."""
    if isinstance(x, AnalysisReport):
        x.solutions, x.tables, x.constraints
    if isinstance(x, PeriodicSamples):
        samples_to_spectrum(x)
    return x


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestContract:
    def test_type_and_fields(self, cls):
        make, fields = TYPES[cls]
        x = make()
        assert type(x) is cls
        assert all(hasattr(x, f) for f in fields)

    def test_positional_and_keyword_construction(self, cls):
        make, fields = TYPES[cls]
        x = make()
        values = [getattr(x, f) for f in fields]
        assert type(x)(*values) == x
        assert type(x)(**dict(zip(fields, values))) == x

    def test_repr(self, cls):
        make, fields = TYPES[cls]
        x = make()
        assert repr(x) == f"{cls.__name__}({', '.join(f'{f}={getattr(x, f)!r}' for f in fields)})"

    def test_equal_and_hash_between_fresh_instances(self, cls):
        make, _ = TYPES[cls]
        a, b = make(), _read_cached(make())
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_fields_are_read_only(self, cls):
        make, fields = TYPES[cls]
        x = make()
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, getattr(x, f))

    def test_pickle_round_trip(self, cls):
        make, fields = TYPES[cls]
        x = _read_cached(make())
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
        assert [getattr(y, f) for f in fields] == [getattr(x, f) for f in fields]


class TestAnalysisReport:
    def test_budget_is_a_field_in_equality_and_hash(self):
        a, b = analyze(126, 10**6), analyze(126, 10**7)
        assert (a.budget, b.budget) == (10**6, 10**7)
        assert len(a) == len(REPORT_FIELDS) and tuple(a)[-1] == 10**6
        assert a != b and a[:-1] == b[:-1]
        assert hash(a) != hash(b)

    def test_cached_properties_show_in_vars_and_survive_pickling(self):
        report = analyze(126, 10**6)
        assert vars(report) == {}
        report.solutions
        assert set(vars(report)) == {"solutions"}
        report.constraints
        assert set(vars(report)) == {"solutions", "tables", "constraints"}
        again = pickle.loads(pickle.dumps(report))
        assert again.budget == 10**6
        assert vars(again) == vars(report)

    def test_budget_defaults_to_the_package_budget(self):
        report = analyze(126)
        fields = [getattr(report, f) for f in REPORT_FIELDS[:-1]]
        assert AnalysisReport(*fields).budget == report.budget

    def test_replace_keeps_the_budget(self):
        report = analyze(126, 10**6)
        report.constraints
        copy = report._replace(n=5)
        assert copy.budget == 10**6
        assert vars(copy) == {}
        assert copy.constraints == report.constraints


class TestPeriodicSamples:
    def test_threshold_set_when_built_and_transform_cached(self):
        s = PeriodicSamples((1, 0, 0, 1, 0, 0))
        assert set(vars(s)) == {"_threshold"}
        samples_to_spectrum(s)
        assert set(vars(s)) == {"_threshold", "_inverse"}
        again = pickle.loads(pickle.dumps(s))
        assert vars(again) == vars(s)

    def test_replace_builds_a_window_with_its_threshold(self):
        s = PeriodicSamples((1, 0))._replace(values=(1, 0, 1, 0))
        assert set(vars(s)) == {"_threshold"}
        assert gcd_period(s) == 2

    def test_equality_hash_and_repr_read_values_alone(self):
        a, b = PeriodicSamples((1, 2)), PeriodicSamples((1, 2))
        samples_to_spectrum(a)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "PeriodicSamples(values=(1, 2))"


class TestValidation:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Factorization(((3, 1), (2, 1))), ValueError, "primes must be strictly increasing"),
            (lambda: Factorization(((2, 0),)), ValueError, "exponents must be >= 1"),
            (lambda: CrucialPrimeRecord(7, 1, 1), ValueError, "7 has equal exponents on both sides"),
            (lambda: IndicatorCombination(((6, 1), (2, 1))), ValueError, "moduli must be strictly increasing"),
            (lambda: IndicatorCombination(((2, 0),)), ValueError, "coefficients must be nonzero"),
            (lambda: PeriodicSamples(()), ValueError, "need at least one sample"),
            (
                lambda: PeriodicSamples((0.0, math.nan)),
                InvalidInput,
                "sample nan is not a finite complex number",
            ),
            (
                lambda: PeriodicSamples((10**400, 0)),
                InvalidInput,
                "samples too large: the window length 2 times the largest magnitude exceeds the largest float",
            ),
            (
                lambda: PeriodicSamples((1e308, 1e308)),
                InvalidInput,
                "samples too large: the window length 2 times the largest magnitude exceeds the largest float",
            ),
        ],
    )
    def test_message(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message

    def test_keyword_construction_is_validated(self):
        with pytest.raises(ValueError, match="equal exponents"):
            CrucialPrimeRecord(p=7, exp_n=1, exp_reverse=1)
        with pytest.raises(ValueError, match="strictly increasing"):
            Factorization(factors=((3, 1), (2, 1)))

    def test_replace_is_validated(self):
        with pytest.raises(ValueError, match="7 has equal exponents on both sides"):
            CrucialPrimeRecord(7, 1, 0)._replace(exp_reverse=1)
        with pytest.raises(ValueError, match="moduli must be strictly increasing"):
            IndicatorCombination(((2, 1),))._replace(terms=((6, 1), (2, 1)))
        with pytest.raises(InvalidInput, match="sample nan is not a finite complex number"):
            PeriodicSamples((1, 0))._replace(values=(1, math.nan))


class TestTupleBehaviour:
    """What changed when the value types became tuples."""

    def test_instances_equal_the_plain_tuple_of_their_fields(self):
        assert CrucialPrimeRecord(3, 2, 0) == (3, 2, 0)
        assert ConstraintPair(frozenset(), frozenset({1})) == (frozenset(), frozenset({1}))
        assert analyze(126).combination == (analyze(126).combination.terms,)

    def test_instances_iterate_their_fields(self):
        p, exp_n, exp_reverse = CrucialPrimeRecord(3, 2, 0)
        assert (p, exp_n, exp_reverse) == (3, 2, 0)
        k, predicted, observed = verify(48, 3)[2]
        assert k == 3

    def test_a_factorization_is_the_tuple_of_its_pairs(self):
        f = factorize(360)
        assert f == ((2, 3), (3, 2), (5, 1)) == f.factors
        assert list(f) == [(2, 3), (3, 2), (5, 1)]
        assert type(f.factors) is tuple

    def test_an_empty_factorization_is_falsy(self):
        assert not factorize(1)
        assert factorize(2)
