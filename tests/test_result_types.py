"""The per-call result types, the parameter types and the plain bundles:
field layout, repr text, immutability, equality, hashing, pickling and
copying.

EnvelopeResult, EvalResult, AuditRecord and PochhammerValue are named tuples;
the repr strings below are the ones their earlier frozen-dataclass form
printed, so the text of every report that shows them is unchanged.  QBase,
ConfluentParams, PhiParams, LaurentSpec and SweepPlan are immutable values
with slots (qcore.FrozenValue) that keep the repr, equality and hash of
their frozen-dataclass form; QBase computes log q and log(1/q) once.
PhiReduction, MeromorphicBoundParams and AuditTarget are named tuples.
The argument rules of the public constructors and functions raise
InvalidArgumentError with fixed texts.  The package exports a fixed set of
names, each module's ``__all__`` naming the ones it defines.
"""

import copy
import math
import pickle
import random

import pytest

import qineq
from qineq import (
    AuditRecord,
    ConfluentParams,
    EnvelopeResult,
    EvalResult,
    InvalidArgumentError,
    LaurentSpec,
    MeromorphicBoundParams,
    PhiParams,
    PhiReduction,
    PochhammerValue,
    QBase,
    SweepPlan,
    draw_confluent_params,
    draw_phi_params,
    envelope_aq_exponential,
    identity_ql_sum,
    meromorphic_bound_params,
    phi_to_f,
    pochhammer_infinite,
    theta_weighted_constant,
)
from qineq import bounds, errors, qcore, series, verify
from qineq.qcore import FrozenValue

# (instance builder, field names in order, repr printed by the dataclass form).
# The PochhammerValue(0.75, 3) and first AuditRecord reprs also pin the
# defaults tail_log_bound=0.0 and error=''.
CASES = (
    (
        lambda: EnvelopeResult(1.5, 4.4816890703380645, 2.0, -0.25, 0.8068528194400547),
        ("log_bound", "bound", "constant_c", "prefactor_log", "exponent_term"),
        "EnvelopeResult(log_bound=1.5, bound=4.4816890703380645, constant_c=2.0, "
        "prefactor_log=-0.25, exponent_term=0.8068528194400547)",
    ),
    (
        lambda: EnvelopeResult(1e300, math.inf, math.inf, 0.0, 3.0),
        ("log_bound", "bound", "constant_c", "prefactor_log", "exponent_term"),
        "EnvelopeResult(log_bound=1e+300, bound=inf, constant_c=inf, prefactor_log=0.0, "
        "exponent_term=3.0)",
    ),
    (
        lambda: EvalResult(1 + 2j, 9, 1e-15),
        ("value", "terms_used", "tail_bound"),
        "EvalResult(value=(1+2j), terms_used=9, tail_bound=1e-15)",
    ),
    (
        lambda: AuditRecord("theta", 0.5, None, "alpha=0.5", complex(-0.0, 2.5), 1.25, 3.0,
                            0.125, True, 17, 2e-16),
        ("function_tag", "q", "l", "param_digest", "z", "abs_value", "envelope_log", "ratio",
         "passed", "terms_used", "tail_bound", "error"),
        "AuditRecord(function_tag='theta', q=0.5, l=None, param_digest='alpha=0.5', "
        "z=(-0+2.5j), abs_value=1.25, envelope_log=3.0, ratio=0.125, passed=True, "
        "terms_used=17, tail_bound=2e-16, error='')",
    ),
    (
        lambda: AuditRecord("confluent_f", 0.9, 1.5, "a=(1+1j);b=0.2", 3j, math.nan, math.nan,
                            math.nan, False, 0, math.nan, "boom"),
        ("function_tag", "q", "l", "param_digest", "z", "abs_value", "envelope_log", "ratio",
         "passed", "terms_used", "tail_bound", "error"),
        "AuditRecord(function_tag='confluent_f', q=0.9, l=1.5, param_digest='a=(1+1j);b=0.2', "
        "z=3j, abs_value=nan, envelope_log=nan, ratio=nan, passed=False, terms_used=0, "
        "tail_bound=nan, error='boom')",
    ),
    (
        lambda: PochhammerValue(0.75, 3),
        ("value", "factors_used", "tail_log_bound"),
        "PochhammerValue(value=0.75, factors_used=3, tail_log_bound=0.0)",
    ),
    (
        lambda: PochhammerValue(0.5 - 0.25j, 31, 1.1e-17),
        ("value", "factors_used", "tail_log_bound"),
        "PochhammerValue(value=(0.5-0.25j), factors_used=31, tail_log_bound=1.1e-17)",
    ),
)


def _same_bits(a, b):
    # repr tells nan, -0.0 and every float apart, and is what reports print.
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("build,names,text", CASES)
class TestResultTypes:
    def test_field_names_and_order(self, build, names, text):
        assert type(build())._fields == names

    def test_repr_matches_the_dataclass_text(self, build, names, text):
        assert repr(build()) == text

    def test_fields_cannot_be_assigned(self, build, names, text):
        result = build()
        for name in names:
            with pytest.raises(AttributeError):
                setattr(result, name, 0)
        with pytest.raises(AttributeError):
            result.extra = 0

    def test_equal_instances_are_equal_and_hash_alike(self, build, names, text):
        # The nan records compare equal through the one math.nan object, as
        # the dataclass form's field tuples did.
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)

    def test_pickle_round_trips(self, build, names, text):
        result = build()
        back = pickle.loads(pickle.dumps(result))
        assert type(back) is type(result)
        assert all(_same_bits(x, y) for x, y in zip(back, result))
        assert repr(back) == text


class TestQBase:
    def test_logs_computed_once_have_the_bits_of_math_log(self):
        rng = random.Random(20_061)
        for _ in range(50):
            q = rng.uniform(1e-6, 0.999999)
            base = QBase(q)
            assert float.hex(base.log_q) == float.hex(math.log(q))
            assert float.hex(base.log_inv_q) == float.hex(-math.log(q))

    def test_repr_shows_q_alone(self):
        assert repr(QBase(0.5)) == "QBase(q=0.5)"

    def test_only_q_is_a_constructor_or_compared_field(self):
        assert QBase._fields == ("q",)
        assert QBase(q=0.5) == QBase(0.5)
        with pytest.raises(TypeError):
            QBase(0.5, math.log(0.5))
        with pytest.raises(TypeError):
            QBase(0.5, log_q=math.log(0.5))

    def test_equality_and_hash_depend_on_q_alone(self):
        a, b = QBase(0.5), QBase(0.5)
        # Changing the stored logs behind the frozen guard leaves both alone.
        object.__setattr__(b, "log_q", 0.0)
        object.__setattr__(b, "log_inv_q", 0.0)
        assert a == b and hash(a) == hash(b)
        assert QBase(0.5) != QBase(0.25)

    def test_fields_cannot_be_assigned(self):
        base = QBase(0.5)
        for name in ("q", "log_q", "log_inv_q", "extra"):
            with pytest.raises(AttributeError):
                setattr(base, name, 0.25)
            with pytest.raises(AttributeError):
                delattr(base, name)
        assert base.q == 0.5 and base.log_q == math.log(0.5)

    def test_pickle_round_trips(self):
        base = QBase(0.3)
        back = pickle.loads(pickle.dumps(base))
        assert back == base and hash(back) == hash(base)
        assert float.hex(back.log_q) == float.hex(math.log(0.3))
        assert float.hex(back.log_inv_q) == float.hex(-math.log(0.3))


def _parameter_draws():
    """Seeded QBase, ConfluentParams and PhiParams, each with the tuple of
    its compared fields."""
    rng = random.Random(14_003)
    for _ in range(300):
        base = QBase(rng.uniform(1e-6, 0.999999))
        yield base, (base.q,)
        params = draw_confluent_params(rng)
        yield params, (params.a_list, params.b_list, params.l, params.q)
        phi = draw_phi_params(rng)
        yield phi, (phi.a_list, phi.b_list, phi.q)


class TestCachedParameterHashes:
    """The parameter objects that hold the envelope memos hash as the
    frozen-dataclass form's generated __hash__ did: the hash of the tuple of
    compared fields, from FrozenValue.__hash__, with nothing stored."""

    def test_hash_is_that_of_the_compared_fields(self):
        for obj, compared in _parameter_draws():
            assert compared == tuple(getattr(obj, name) for name in obj._fields)
            assert hash(obj) == hash(compared)

    def test_equal_distinct_objects_hash_equal(self):
        for obj, _ in _parameter_draws():
            if isinstance(obj, QBase):
                twin = QBase(obj.q)
            else:
                twin = obj._replace(q=QBase(obj.q.q))
            assert twin is not obj and twin == obj and hash(twin) == hash(obj)

    def test_fields_and_repr_are_unchanged(self):
        assert QBase._fields == ("q",)
        assert ConfluentParams._fields == ("a_list", "b_list", "l", "q")
        assert PhiParams._fields == ("a_list", "b_list", "q")
        base = QBase(0.5)
        assert (base.q, base.log_q, base.log_inv_q) == (0.5, math.log(0.5), -math.log(0.5))
        params = ConfluentParams((0.5j,), (0.3,), 1.5, QBase(0.5))
        assert repr(params) == (
            "ConfluentParams(a_list=(0.5j,), b_list=(0.3,), l=1.5, q=QBase(q=0.5))")
        assert repr(PhiParams((1 + 0j,), (0.3, 0.6), QBase(0.25))) == (
            "PhiParams(a_list=((1+0j),), b_list=(0.3, 0.6), q=QBase(q=0.25))")

    def test_no_parameter_type_stores_its_own_hash(self):
        for cls in (QBase, ConfluentParams, PhiParams):
            assert "_hash" not in cls.__slots__ and "__hash__" not in vars(cls)
            assert cls.__hash__ is FrozenValue.__hash__

    def test_pickle_round_trips(self):
        for obj, _ in _parameter_draws():
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and hash(back) == hash(obj) and repr(back) == repr(obj)


def _coeff(k):
    # Module level, so a LaurentSpec holding it pickles by reference.
    return 1.0 / (1.0 + k * k)


class TestValueTypes:
    """LaurentSpec and SweepPlan keep their frozen-dataclass repr, field
    order, defaults, equality and hash; every parameter type refuses
    assignment and deletion; the values and the plain bundles survive
    pickle, copy.copy and copy.deepcopy."""

    def test_fields_repr_and_defaults(self):
        assert LaurentSpec._fields == ("center", "coeff", "alpha", "q", "c_weighted")
        assert SweepPlan._fields == ("abs_z_grid", "angle_count", "parameter_draws", "seed", "tol")
        spec = LaurentSpec(0.5, _coeff, 0.5, QBase(0.5), 2.0)
        assert repr(spec) == (
            f"LaurentSpec(center=(0.5+0j), coeff={_coeff!r}, alpha=0.5, q=QBase(q=0.5), "
            "c_weighted=2.0)")
        assert repr(SweepPlan((1e-3, 1, 2.5), 4)) == (
            "SweepPlan(abs_z_grid=(0.001, 1.0, 2.5), angle_count=4, parameter_draws=0, seed=0, "
            "tol=1e-14)")
        plan = SweepPlan(abs_z_grid=[1, 2], angle_count=2, parameter_draws=10, seed=7, tol=1e-12)
        assert repr(plan) == (
            "SweepPlan(abs_z_grid=(1.0, 2.0), angle_count=2, parameter_draws=10, seed=7, "
            "tol=1e-12)")
        assert plan == SweepPlan((1.0, 2.0), 2, 10, 7, 1e-12)
        assert hash(plan) == hash(((1.0, 2.0), 2, 10, 7, 1e-12))
        assert plan != SweepPlan((1.0, 2.0), 2, 10, 8, 1e-12)
        assert hash(spec) == hash(((0.5 + 0j), _coeff, 0.5, QBase(0.5), 2.0))
        assert spec != ((0.5 + 0j), _coeff, 0.5, QBase(0.5), 2.0)

    def test_replace_validates_the_copy(self):
        plan = SweepPlan((1.0, 2.0), 2)
        assert plan._replace(seed=3) == SweepPlan((1.0, 2.0), 2, 0, 3)
        with pytest.raises(InvalidArgumentError, match="angle_count must be >= 1"):
            plan._replace(angle_count=0)
        with pytest.raises(TypeError):
            plan._replace(slack=1.0)

    @pytest.mark.parametrize("build", (
        lambda: ConfluentParams((0.5j,), (0.3,), 1.5, QBase(0.5)),
        lambda: PhiParams((1 + 0j,), (0.3, 0.6), QBase(0.25)),
        lambda: LaurentSpec(0.5, _coeff, 0.5, QBase(0.5), 2.0),
        lambda: SweepPlan((1.0, 2.0), 2),
    ))
    def test_fields_cannot_be_assigned_or_deleted(self, build):
        value = build()
        for name in value._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == build()

    @pytest.mark.parametrize("build", (
        lambda: SweepPlan((1e-3, 1.0, 2.5), 4, 10, 7, 1e-12),
        lambda: phi_to_f(PhiParams((0.5,), (0.3, 0.6), QBase(0.25))),
        lambda: meromorphic_bound_params(0.5, QBase(0.5)),
        lambda: LaurentSpec(0.5, _coeff, 0.5, QBase(0.5), 2.0),
    ))
    @pytest.mark.parametrize("round_trip", (
        lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy,
    ))
    def test_round_trips(self, build, round_trip):
        value = build()
        back = round_trip(value)
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value) and repr(back) == repr(value)

    def test_bundles_are_named_tuples(self):
        reduction = phi_to_f(PhiParams((0.5,), (0.3, 0.6), QBase(0.25)))
        assert isinstance(reduction, PhiReduction) and PhiReduction._fields == ("params", "scale")
        assert repr(reduction) == (
            "PhiReduction(params=ConfluentParams(a_list=((0.5+0j),), b_list=(0.3, 0.6), l=1.0, "
            "q=QBase(q=0.25)), scale=4.0)")
        shape = meromorphic_bound_params(0.5, QBase(0.5))
        assert isinstance(shape, MeromorphicBoundParams)
        assert repr(shape) == "MeromorphicBoundParams(beta=0.30835096014897895, gamma=3.0)"


_Q = QBase(0.5)


class TestArgumentRules:
    """Each rejected argument raises InvalidArgumentError with this exact text."""

    @pytest.mark.parametrize("call,message", (
        (lambda: ConfluentParams(("x",), (), 1.0, _Q),
         "malformed parameters: complex() arg is a malformed string"),
        (lambda: PhiParams(("x",), (), _Q),
         "malformed parameters: complex() arg is a malformed string"),
        (lambda: PhiParams((), (1.0,), _Q), "denominator parameters must lie in [0, 1), got 1.0"),
        (lambda: LaurentSpec(0, _coeff, 0.0, _Q, 3.0), "alpha must be positive, got 0.0"),
        (lambda: LaurentSpec(0, _coeff, 0.5, _Q, 0.0),
         "c_weighted must be finite and positive, got 0.0"),
        (lambda: SweepPlan((), 1), "abs_z_grid must be a nonempty tuple of positive moduli"),
        (lambda: SweepPlan((1.0,), 1, parameter_draws=-1),
         "parameter_draws must be a nonnegative integer"),
        (lambda: SweepPlan((1.0,), 1, tol=0.0), "tol must be positive, got 0.0"),
        (lambda: QBase("x"), "base must be a real number, got 'x'"),
        (lambda: pochhammer_infinite(0.5, _Q, 0.0), "tol must be positive, got 0.0"),
        (lambda: theta_weighted_constant(0.5, _Q, 0.0), "tol must be positive, got 0.0"),
        (lambda: envelope_aq_exponential(_Q, -1.0), "abs_z must be nonnegative and finite, got -1.0"),
        (lambda: identity_ql_sum(0.0, _Q, 1e-14), "exponent must be positive, got 0.0"),
        (lambda: verify.coarse_layout(128, (2.0, 1.0)), "need 0 < lo < hi, got (2.0, 1.0)"),
    ))
    def test_rejection_text(self, call, message):
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert str(info.value) == message


# The package's public names, as its __all__ listed them when __init__.py
# still wrote each one out.
PUBLIC_NAMES = {
    "QSeriesError", "InvalidArgumentError", "NonConvergentError", "CenterPoleError",
    "QBase", "PochhammerValue", "pochhammer_finite", "pochhammer_infinite", "multishifted",
    "q_binomial",
    "ConfluentParams", "PhiParams", "EvalResult", "LaurentSpec", "PhiReduction",
    "eval_confluent_f", "eval_phi", "phi_to_f", "eval_ramanujan_aq", "eval_theta",
    "eval_laurent", "prepare_confluent_f", "prepare_phi", "ThetaSeries", "LaurentSeries",
    "EnvelopeResult", "MeromorphicBoundParams", "constant_c", "term_peak", "envelope_entire",
    "envelope_phi", "envelope_aq_gaussian", "envelope_aq_exponential",
    "meromorphic_bound_params", "envelope_meromorphic", "theta_weighted_constant",
    "laurent_weighted_constant", "envelope_theta", "envelope_theta_as_printed",
    "SweepPlan", "AuditRecord", "AuditTarget", "audit_target", "audit_envelope",
    "audit_summary", "tightness_search", "draw_confluent_params", "draw_phi_params",
    "format_complex", "log_grid", "identity_euler", "identity_qbinomial_theorem",
    "identity_ql_sum", "identity_theta_triple_product",
    "__version__",
}
MODULES = (errors, qcore, series, bounds, verify)


class TestPackageSurface:
    def test_all_is_the_public_names_once_each(self):
        assert set(qineq.__all__) == PUBLIC_NAMES
        assert len(qineq.__all__) == len(PUBLIC_NAMES)

    def test_star_import_binds_exactly_the_public_names(self):
        namespace = {}
        exec("from qineq import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == PUBLIC_NAMES

    def test_modules_export_only_what_they_define(self):
        exported = [name for module in MODULES for name in module.__all__]
        assert len(exported) == len(set(exported)) == len(PUBLIC_NAMES) - 1
        for module in MODULES:
            for name in module.__all__:
                assert getattr(module, name).__module__ == module.__name__, name
