"""Exception contract of the four solvers, the CLI, ``Conformation``,
``classify_roots``, ``gen_geometric_noisy``, ``unit_disk_mesh`` and the
two evaluators.

For any series and conformation, ``approximate_series`` and then
``poles_and_zeros`` on its rational form give finite poles and zeros or
raise ValueError or an ApproximationError subclass.
No numpy warning and no raw ``LinAlgError`` (itself a ValueError) may
escape, and nothing may be printed, LAPACK's own complaints included:
the suite turns every warning into an error, and a fixture here fails
any case that leaves output it did not read.
The CLI's ``approximate`` and ``poles`` turn the same outcomes into exit
code 0 with strict JSON, or exit code 2 with an error line; ``poles``
extracts no zeros, so it fails only where ``approximate`` does.
``Conformation`` rejects non-integer
degrees with ValueError, as do ``PowerSeries`` a t that is not a
positive number, and ``truncate``, the ``gen_*`` generators
and ``combined_window`` a count that is not an integer (a bool is
none) and ``classify_roots`` an eps that is NaN, infinite, negative or
no real number, and
``classify_roots`` rejects non-finite roots with NonFinite, all quietly.  So do ``gen_geometric_noisy`` a
noise amplitude outside [0, 1) or no number and ``unit_disk_mesh`` a
spacing that is not a real number, or one whose lattice would exceed
10^7 points, all with ValueError, and
``run_geometric_noise`` every bad config value before its first draw.
The evaluators return NaN
quietly at non-finite points, which ``error_sweep`` flags.
``gen_from_poles``, ``to_rational`` and ``numerator_from_denominator``
raise NonFinite, quietly, where a coefficient overflows or is not finite;
``to_rational`` gives a form without poles the zero approximant over an
all-zero series and raises Collapse, naming k, for a negative k over
any other (``tests/test_pencil.py`` has those cases).
The solvers called directly, ``svd``, ``horner``, ``poles_and_zeros``,
``pruned_square_refit`` and the two experiment runners have cases of
their own, and a gate fails for any function in ``padepencil.__all__``
that this file never calls by name.
Multiplying every coefficient by 2^e, within a band where nothing
overflows or becomes subnormal, scales each solver's numerator exactly
and keeps its denominator and ``final_l`` bits, or its exception type.
"""

import ast
import inspect
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import padepencil
from padepencil import (
    ApproximationError,
    Conformation,
    ConvergenceFailure,
    ExperimentConfig,
    NonFinite,
    PoleResidueForm,
    PowerSeries,
    RationalApproximant,
    RootTaxonomy,
    Solution,
    approximate_series,
    classify_roots,
    dm_denominator,
    error_sweep,
    eval_pole_residue,
    eval_rational,
    gen_from_poles,
    gen_geometric_noisy,
    gen_log_series,
    horner,
    pm1,
    pm2,
    poles_and_zeros,
    pruned_square_refit,
    run_geometric_noise,
    run_log_branch,
    svd,
    svd_denominator,
    unit_disk_mesh,
)
from padepencil import experiments
from padepencil.approximant import MESH_MAX_LATTICE
from padepencil.baseline import combined_window, numerator_from_denominator
from padepencil.cli import main
from padepencil.experiments import METHODS, on_ray
from padepencil.pencil import to_rational

from helpers import pm2_cases

CONTRACT = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.fixture(autouse=True)
def _prints_nothing(capfd):
    """Each case prints nothing that it does not read back itself."""
    yield
    assert capfd.readouterr() == ("", "")


@st.composite
def series_cases(draw):
    """A conformation with m in 1..40 and k in -m..3, and a series of
    exactly its length: wide magnitudes, extreme entries, a single
    spike, all zeros, or a noisy geometric or log series."""
    m = draw(st.integers(1, 40))
    conf = Conformation(m, draw(st.integers(-m, 3)))
    n = conf.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["wide", "extreme", "spike", "zero", "geometric", "log"]))
    if kind == "wide":
        amp = draw(st.sampled_from([1.0, 3.0, 6.0, 20.0, 100.0, 300.0]))
        period = int(rng.integers(2, 13))
        expo = amp * np.cos(2 * np.pi * np.arange(n) / period) + rng.uniform(-0.5, 0.5, n)
        s = PowerSeries(10.0**expo * np.exp(2j * np.pi * rng.uniform(size=n)))
    elif kind == "extreme":
        s = PowerSeries(rng.choice([1e300, -1e300, 1e-300, 1.0, 1e308, -1e308], size=n))
    elif kind == "spike":
        c = np.zeros(n, dtype=complex)
        c[rng.integers(n)] = 10.0 ** rng.uniform(-300, 300) * np.exp(2j * np.pi * rng.uniform())
        s = PowerSeries(c)
    elif kind == "zero":
        s = PowerSeries(np.zeros(n))
    elif kind == "geometric":
        s = gen_geometric_noisy(n, 10.0 ** -rng.uniform(1, 14), rng)
    else:
        eps = 10.0 ** -rng.uniform(1, 14)
        s = PowerSeries(gen_log_series(n).coeffs * (1 + eps * rng.uniform(-1, 1, n)), t=float(-np.log10(eps)))
    return s, conf


#: Exact scaling keeps every coefficient part, before and after, within
#: [2^-SCALE_BAND, 2^SCALE_BAND]: far inside zgesdd's unscaled range
#: (about 10^+-138), and squares, products with a denominator and sums
#: of them neither overflow nor become subnormal.
SCALE_BAND = 200


@st.composite
def scaled_cases(draw):
    """A case of series_cases or of pm2_cases (the TestPm2 strategy)
    whose coefficient parts lie in the band, and an exponent e that keeps
    them there; the band's ends are drawn often."""
    s, conf = draw(st.one_of(series_cases(), pm2_cases().map(lambda case: case[:2])))
    parts = np.abs(s.coeffs.view(float))
    parts = parts[parts > 0]
    lo, hi = -SCALE_BAND, SCALE_BAND
    if parts.size:
        low, high = math.frexp(parts.min())[1] - 1, math.frexp(parts.max())[1]  # 2^low <= parts < 2^high
        assume(-SCALE_BAND <= low and high <= SCALE_BAND)
        lo, hi = -SCALE_BAND - low, SCALE_BAND - high
    return s, conf, draw(st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi)))


def _ldexp(a, e):
    """Complex array a times 2^e, part by part: exact, signed zeros kept."""
    return np.ldexp(a.view(float), e).view(complex)


def _solve_or_exception_type(s, conf, method):
    try:
        return approximate_series(s, conf, method)
    except (ValueError, ApproximationError) as exc:
        return type(exc)


@settings(CONTRACT, max_examples=300, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=scaled_cases())
def test_scaling_by_a_power_of_two_commutes_with_every_solver(case):
    # 2^e c commutes with every rounding while nothing overflows or becomes
    # subnormal, so a solver that compares no magnitude with an absolute
    # threshold gives the same denominator and final_l bits and a
    # numerator scaled exactly by 2^e, or fails the same way.
    s, conf, e = case
    scaled = PowerSeries(_ldexp(s.coeffs, e), t=s.t)
    for method in METHODS:
        got, want = (_solve_or_exception_type(series, conf, method) for series in (scaled, s))
        if isinstance(want, type):
            assert got is want, (method, e)
            continue
        assert not isinstance(got, type), (method, e, got)
        assert got.final_l == want.final_l, (method, e)
        assert got.rational.denom.tobytes() == want.rational.denom.tobytes(), (method, e)
        assert got.rational.numer.tobytes() == _ldexp(want.rational.numer, e).tobytes(), (method, e)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _not_reached(*args, **kwargs):
    raise AssertionError("called before the inputs were checked")


@settings(CONTRACT, max_examples=150)
@given(case=series_cases())
def test_solvers_return_finite_roots_or_raise(case):
    s, conf = case
    for method in METHODS:
        try:
            res = approximate_series(s, conf, method)
            poles, zeros = poles_and_zeros(res.rational)
        except np.linalg.LinAlgError:
            raise
        except (ValueError, ApproximationError):
            continue
        assert np.isfinite(poles).all() and np.isfinite(zeros).all(), (method, poles, zeros)
        assert res.final_l == (res.report.final_l if method == "pm2" else conf.m)


@settings(CONTRACT, max_examples=100)
@given(case=series_cases())
def test_solver_functions_return_their_results_or_raise(case):
    # The solvers called directly, and the pole-deletion baseline: each
    # returns or raises ValueError or an ApproximationError, quietly.
    s, conf = case
    calls = {
        "pm1": lambda: pm1(s, conf),
        "pm2": lambda: pm2(s, conf),
        "dm": lambda: dm_denominator(s, conf),
        "svd": lambda: svd_denominator(s, conf),
        "pruned": lambda: pruned_square_refit(s, conf),
    }
    got = {}
    for name, call in calls.items():
        try:
            got[name] = call()
        except np.linalg.LinAlgError:
            raise
        except (ValueError, ApproximationError):
            continue
    for name in ("pm1", "pm2"):
        if name in got:
            sol = got[name]
            assert isinstance(sol, Solution) and sol.final_l == sol.prf.poles.size
            assert sol.final_l == conf.m and sol.report is None if name == "pm1" else sol.final_l == sol.report.final_l
    for name in ("dm", "svd"):
        if name in got:
            b = got[name]
            assert b.shape == (conf.m + 1,) and np.isfinite(b).all()
            assert b[0] == 1 if name == "dm" else np.abs(b).max() == pytest.approx(1)
    if "pruned" in got:
        prf = got["pruned"]
        assert isinstance(prf, PoleResidueForm) and 1 <= prf.poles.size <= conf.m
        assert all(on_ray(p) for p in prf.poles)


def _run_cli(argv, capfd):
    """main(argv): (exit code, stdout, stderr)."""
    rc = main(argv)
    return (rc, *capfd.readouterr())


@settings(CONTRACT, max_examples=25)
@given(case=series_cases(), method=st.sampled_from(METHODS))
def test_cli_writes_strict_json_or_exits_2(case, method, tmp_path, capfd):
    # approximate and poles on the same input: each prints strict JSON or
    # exits 2 with one error line; poles fails only where approximate
    # does, and prints the poles approximate prints whenever both succeed.
    s, conf = case
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps([[c.real, c.imag] for c in s.coeffs.tolist()]))
    args = ["--coeffs", str(path), "--method", method, "--m", str(conf.m), "--k", str(conf.k), "--t", repr(s.t)]
    printed = {}
    for command in ("approximate", "poles"):
        rc, out, err = _run_cli([command, *args], capfd)
        if rc == 0:
            assert err == ""
            printed[command] = json.loads(out, parse_constant=_reject_constant)
            assert (printed[command]["conformation"]["m"], printed[command]["conformation"]["k"]) == (conf.m, conf.k)
        else:
            assert rc == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
    assert "poles" in printed or "approximate" not in printed
    if "approximate" in printed:
        assert {key: printed["approximate"][key] for key in printed["poles"]} == printed["poles"]


class TestOverflowingRoots:
    """A tiny leading coefficient next to larger ones overflows numpy's
    root finder; the solvers report NonFinite instead of inf or NaN."""

    @pytest.mark.parametrize(
        "coeffs, method",
        [([1e-300] * 3, "dm"), ([1e-300] * 3, "svd"), ([1e-300] * 3, "pm1"),
         ([1e300, 1.0, 1e-300], "pm1"), ([1e300, 1.0, 1e-300], "pm2")],
    )
    def test_approximate_series_raises_nonfinite(self, coeffs, method):
        with pytest.raises(NonFinite):
            poles_and_zeros(approximate_series(PowerSeries(coeffs), Conformation(1, 0), method).rational)

    def test_cli_exits_2_without_output(self, tmp_path, capfd):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps([1e-300] * 3))
        rc, out, err = _run_cli(["approximate", "--coeffs", str(path), "--m", "1", "--k", "0", "--method", "dm"], capfd)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: NonFinite: ") and err.count("\n") == 1

    def test_poles_never_computes_the_overflowing_zeros(self, tmp_path, capfd):
        # The one intended difference from approximate's failure: the
        # denominator's root is finite, and poles prints it.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps([1e-300] * 3))
        rc, out, err = _run_cli(["poles", "--coeffs", str(path), "--m", "1", "--k", "0", "--method", "dm"], capfd)
        assert (rc, err) == (0, "")
        assert json.loads(out) == {"method": "dm", "conformation": {"m": 1, "k": 0, "final_l": 1},
                                   "poles": [[1.0000000000000002, 0.0]]}


class TestOverflowingHelpers:
    """Three public helpers let an overflow through: gen_from_poles and
    to_rational printed a numpy RuntimeWarning, and
    numerator_from_denominator returned NaN for a NaN denominator."""

    @pytest.mark.parametrize("poles", [[1e-200], [1e-320], [1.0, 1e-110]])
    def test_gen_from_poles(self, poles):
        with pytest.raises(NonFinite):
            gen_from_poles(poles, [1.0] * len(poles), 4)

    @pytest.mark.parametrize("poles", [(1e200, 2e200), (1e-160, 2e-160)])
    def test_to_rational(self, poles):
        prf = PoleResidueForm(head=[], poles=poles, weights=[1] * len(poles))
        with pytest.raises(NonFinite):
            to_rational(prf, PowerSeries(np.ones(5)), Conformation(2, 0))

    @pytest.mark.parametrize("denom", [[np.nan, 1], [1, np.inf], [1, 0.5, complex(0, np.nan)]])
    @pytest.mark.parametrize("k", [0, -1])  # at k = -1 the truncated product drops the last coefficient
    def test_numerator_from_denominator(self, denom, k):
        with pytest.raises(NonFinite):
            numerator_from_denominator(PowerSeries(np.ones(5)), denom, Conformation(2, k))


class TestOverflowingWindow:
    """A finite window whose 2-norm overflows: zgesdd scales it, so the
    svd method still gets its null direction, while pm1 and pm2, which
    multiply by that norm, raise NonFinite.  All quietly."""

    S = PowerSeries([1e308, -1e308] * 4)

    @pytest.mark.parametrize("m, k", [(2, 0), (3, 1)])
    def test_svd_denominator_stays_finite(self, m, k):
        b = svd_denominator(self.S, Conformation(m, k))
        assert np.isfinite(b).all() and np.abs(b).max() == 1

    @pytest.mark.parametrize("method", ["pm1", "pm2"])
    def test_pencil_solvers_raise_nonfinite(self, method):
        with pytest.raises(NonFinite):
            approximate_series(self.S, Conformation(3, 1), method)


@pytest.mark.parametrize("t", ["3", 1j, None, True, False, Fraction(1, 2)])
def test_accuracy_that_is_no_number_raises_valueerror(t):
    # The comparison t > 0 used to raise a raw TypeError.
    with pytest.raises(ValueError, match="accuracy estimate t must be positive"):
        PowerSeries([1.0, 0.5], t=t)


class TestConformationDegrees:
    """Degrees must be integers: a float or a string degree used to reach
    the solvers and fail there with a raw TypeError from slicing."""

    @pytest.mark.parametrize("m, k", [(1.5, 0), (2, 0.5), (np.float64(3.0), 0), ("2", 0), (None, 0), (2, 1j),
                                      (True, 0), (3, False)])
    def test_non_integer_degree_raises_valueerror(self, m, k):
        with pytest.raises(ValueError, match="must be an integer"):
            Conformation(m, k)

    def test_numpy_integers_pass(self):
        conf = Conformation(np.int64(3), np.int32(-1))
        res = approximate_series(gen_log_series(conf.n), conf, "pm2")
        assert np.isfinite(poles_and_zeros(res.rational)[0]).all()


#: Each call with a count that is not an integer: truncate, the three
#: generators and the window's pole count l.  At 2.5 they used to raise
#: TypeError or IndexError, or (gen_from_poles) return 3 coefficients.
COUNT_CALLS = {
    "truncate": lambda n: gen_log_series(6).truncate(n).coeffs,
    "gen_geometric_noisy": lambda n: gen_geometric_noisy(n, 0.1, np.random.default_rng(0)).coeffs,
    "gen_log_series": lambda n: gen_log_series(n).coeffs,
    "gen_from_poles": lambda n: gen_from_poles([2.0], [1.0], n).coeffs,
    "combined_window": lambda l: combined_window(gen_log_series(7), Conformation(3, 0), l),
}


class TestIntegerCounts:
    """Coefficient counts and the pole count l must be integers, as the
    degrees of ``Conformation`` must."""

    @pytest.mark.parametrize("count", [2.5, np.float64(2.0), "2", None, True])
    @pytest.mark.parametrize("call", COUNT_CALLS, ids=str)
    def test_non_integer_count_raises_valueerror(self, call, count):
        with pytest.raises(ValueError, match="must be an integer"):
            COUNT_CALLS[call](count)

    @pytest.mark.parametrize("call", COUNT_CALLS, ids=str)
    def test_numpy_integers_pass(self, call):
        got = COUNT_CALLS[call](np.int64(2))
        np.testing.assert_array_equal(got, COUNT_CALLS[call](2))
        assert got.shape in ((2,), (4, 3))


class TestClassifyEps:
    """eps widens the system tolerance, so it must be finite and >= 0: a
    NaN used to leave an exact pole unclassified, and inf took any pole
    as the system pole."""

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -1e-3, "a", None, 1j, True, False, Fraction(1, 2)])
    def test_bad_eps_raises_valueerror(self, eps):
        with pytest.raises(ValueError, match="eps"):
            classify_roots([1.0], [], [1.0], eps=eps)
        with pytest.raises(ValueError, match="eps"):
            classify_roots([5.0], [], [1.0], eps=eps)

    def test_valid_eps_keeps_its_meaning(self):
        assert classify_roots([1.0], [], [1.0], eps=0.0).system_poles == (1.0,)
        assert classify_roots([5.0], [], [1.0], eps=1e-3).far_poles == (5.0,)


#: Root values for classify_roots: finite (near the unit disk, far out,
#: huge) and non-finite in every component.
ROOT_VALUES = st.sampled_from([
    0.0, 1.0, -1.0 + 0.5j, 0.9 + 0.2j, 1.05, 4.0, 1e300, -1e300j, 1e-300, 1e308, -1e308,
    complex(np.inf, 0), complex(0, -np.inf), complex(np.nan, 0), complex(1, np.nan), complex(np.inf, np.nan),
])


@settings(CONTRACT, max_examples=300)
@given(poles=st.lists(ROOT_VALUES, max_size=6), zeros=st.lists(ROOT_VALUES, max_size=6),
       expected=st.lists(ROOT_VALUES, max_size=4), eps=st.sampled_from([0.0, 1e-8, 1e-2]))
def test_classify_roots_returns_or_raises_nonfinite(poles, zeros, expected, eps):
    finite = np.isfinite(np.array(poles + zeros + expected, dtype=complex)).all()
    if finite:
        assert isinstance(classify_roots(poles, zeros, expected, eps), RootTaxonomy)
    else:
        with pytest.raises(NonFinite):
            classify_roots(poles, zeros, expected, eps)


class TestNoiseAmplitude:
    """A non-finite eps used to reach the arithmetic (inf and NaN printed
    a RuntimeWarning and the CLI exited 2 with NonFinite), and eps = 1e300
    failed on the derived t = -300 instead of on eps itself."""

    BAD_EPS = [np.inf, -np.inf, np.nan, 1e300, 1.0, -1e-3, "a", None, 1j, True, False, Fraction(1, 2)]

    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_rejected_before_any_arithmetic(self, eps):
        with pytest.raises(ValueError, match=r"noise amplitude eps must be finite and in \[0, 1\)"):
            gen_geometric_noisy(8, eps, np.random.default_rng(0))

    @pytest.mark.parametrize("eps", ["inf", "nan", "1e300"])
    def test_cli_exits_3(self, eps, capfd):
        rc = main(["experiment", "geometric-noise", "--samples", "1", "--eps", eps])
        assert rc == 3
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: noise amplitude eps must be finite") and err.count("\n") == 1


@pytest.mark.parametrize("spacing", ["0.5", None, 0.5j, True, False, Fraction(1, 2)])
def test_mesh_spacing_must_be_a_real_number(spacing):
    with pytest.raises(ValueError, match="spacing must be a real number"):
        unit_disk_mesh(spacing)


class _Allocates(Exception):
    pass


class _NoGrid:
    """Stands in for np.mgrid: indexing it raises instead of allocating."""

    def __getitem__(self, key):
        raise _Allocates(key)


class TestMeshCeiling:
    """A spacing whose lattice exceeds MESH_MAX_LATTICE points raises
    ValueError before np.mgrid runs: 1e-7 raised numpy's own memory error
    ("Unable to allocate 5.68 PiB"), and 1e-4 asked for about 6.4 GB."""

    @pytest.fixture(autouse=True)
    def _no_grid(self, monkeypatch):
        monkeypatch.setattr(np, "mgrid", _NoGrid())

    @pytest.mark.parametrize("spacing", [1e-7, 1e-5, 1 / 1580, 5e-324, np.float64(5e-324)])
    def test_raises_valueerror(self, spacing):
        with pytest.raises(ValueError, match="needs more than 10000000 lattice points"):
            unit_disk_mesh(spacing)

    def test_the_largest_lattice_passes(self):
        # At 1/1579, N = ceil(1/spacing) + 1 = 1580 and the lattice has
        # 3161^2 points; at 1/1580 it would have 3163^2.
        assert math.ceil(1 / (1 / 1579)) + 1 == 1580 and math.ceil(1 / (1 / 1580)) + 1 == 1581
        assert (2 * 1580 + 1) ** 2 <= MESH_MAX_LATTICE < (2 * 1581 + 1) ** 2
        with pytest.raises(_Allocates, match="-1580"):
            unit_disk_mesh(1 / 1579)


class TestNonFinitePoints:
    """The evaluators give NaN at a point with an infinite or NaN part,
    quietly, and error_sweep flags it.  The one exception is a bare
    pole-residue tail at a point with one infinite part, where every
    term tends to 0."""

    NON_FINITE = [np.inf, -np.inf, np.nan, complex(np.inf, 0), complex(0, -np.inf), complex(np.nan, 0),
                  complex(1, np.nan), complex(np.inf, np.inf), complex(-np.inf, np.nan)]
    #: Points with one infinite part and the other finite.
    ONE_INFINITE_PART = [True, True, False, True, True, False, False, False, False]

    @staticmethod
    def _forms():
        plain = pm1(gen_from_poles([1.5, -2.0 + 1.0j], [1.0, 2.0], 4), Conformation(2, -1))
        headed = pm1(gen_from_poles([1.5, -2.0 + 1.0j], [1.0, 2.0], 6), Conformation(2, 1))
        assert plain.prf.head.size == 0 and plain.prf.shift == 0 and headed.prf.head.size == 2
        return plain, headed

    def _check(self, fn, expect_nan):
        scalars = [fn(z) for z in self.NON_FINITE]
        array = fn(np.array(self.NON_FINITE))
        sweep = error_sweep(fn, lambda z: 1.0 / (1.0 - z), self.NON_FINITE)
        np.testing.assert_array_equal(array, scalars)
        np.testing.assert_array_equal(np.isnan(array), expect_nan)
        np.testing.assert_array_equal(array[~np.asarray(expect_nan)], 0)
        assert sweep.flagged[np.asarray(expect_nan)].all()

    def test_eval_rational(self):
        for res in self._forms():
            self._check(lambda z: eval_rational(res.rational, z), [True] * len(self.NON_FINITE))

    def test_eval_pole_residue(self):
        plain, headed = self._forms()
        self._check(lambda z: eval_pole_residue(plain.prf, z), [not one for one in self.ONE_INFINITE_PART])
        self._check(lambda z: eval_pole_residue(headed.prf, z), [True] * len(self.NON_FINITE))


#: Matrix entries for svd: finite ones, tiny and huge among them (the
#: 2-norm of a 12 x 12 matrix of them stays finite), and non-finite ones.
SVD_ENTRIES = st.sampled_from([0.0, 1.0, -0.5j, 3 - 4j, 1e-300, -1e300, 1e300j, np.nan, np.inf, complex(0, -np.inf)])


@settings(CONTRACT, max_examples=200)
@given(p=st.integers(1, 12), q=st.integers(1, 12), data=st.data())
def test_svd_returns_an_ordered_spectrum_or_raises(p, q, data):
    A = np.array(data.draw(st.lists(SVD_ENTRIES, min_size=p * q, max_size=p * q)), dtype=complex).reshape(p, q)
    try:
        res = svd(A)
        sigma, Vh = res.sigma, res.Vh
    except (NonFinite, ConvergenceFailure) as exc:
        assert isinstance(exc, ConvergenceFailure) or not np.isfinite(A).all()
        sigma = None
    if sigma is not None:
        assert np.isfinite(A).all()
        assert sigma.shape == (min(p, q),) and np.isfinite(sigma).all() and (sigma >= 0).all()
        assert (np.diff(sigma) <= 0).all()
        assert Vh.shape == (q, q) and np.allclose(Vh @ Vh.conj().T, np.eye(q), atol=1e-12)


@pytest.mark.parametrize("A", [np.ones(3), np.ones((0, 2)), np.ones((2, 2, 2))], ids=["1-D", "empty", "3-D"])
def test_svd_needs_a_non_empty_matrix(A):
    with pytest.raises(ValueError, match="non-empty 2-D matrix"):
        svd(A)


#: Finite polynomial coefficients, from 1e-300 to 1e300 in modulus.
COEFF_VALUES = st.sampled_from([0.0, 1.0, -1.0 + 0.5j, 2j, 1e300, -1e-300, 1e-300j])


@settings(CONTRACT, max_examples=200)
@given(coeffs=st.lists(COEFF_VALUES, min_size=1, max_size=8), points=st.lists(ROOT_VALUES, max_size=6))
def test_horner_keeps_the_shape_of_z_quietly(coeffs, points):
    z = np.array(points, dtype=complex)
    array = horner(coeffs, z)
    scalars = [horner(coeffs, point) for point in points]
    assert array.shape == z.shape and all(np.ndim(v) == 0 for v in scalars)
    np.testing.assert_array_equal(array, scalars)
    # A finite point in the closed unit disk keeps every partial sum below 8e300.
    assert np.isfinite(array[np.isfinite(z) & (np.abs(z) <= 1)]).all()


@settings(CONTRACT, max_examples=300)
@given(numer=st.lists(COEFF_VALUES, min_size=1, max_size=6),
       denom=st.lists(COEFF_VALUES, min_size=1, max_size=6).filter(any))
def test_poles_and_zeros_are_finite_or_raise_nonfinite(numer, denom):
    ra = RationalApproximant(numer, denom)
    try:
        poles, zeros = poles_and_zeros(ra)
    except NonFinite:
        poles = zeros = None
    if poles is not None:
        assert np.isfinite(poles).all() and np.isfinite(zeros).all()
        assert poles.size < len(denom) and zeros.size < len(numer)
        assert zeros.size == 0 or any(numer)


class TestGeometricNoiseConfig:
    """run_geometric_noise checks its counts, seed and eps list before
    any draw: a float count or seed raised a raw TypeError, a bare eps a
    TypeError from iterating it, and samples=-1 returned an empty study."""

    @pytest.mark.parametrize("field, value, match", [
        ("samples", 2.5, "samples must be an integer"),
        ("seed", 2.5, "seed must be an integer"),
        ("n", 20.0, "n must be an integer"),
        ("samples", -1, "samples must be >= 0"),
        ("eps_list", 1e-3, "eps_list must be a sequence"),
        ("eps_list", "1e-3", "eps_list must be a sequence"),
    ])
    def test_rejected_with_valueerror(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            run_geometric_noise(ExperimentConfig(**{field: value}))

    @pytest.mark.parametrize("fields", [{"samples": 0}, {"eps_list": ()}, {}], ids=["no_samples", "no_eps", "samples"])
    def test_unknown_method_rejected_before_any_draw(self, fields, monkeypatch):
        # With nothing to solve, the study used to come back labelled with
        # the unknown method; with samples, it failed after a draw.
        monkeypatch.setattr(experiments, "gen_geometric_noisy", _not_reached)
        with pytest.raises(ValueError, match="unknown method 'xx'"):
            run_geometric_noise(ExperimentConfig(method="xx", **fields))

    @pytest.mark.parametrize("fields, match", [
        ({"eps_list": (1e-3, 2.0), "samples": 3}, "noise amplitude eps"),
        ({"eps_list": (1e-3, float("nan")), "samples": 3}, "noise amplitude eps"),
        ({"eps_list": (None,)}, "noise amplitude eps"),
        ({"t": -1.0}, "accuracy estimate t must be positive"),
        ({"samples": 0, "eps_list": (-1e-3,)}, "noise amplitude eps"),
        ({"samples": 0, "t": "3"}, "accuracy estimate t must be positive"),
        ({"samples": True}, "samples must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"t": True}, "accuracy estimate t must be positive"),
        ({"t": Fraction(1, 2)}, "accuracy estimate t must be positive"),
        ({"eps_list": (False,)}, "noise amplitude eps"),
        ({"eps_list": (True,)}, "noise amplitude eps"),
        ({"eps_list": (Fraction(1, 2),)}, "noise amplitude eps"),
    ], ids=["eps_2", "eps_nan", "eps_none", "negative_t", "no_samples_eps", "no_samples_t", "bool_samples", "bool_n",
            "bool_t", "fraction_t", "eps_false", "eps_true", "fraction_eps"])
    def test_bad_value_rejected_before_any_draw(self, fields, match, monkeypatch):
        # A bad eps or t used to raise at its first draw, after the samples
        # before it were solved, or never with no samples; a bool count
        # passed as 1.
        monkeypatch.setattr(experiments, "gen_geometric_noisy", _not_reached)
        with pytest.raises(ValueError, match=match):
            run_geometric_noise(ExperimentConfig(**fields))

    def test_cli_negative_samples_exits_3(self, capfd):
        rc, out, err = _run_cli(["experiment", "geometric-noise", "--samples", "-1"], capfd)
        assert (rc, out, err) == (3, "", "error: samples must be >= 0, got -1\n")

    def test_numpy_integers_pass(self):
        cfg = ExperimentConfig(n=np.int64(8), m=3, k=-1, eps_list=[1e-6, 0.0], samples=np.int32(2), seed=np.int64(5))
        result = run_geometric_noise(cfg)
        assert len(result["rows"]) == 4 and [entry["samples"] for entry in result["summary"]] == [2, 2]

    def test_numpy_scalars_write_the_files_of_python_numbers(self, tmp_path):
        # A numpy count or float32 t used to raise a raw TypeError from the
        # summary writer, and a numpy eps was written as np.float64(1e-06).
        path = tmp_path / "study"
        want = {}
        for cfg in (
            ExperimentConfig(n=8, m=3, k=-1, eps_list=[1e-6, 0.0], samples=2, seed=5, t=8.0, output_path=str(path)),
            ExperimentConfig(n=np.int64(8), m=np.int64(3), k=np.int32(-1), eps_list=[np.float64(1e-6), np.float64(0.0)],
                             samples=np.int64(2), seed=np.int64(5), t=np.float32(8.0), output_path=str(path)),
        ):
            result = run_geometric_noise(cfg)
            got = {suffix: Path(f"{path}{suffix}").read_bytes() for suffix in (".samples.csv", ".summary.json")}
            assert got == want.setdefault("files", got)
            assert result == want.setdefault("result", result)
            assert {type(v) for v in result["config"].values()} <= {int, float, str, tuple, type(None)}
            assert {type(v) for row in result["rows"] for v in row.values()} <= {int, float, str, bool}

    def test_python_numbers_keep_their_type(self, tmp_path):
        # An int eps or t is written as an int, as before numpy scalars
        # were converted.
        path = tmp_path / "study"
        result = run_geometric_noise(ExperimentConfig(n=8, m=3, k=-1, eps_list=[0], samples=1, t=8,
                                                      output_path=str(path)))
        assert result["config"]["eps_list"] == (0,) and type(result["config"]["t"]) is int
        summary = json.loads(Path(f"{path}.summary.json").read_text())
        assert type(summary["config"]["t"]) is int and type(summary["summary"][0]["eps"]) is int
        csv_rows = Path(f"{path}.samples.csv").read_text().splitlines()
        assert csv_rows[1].split(",")[csv_rows[0].split(",").index("eps")] == "0"
        run_log_branch(ExperimentConfig(n=11, t=8, output_path=str(tmp_path / "log")))
        assert type(json.loads((tmp_path / "log.json").read_text())["t"]) is int

    def test_log_branch_numpy_scalars_write_the_file_of_python_numbers(self, tmp_path):
        path = tmp_path / "log"
        written = []
        for n, t in ((11, 8.0), (np.int64(11), np.float32(8.0))):
            run_log_branch(ExperimentConfig(n=n, t=t, output_path=str(path)))
            written.append(Path(f"{path}.json").read_bytes())
        assert written[0] == written[1]

    def test_a_repeated_eps_has_its_own_samples_and_summary(self):
        # The summary grouped rows by eps value, so each of two equal
        # entries claimed all four samples.
        result = run_geometric_noise(ExperimentConfig(eps_list=(1e-3, 1e-3), samples=2))
        rows, summary = result["rows"], result["summary"]
        assert len(rows) == 4 and [entry["samples"] for entry in summary] == [2, 2]
        assert summary[0] == run_geometric_noise(ExperimentConfig(eps_list=(1e-3,), samples=2))["summary"][0]
        for entry, part in zip(summary, (rows[:2], rows[2:])):
            assert entry["mean_system_pole_error"] == np.mean([row["system_pole_error"] for row in part])


@pytest.mark.parametrize("n", [3, 4, 11, 21])
def test_run_log_branch_reports_each_solver(n):
    result = run_log_branch(ExperimentConfig(n=n))
    for method in ("dm", "pm2"):
        entry = result[method]
        assert entry["failed"] is False, entry
        assert entry["final_l"] == len(entry["poles"]) <= (n - 1) // 2
        assert np.isfinite(entry["poles"]).all() and np.isfinite(entry["zeros"]).all()
    assert result["pm2"]["final_l"] == result["pm2"]["report"]["final_l"]
    assert result["assimilation"]["failed"] is (n < 5)


@pytest.mark.parametrize("n, match", [(2.5, "n must be an integer"), ("41", "n must be an integer"),
                                      (0, "m=-1"), (2, "m >= 1")])
def test_run_log_branch_rejects_a_bad_length(n, match):
    with pytest.raises(ValueError, match=match):
        run_log_branch(ExperimentConfig(n=n))


@pytest.mark.parametrize("t", [True, Fraction(1, 2)])
def test_run_log_branch_rejects_a_t_that_is_no_number(t, monkeypatch):
    # t=True used to run the study and write "t": true.
    monkeypatch.setattr(experiments, "approximate_series", _not_reached)
    with pytest.raises(ValueError, match="accuracy estimate t must be positive"):
        run_log_branch(ExperimentConfig(n=11, t=t))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_run_log_branch_rejects_a_short_series_before_any_solve(n, monkeypatch):
    # n = 0 failed on the conformation, n = 1 and 2 only after dm's solve.
    monkeypatch.setattr(experiments, "approximate_series", _not_reached)
    with pytest.raises(ValueError, match=f"n >= 3 coefficients, so that m >= 1; got n={n}"):
        run_log_branch(ExperimentConfig(n=n))


def test_every_exported_function_is_called_here():
    # The contract gate: each function in padepencil.__all__ has a case
    # in this file, so a new public function arrives with its contract.
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(ast.parse(Path(__file__).read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    exported = {name for name in padepencil.__all__ if inspect.isfunction(getattr(padepencil, name))}
    assert sorted(exported - called) == []
