import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelbasis.featuremap import (
    ConditioningError,
    FeatureMapSpec,
    features,
    krr_fit_predict,
)
from kernelbasis import orthopoly
from kernelbasis._lowrank import CHUNK, _distinct, chunks, stack_rows
from kernelbasis.cauchy import cauchy_kernel, cauchy_real_basis, cauchy_truncated
from kernelbasis.gaussian import (
    GaussianScale,
    _psi_raw,
    gaussian_kernel,
    gaussian_psi,
    gaussian_truncated,
    hermite_fn,
)
from kernelbasis.laguerre import laguerre_fn
from kernelbasis.matern import (
    MaternBasisId,
    MaternOrder,
    MaternTruncation,
    matern_psi,
    matern_psi_bound,
    matern_truncated,
)
from kernelbasis.quadrature import gauss_hermite_rule
from oracles import rank_product_gather


class TestSpec:
    def test_dimensions(self):
        assert FeatureMapSpec("matern", n=5, nu=2).dim == 2 + 1 + 2 * 5
        assert FeatureMapSpec("cauchy", n=5).dim == 10
        assert FeatureMapSpec("gaussian", n=5).dim == 5

    def test_index_labels_document_ordering(self):
        labels = FeatureMapSpec("matern", n=2, nu=1).index_labels()
        assert labels == ["null_0", "null_1", "minus_0", "minus_1", "plus_0", "plus_1"]
        assert FeatureMapSpec("cauchy", n=2).index_labels() == [
            "alpha_0", "alpha_1", "beta_0", "beta_1",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureMapSpec("matern", n=3)  # missing nu
        with pytest.raises(ValueError):
            FeatureMapSpec("gaussian", n=3, nu=1)
        with pytest.raises(ValueError):
            FeatureMapSpec("spline", n=3)
        with pytest.raises(ValueError):
            FeatureMapSpec("gaussian", n=0)
        with pytest.raises(ValueError, match="nu=1001 exceeds the cap 1000"):
            FeatureMapSpec("matern", n=3, nu=1001)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_nonfinite_lam_rejected(self, lam):
        with pytest.raises(ValueError):
            FeatureMapSpec("gaussian", lam=lam, n=3)


# the entry points besides FeatureMapSpec that take a length-scale, with the
# calls that used to return NaN at t = u for lam = inf
_LAM_ENTRY_POINTS = {
    "MaternOrder": lambda lam: MaternOrder(1, lam),
    "GaussianScale": lambda lam: GaussianScale(lam),
    "cauchy_kernel": lambda lam: cauchy_kernel(lam, 0.5, 0.5),
    "cauchy_truncated": lambda lam: cauchy_truncated(lam, 4, 0.5, 0.5),
}


@pytest.mark.parametrize("lam", [np.inf, np.nan])
@pytest.mark.parametrize("entry", sorted(_LAM_ENTRY_POINTS))
def test_length_scale_must_be_positive_and_finite(entry, lam):
    with pytest.raises(ValueError, match="positive and finite"):
        _LAM_ENTRY_POINTS[entry](lam)


# entry points that take an index m, order nu or level n: each rejects a value
# that is not an integer, or is below its bound, before it computes anything
_INTEGER_ENTRY_POINTS = {
    "FeatureMapSpec_nu": lambda v: FeatureMapSpec("matern", n=3, nu=v),
    "FeatureMapSpec_n": lambda v: FeatureMapSpec("gaussian", n=v),
    "MaternOrder": lambda v: MaternOrder(v),
    "MaternTruncation": lambda v: MaternTruncation(MaternOrder(1), v),
    "cauchy_truncated": lambda v: cauchy_truncated(1.0, v, 0.5, 0.5),
    "gaussian_truncated": lambda v: gaussian_truncated(GaussianScale(), v, 0.5, 0.5),
    "gaussian_psi": lambda v: gaussian_psi(v, 0.5),
    "cauchy_real_basis": lambda v: cauchy_real_basis("alpha", v, 0.5),
}


@pytest.mark.parametrize("value", [2.5, 2.0, -1, None], ids=["fraction", "float", "negative",
                                                            "none"])
@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
def test_integer_parameters_are_checked_at_construction(entry, value):
    with pytest.raises(ValueError, match="integer"):
        _INTEGER_ENTRY_POINTS[entry](value)
    _INTEGER_ENTRY_POINTS[entry](np.int64(2))  # numpy integers pass


# a bool is an int to isinstance, but True is no order, level or node count
_BOOL_REFUSERS = {
    "MaternOrder": lambda: MaternOrder(True),
    "FeatureMapSpec_n": lambda: FeatureMapSpec("gaussian", n=True),
    "hermite_fn": lambda: hermite_fn(True, 0.5),
    "gauss_hermite_rule": lambda: gauss_hermite_rule(True),
}


@pytest.mark.parametrize("entry", sorted(_BOOL_REFUSERS))
def test_a_bool_is_refused_as_an_integer(entry):
    with pytest.raises(ValueError, match=r"must be a (nonnegative|positive) integer, got True"):
        _BOOL_REFUSERS[entry]()


# nor is True a length-scale
_BOOL_LENGTH_SCALES = {
    "MaternOrder": lambda: MaternOrder(1, lam=True),
    "GaussianScale": lambda: GaussianScale(True),
    "FeatureMapSpec": lambda: FeatureMapSpec("cauchy", lam=True),
    "cauchy_kernel": lambda: cauchy_kernel(True, 0.0, 1.0),
    "cauchy_truncated": lambda: cauchy_truncated(True, 3, 0.0, 1.0),
}


@pytest.mark.parametrize("entry", sorted(_BOOL_LENGTH_SCALES))
def test_a_bool_is_refused_as_a_length_scale(entry):
    with pytest.raises(ValueError, match="lam must be positive and finite, got True"):
        _BOOL_LENGTH_SCALES[entry]()


class TestFeatures:
    def test_single_gaussian_feature(self):
        spec = FeatureMapSpec("gaussian", lam=1.3, n=1)
        F = features(spec, [0.4])
        assert F.shape == (1, 1)
        assert F[0, 0] == pytest.approx(gaussian_psi(0, 1.3 * 0.4), rel=1e-14, abs=0)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["matern", "cauchy", "gaussian"]),
           st.floats(-3, 3), st.floats(-3, 3))
    def test_gram_equals_truncated_kernel(self, family, t, u):
        spec = FeatureMapSpec(family, n=7, nu=1 if family == "matern" else None)
        F = features(spec, [t, u])
        dot = float(F[0] @ F[1])
        assert dot == pytest.approx(spec.truncated_kernel(t, u), abs=1e-12)

    def test_gaussian_feature_dot_tight(self):
        spec = FeatureMapSpec("gaussian", n=25)
        pts = np.linspace(-3, 3, 9)
        F = features(spec, pts)
        gram = F @ F.T
        direct = spec.truncated_kernel(pts[:, None], pts[None, :])
        np.testing.assert_allclose(gram, direct, atol=1e-13)

    def test_gram_reconstruction_ten_points(self):
        spec = FeatureMapSpec("cauchy", n=9)
        pts = np.linspace(-3, 3, 10)
        F = features(spec, pts)
        gram = F @ F.T
        direct = spec.truncated_kernel(pts[:, None], pts[None, :])
        np.testing.assert_allclose(gram, direct, atol=1e-12)

    def test_matern_opposite_sides_orthogonal_in_handed_blocks(self):
        spec = FeatureMapSpec("matern", n=1, nu=0)
        F = features(spec, [-1.0, 1.0])
        # handed coordinates are the trailing 2n entries
        assert float(F[0, 1:] @ F[1, 1:]) == 0.0

    def test_rejects_nonfinite_points(self):
        with pytest.raises(ValueError):
            features(FeatureMapSpec("gaussian", n=2), [np.nan])

    def test_rejects_2d_points_naming_the_shape(self):
        with pytest.raises(ValueError, match=r"\(3, 2\)"):
            features(FeatureMapSpec("matern", n=3, nu=1), np.zeros((3, 2)))


def _rowwise_truncated(spec, t, u):
    """Reference: the dot product of the two feature rows of every pair."""
    t, u = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))
    dots = np.sum(features(spec, t.ravel()) * features(spec, u.ravel()), axis=1)
    return dots.reshape(t.shape)


_AXIS = np.array([-2.5, -0.5, 0.0, 0.5, 0.5, 2.0])
# distinct pairs <= output pairs takes the Gram branch, otherwise the gather
# branch: "elementwise" and "equal_2d" gather, every other case forms a Gram
_LAYOUTS = {
    "meshgrid_repeats": tuple(np.meshgrid(_AXIS, _AXIS[::-1], indexing="ij")),
    "column_by_row": (_AXIS[:, None], _AXIS[None, :4]),
    "elementwise": (np.linspace(-3.0, 3.0, 7), np.linspace(2.9, -2.6, 7)),
    "scalar_by_array": (0.4, _AXIS),
    "signed_zeros": (np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, 1.2])),
    "empty": (np.array([]), np.array([])),
    "equal_2d": tuple(np.random.default_rng(5).uniform(-3.0, 3.0, (2, 3, 4))),
}
_SPECS = {
    "matern": FeatureMapSpec("matern", lam=1.3, n=6, nu=2),
    "cauchy": FeatureMapSpec("cauchy", lam=0.7, n=6),
    "gaussian": FeatureMapSpec("gaussian", lam=1.1, n=9),
}


class TestTruncatedContraction:
    @pytest.mark.parametrize("family", sorted(_SPECS))
    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_matches_rowwise_features(self, family, layout):
        spec = _SPECS[family]
        t, u = _LAYOUTS[layout]
        got = spec.truncated_kernel(t, u)
        ref = _rowwise_truncated(spec, t, u)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("family", sorted(_SPECS))
    def test_scalar_pair_returns_float(self, family):
        spec = _SPECS[family]
        got = spec.truncated_kernel(0.3, -1.1)
        assert type(got) is float
        assert got == pytest.approx(float(_rowwise_truncated(spec, 0.3, -1.1)), abs=1e-14)


_GRID_AXIS = np.array([0.5, -0.0, 1.5, 0.0, -2.0])


@pytest.mark.parametrize("v", [
    np.meshgrid(_GRID_AXIS, _GRID_AXIS[:3], indexing="ij")[0],
    np.meshgrid(_GRID_AXIS, _GRID_AXIS[:3], indexing="ij")[1],
    np.broadcast_to(_GRID_AXIS[:, None, None], (5, 2, 3)),
    np.array([[0.0, 1.0], [-0.0, 1.0]]),  # constant along axis 0 only as -0.0 == 0.0
    np.array([[np.nan, 1.0], [np.nan, 1.0]]),  # NaN is never constant
    np.array(0.25), np.array([]), np.zeros((3, 0)), np.linspace(-1.0, 1.0, 7),
], ids=["mesh_rows", "mesh_cols", "broadcast_3d", "signed_zero", "nan", "scalar", "empty",
        "empty_2d", "distinct"])
def test_distinct_matches_unique_of_all_values(v):
    vals, inverse = _distinct(v, 1.3)
    ref_vals, ref_inverse = np.unique(1.3 * v.ravel(), return_inverse=True)
    np.testing.assert_array_equal(vals, ref_vals)
    np.testing.assert_array_equal(np.broadcast_to(inverse, v.shape).ravel(), ref_inverse.ravel())


@pytest.mark.parametrize("core", [
    np.linspace(-3.0, 3.0, 300), np.linspace(3.0, -3.0, 300), np.array([0.5, 1.0, 1.0, 2.0]),
    np.array([-1.0, -0.0, 2.0]), np.array([-1.0, 0.0, -0.0, 2.0]),
    np.array([0.0, 5e-324, 1e-310, 2.2e-308]), np.array([-np.inf, -1.0, 1e308, np.inf]),
    np.array([-1.0, np.nan, 2.0]), np.array([np.nan]), np.array([1.0, np.inf, np.inf]),
    np.linspace(-3.0, 3.0, 300).reshape(3, 100),
], ids=["increasing", "decreasing", "repeated", "negative_zero", "both_zeros", "subnormal",
        "infinities", "nan", "nan_only", "repeated_inf", "increasing_2d"])
@pytest.mark.parametrize("lam", [1.3, 1e300])  # 1e300 overflows 1e308 to inf
def test_distinct_equals_unique_bit_for_bit(core, lam):
    # an increasing core skips np.unique; its output must be np.unique's
    vals, inverse = _distinct(core, lam)
    with np.errstate(over="ignore"):
        ref_vals, ref_inverse = np.unique(lam * core, return_inverse=True)
    assert vals.dtype == ref_vals.dtype and inverse.dtype == ref_inverse.dtype
    np.testing.assert_array_equal(vals.view(np.uint64), ref_vals.view(np.uint64))
    assert inverse.shape == core.shape
    np.testing.assert_array_equal(inverse.ravel(), ref_inverse.ravel())


_RNG = np.random.default_rng(11)
_T_AXIS, _U_AXIS = np.array([-2.5, -0.5, 0.0, 0.5, 0.5, 2.0]), np.linspace(-3.0, 2.7, 5)
# inputs of every branch: the same floats as a block per argument
_MANY_VALUES = {
    "meshgrid_ij": tuple(np.meshgrid(_T_AXIS, _U_AXIS, indexing="ij")),
    "meshgrid_xy": tuple(np.meshgrid(_T_AXIS, _U_AXIS, indexing="xy")),
    "column_by_row": (_T_AXIS[:, None], _U_AXIS[None, :]),
    "signed_zero_duplicates": (np.array([[-0.0, 1.5], [0.0, 1.5], [-0.0, -0.0]]),
                               np.array([[0.0, -0.0], [2.0, -0.0], [2.0, 0.0]])),
    "broadcast_3d": (_RNG.uniform(-3.0, 3.0, (4, 1, 1)),
                     np.broadcast_to(_RNG.uniform(-3.0, 3.0, (1, 3, 2)), (4, 3, 2))),
    # both arguments constant along the last axis: their index cores
    # broadcast to (4, 3, 1), not to the output's shape
    "same_constant_axis": (_RNG.uniform(-3.0, 3.0, (4, 1, 1)),
                           np.broadcast_to(_RNG.uniform(-3.0, 3.0, (4, 3, 1)), (4, 3, 2))),
    "same_constant_axis_gram": (_RNG.uniform(-3.0, 3.0, (4, 1, 1)),
                                np.broadcast_to(_RNG.uniform(-3.0, 3.0, (1, 3, 1)), (1, 3, 5))),
    "elementwise": (np.linspace(-3.0, 3.0, 7), np.linspace(2.9, -2.6, 7)),
    "elementwise_2d": tuple(_RNG.uniform(-3.0, 3.0, (2, 3, 4))),
    "empty": (np.array([]), np.array([])),
    "empty_2d": (np.zeros((3, 0)), np.zeros((1, 0))),
    # increasing distinct axes: the distinct-value Gram matrix is the output
    # (ij, column by row) or its transpose (xy, outer_reversed_3d)
    "meshgrid_increasing_ij": tuple(np.meshgrid(np.unique(_T_AXIS), _U_AXIS, indexing="ij")),
    "meshgrid_increasing_xy": tuple(np.meshgrid(np.unique(_T_AXIS), _U_AXIS, indexing="xy")),
    "column_by_row_increasing": (np.unique(_T_AXIS)[:, None], _U_AXIS[None, :]),
    "outer_reversed_3d": (np.sort(_RNG.uniform(-3.0, 3.0, 6)).reshape(1, 2, 3),
                          np.broadcast_to(np.sort(_RNG.uniform(-3.0, 3.0, 4))[:, None, None],
                                          (4, 2, 3))),
    # t varies along axes 0 and 2, u along axis 1: no one product has the
    # output's C order
    "interleaved_axes": (np.sort(_RNG.uniform(-3.0, 3.0, 6)).reshape(2, 1, 3),
                         np.sort(_RNG.uniform(-3.0, 3.0, 4)).reshape(1, 4, 1)),
    # repeats on both axes, -0.0 beside 0.0: the Gram gather
    "meshgrid_repeats_both": tuple(np.meshgrid([1.0, -0.0, 0.5, 0.0, 1.0, -2.0],
                                               [0.0, 2.5, -0.0, 2.5, -1.0], indexing="ij")),
    # an argument with one distinct value: a block of one point
    "scalar_by_array": (0.4, _T_AXIS),
    "one_point_axis": (_T_AXIS[:1, None], _U_AXIS[None, :]),
    "signed_zeros_only": (np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, 1.2])),
}
# the truncated kernels at length-scale lam, level n and (Matern) order nu
_TRUNCATED_AT = {
    "matern": lambda lam, n, nu, t, u: matern_truncated(MaternTruncation(MaternOrder(nu, lam), n),
                                                        t, u),
    "cauchy": lambda lam, n, nu, t, u: cauchy_truncated(lam, n, t, u),
    "gaussian": lambda lam, n, nu, t, u: gaussian_truncated(GaussianScale(lam), n, t, u),
}


def _both_truncated(spec, t, u):
    """The truncated kernel of spec from FeatureMapSpec and from the family's function."""
    public = _TRUNCATED_AT[spec.family](spec.lam, spec.n, spec.nu, t, u)
    return spec.truncated_kernel(t, u), public


# wider blocks on a 200 x 207 grid: a product this large (2.6e6 multiply-adds
# at dim 64) rounds an element by its place in the product and by which
# operand is which, on the OpenBLAS AVX-512 kernels at least, so only the
# distinct-value Gram matrix itself, in its own orientation, equals it
_WIDE_SPECS = {
    "matern": FeatureMapSpec("matern", lam=1.3, n=32, nu=2),
    "cauchy": FeatureMapSpec("cauchy", lam=0.7, n=32),
    "gaussian": FeatureMapSpec("gaussian", lam=1.1, n=64),
}
_WIDE_T, _WIDE_U = (np.random.default_rng(12).uniform(-3.0, 3.0, size) for size in (200, 207))
_LARGE_GRIDS = {
    f"{order}_{indexing}": tuple(np.meshgrid(*axes, indexing=indexing))
    for order, axes in [("increasing", (np.sort(_WIDE_T), np.sort(_WIDE_U))),
                        ("permuted", (_WIDE_T, _WIDE_U))]
    for indexing in ("ij", "xy")
}
# more distinct values than CHUNK on one side: its block runs one chunk at a
# time, each writing its rows or columns of the distinct-value Gram matrix
_ONE_SIDE_MANY = np.random.default_rng(13).uniform(-3.0, 3.0, CHUNK + 1000)
_ONE_SIDE_FEW = np.array([-1.0, 0.2, 0.7])
_LARGE_INPUTS = _LARGE_GRIDS | {
    "one_side_outer_many_t": (np.sort(_ONE_SIDE_MANY)[:, None], _ONE_SIDE_FEW[None, :]),
    "one_side_outer_many_u": (_ONE_SIDE_FEW[:, None], np.sort(_ONE_SIDE_MANY)[None, :]),
    "one_side_gather_many_t": (_ONE_SIDE_MANY[:, None], _ONE_SIDE_FEW[None, ::-1]),
    "one_side_gather_many_u": (np.array([0.5, -0.5, 0.5])[None, :], _ONE_SIDE_MANY[:, None]),
    "one_side_scalar_u": (_ONE_SIDE_MANY, 0.3),
}
# meshgrid axes: +-0.0, subnormals, repeats and |x| up to 1e300
_GRID_AXIS_VALUES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 1.5]),
              st.floats(-1e300, 1e300, allow_nan=False)),
    min_size=1, max_size=40)


class TestRankProduct:
    """The truncated kernels (the _SPECS families) against the block per
    argument and the flat gather of tests/oracles.py."""

    @pytest.mark.parametrize("family", sorted(_SPECS))
    @pytest.mark.parametrize("case", sorted(_MANY_VALUES))
    def test_equals_gather_of_separate_blocks(self, family, case):
        spec, (t, u) = _SPECS[family], _MANY_VALUES[case]
        ref = rank_product_gather(spec._block, spec.lam, t, u)
        for got in _both_truncated(spec, t, u):
            assert got.shape == ref.shape
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("family", sorted(_SPECS))
    @pytest.mark.parametrize("case", sorted(_MANY_VALUES))
    def test_returns_a_fresh_writeable_c_ordered_array(self, family, case):
        spec, (t, u) = _SPECS[family], _MANY_VALUES[case]
        for got in _both_truncated(spec, t, u):
            assert got.flags.c_contiguous and got.flags.writeable
            got[...] = np.nan
        ref = rank_product_gather(spec._block, spec.lam, t, u)
        for got in _both_truncated(spec, t, u):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("family", sorted(_WIDE_SPECS))
    @pytest.mark.parametrize("case", sorted(_LARGE_INPUTS))
    def test_large_grids_equal_gather_of_separate_blocks(self, family, case):
        spec, (t, u) = _WIDE_SPECS[family], _LARGE_INPUTS[case]
        ref = rank_product_gather(spec._block, spec.lam, t, u)
        for got in _both_truncated(spec, t, u):
            np.testing.assert_array_equal(got, ref)

    @settings(max_examples=50, deadline=None)
    @given(family=st.sampled_from(sorted(_SPECS)), t=_GRID_AXIS_VALUES, u=_GRID_AXIS_VALUES,
           order=st.sampled_from(["drawn", "repeated", "increasing"]),
           indexing=st.sampled_from(["ij", "xy"]))
    def test_meshgrids_equal_gather_of_separate_blocks(self, family, t, u, order, indexing):
        spec = _SPECS[family]
        t, u = (np.unique(a) if order == "increasing" else
                np.array(a + a[::2] if order == "repeated" else a) for a in (t, u))
        T, U = np.meshgrid(t, u, indexing=indexing)
        ref = rank_product_gather(spec._block, spec.lam, T, U)
        for got in _both_truncated(spec, T, U):
            assert got.shape == ref.shape
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("family", sorted(_SPECS))
    def test_scalar_by_scalar_is_a_float(self, family):
        spec = _SPECS[family]
        ref = rank_product_gather(spec._block, spec.lam, 0.3, -1.1)
        for got in _both_truncated(spec, 0.3, -1.1):
            assert type(got) is float and got == ref


class TestKRR:
    def test_interpolates_kernel_translate(self):
        # y = r(., 0) sampled on 15 points is reproduced to 1e-6 off-sample
        spec = FeatureMapSpec("gaussian", n=40)
        xtr = np.linspace(-3, 3, 15)
        ytr = gaussian_kernel(GaussianScale(1.0), xtr, 0.0)
        xte = np.linspace(-2.8, 2.8, 41)
        pred = krr_fit_predict(spec, xtr, ytr, 1e-10, xte)
        np.testing.assert_allclose(
            pred, gaussian_kernel(GaussianScale(1.0), xte, 0.0), atol=1e-6
        )

    def test_constant_data_reproduced_exactly_at_ridge_zero(self):
        spec = FeatureMapSpec("gaussian", n=12)
        xtr = np.linspace(-2, 2, 8)
        ytr = np.full(8, 3.0)
        rec = krr_fit_predict(spec, xtr, ytr, 0.0, xtr)
        np.testing.assert_allclose(rec, 3.0, atol=1e-10)

    def test_duplicated_points_raise_conditioning_error(self):
        spec = FeatureMapSpec("gaussian", n=12)
        xtr = np.array([0.5, 0.5, 1.0])
        with pytest.raises(ConditioningError) as err:
            krr_fit_predict(spec, xtr, np.array([1.0, 2.0, 3.0]), 0.0, xtr)
        assert err.value.cond > 1e12

    @pytest.mark.parametrize("family", ["matern", "cauchy", "gaussian"])
    @pytest.mark.parametrize("extra", ["dim+1", "4dim"])
    def test_ridge_zero_with_more_points_than_features_raises_at_once(self, family, extra):
        # F F^T has rank <= dim < N: no N x N Gram matrix, F or SVD is built
        spec = _WIDE_SPECS[family]
        n = spec.dim + 1 if extra == "dim+1" else 4 * spec.dim
        x, y = _points(n), np.sin(_points(n))
        message, raised = f"N={n} points with dim={spec.dim} ", []

        def fit():
            with pytest.raises(ConditioningError, match=message) as err:
                krr_fit_predict(spec, x, y, 0.0, x)
            raised.append(err.value)

        assert _peak_bytes(fit) < n * n * 8
        assert raised[0].cond == np.inf

    @pytest.mark.parametrize("family,nu", [("matern", 3), ("cauchy", None), ("gaussian", None)])
    def test_matches_full_kernel_ridge(self, family, nu):
        rng = np.random.default_rng(0x5EED)
        xtr = rng.uniform(-3, 3, 20)
        ytr = np.sin(2 * xtr) + 0.1 * rng.standard_normal(20)
        xte = np.linspace(-3, 3, 50)
        spec = FeatureMapSpec(family, n=200, nu=nu)
        ridge = 1e-2
        pred = krr_fit_predict(spec, xtr, ytr, ridge, xte)
        K = spec.kernel(xtr[:, None], xtr[None, :])
        Kt = spec.kernel(xte[:, None], xtr[None, :])
        full = Kt @ np.linalg.solve(K + ridge * np.eye(20), ytr)
        assert float(np.max(np.abs(pred - full))) < 1e-5

    def test_negative_ridge_rejected(self):
        spec = FeatureMapSpec("gaussian", n=4)
        with pytest.raises(ValueError):
            krr_fit_predict(spec, [0.0, 1.0], [0.0, 1.0], -1.0, [0.5])

    def test_nan_ridge_rejected(self):
        spec = FeatureMapSpec("gaussian", n=4)
        with pytest.raises(ValueError):
            krr_fit_predict(spec, [0.0, 1.0], [0.0, 1.0], np.nan, [0.5])

    def test_length_mismatch_rejected(self):
        spec = FeatureMapSpec("gaussian", n=4)
        with pytest.raises(ValueError):
            krr_fit_predict(spec, [0.0, 1.0], [0.0], 1e-3, [0.5])

    @pytest.mark.parametrize("ridge", [1e-3, 0.0])
    @pytest.mark.parametrize("bad", ["nan", "inf", "2d"])
    @pytest.mark.parametrize("arg", ["train_x", "test_x"])
    def test_rejects_bad_points(self, arg, bad, ridge):
        spec = FeatureMapSpec("gaussian", n=4)
        good = np.array([-1.0, 0.0, 1.0])
        bad_x = {"nan": np.array([-1.0, np.nan, 1.0]),
                 "inf": np.array([-1.0, np.inf, 1.0]),
                 "2d": np.zeros((3, 1))}[bad]
        if arg == "train_x":
            y = np.zeros(bad_x.shape)
            call = lambda: krr_fit_predict(spec, bad_x, y, ridge, good)
        else:
            call = lambda: krr_fit_predict(spec, good, np.zeros(3), ridge, bad_x)
        with pytest.raises(ValueError, match=arg):
            call()

    @pytest.mark.parametrize("ridge", [1e-3, 0.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_train_y(self, bad, ridge):
        spec = FeatureMapSpec("gaussian", n=4)
        x = np.array([-1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="train_y must be finite"):
            krr_fit_predict(spec, x, np.array([0.0, bad, 1.0]), ridge, x)

    @pytest.mark.parametrize("ridge", [1e-3, 0.0])
    @pytest.mark.parametrize("family", ["matern", "cauchy", "gaussian"])
    def test_finite_train_y_near_the_float_maximum_is_a_value_or_raises(self, family, ridge):
        # b @ y or the solve overflows for some families and ridges: the
        # predictions must be finite, or a ValueError names train_y
        spec = FeatureMapSpec(family, n=4, nu=2 if family == "matern" else None)
        try:
            pred = krr_fit_predict(spec, [0.0, 1.0, 2.0], [1.0, 2.0, 1e308], ridge, [0.5, 1.5])
        except ValueError as err:
            assert "train_y" in str(err)
        else:
            assert np.all(np.isfinite(pred))


# every finite float: subnormals, +-0.0 and values whose scaling by lam,
# square or double overflows
_ANY_FINITE = st.floats(-1.7e308, 1.7e308, allow_nan=False, allow_infinity=False)


class TestFullRange:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["matern", "cauchy", "gaussian"]),
           lam=st.sampled_from([0.5, 1.0, 2.0]), n=st.integers(1, 256), nu=st.integers(0, 6),
           t=st.lists(_ANY_FINITE, min_size=1, max_size=8))
    def test_features_are_finite_and_bounded(self, family, lam, n, nu, t):
        spec = FeatureMapSpec(family, lam=lam, n=n, nu=nu if family == "matern" else None)
        F = features(spec, t)
        assert np.all(np.isfinite(F))
        # r_n(t, t) is a partial sum of k(t, t) = 1 over an orthonormal basis
        assert np.all(np.sum(F * F, axis=1) <= 1.0 + 1e-12)
        if family == "matern":
            assert np.all(np.abs(F) <= matern_psi_bound(MaternOrder(nu)))
        if family == "cauchy":  # |alpha_m|, |beta_m| <= |w_m| <= 1/sqrt(1 + t^2)
            assert np.all(np.abs(F) <= 1.0)

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(_TRUNCATED_AT)),
           lam=st.sampled_from([0.5, 1.0, 2.0]), n=st.integers(1, 256), nu=st.integers(0, 6),
           t=st.lists(_ANY_FINITE, min_size=1, max_size=4),
           u=st.lists(_ANY_FINITE, min_size=1, max_size=4), mesh=st.booleans())
    # lam * 1.7e308 overflows: the scaled point is +-inf, where every block is 0
    @example(family="matern", lam=2.0, n=256, nu=6, t=[1.7e308, -0.0], u=[-1.7e308, 5e-324],
             mesh=True)
    @example(family="cauchy", lam=2.0, n=256, nu=0, t=[-1.7e308, 0.0], u=[1.7e308, -5e-324],
             mesh=True)
    @example(family="gaussian", lam=2.0, n=256, nu=0, t=[1.7e308], u=[-1e200], mesh=False)
    def test_truncated_kernels_are_finite_and_bounded(self, family, lam, n, nu, t, u, mesh):
        # scalars t[0], u[0], or the meshgrid of the two lists
        t, u = np.meshgrid(t, u, indexing="ij") if mesh else (t[0], u[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = _TRUNCATED_AT[family](lam, n, nu, t, u)
            diag = _TRUNCATED_AT[family](lam, n, nu, t, t)
        assert np.all(np.isfinite(r))
        # Cauchy--Schwarz with r_n(t, t) <= k(t, t) = 1
        assert np.all(np.abs(r) <= 1.0 + 1e-12)
        assert np.all(np.asarray(diag) >= 0.0)

    @pytest.mark.parametrize("family, n, t", [
        ("gaussian", 64, 1e6), ("gaussian", 256, 1e3), ("matern", 256, 1e3),
        ("gaussian", 64, 1e200), ("matern", 32, 1e200), ("cauchy", 32, 1e200),
    ])
    def test_points_that_gave_nan_are_finite(self, family, n, t):
        spec = FeatureMapSpec(family, n=n, nu=2 if family == "matern" else None)
        F = features(spec, [t, -t])
        assert np.all(np.isfinite(F))
        assert np.all(np.sum(F * F, axis=1) <= 1.0)
        if family == "gaussian":  # every value underflows there
            assert np.all(F == 0.0)


# chunk boundaries of the point loop: empty, one point, either side of one
# chunk, and a short third chunk, with ids that name the boundary
_CHUNK_SIZES = [pytest.param(n, id=name) for name, n in (
    ("0", 0), ("1", 1), ("chunk-1", CHUNK - 1), ("chunk", CHUNK), ("chunk+1", CHUNK + 1),
    ("2chunk+3", 2 * CHUNK + 3))]


def _points(n, seed=3):
    return np.random.default_rng(seed).uniform(-3.0, 3.0, n)


class TestChunkBoundaries:
    @pytest.mark.parametrize("family", sorted(_SPECS))
    @pytest.mark.parametrize("n", _CHUNK_SIZES)
    def test_features_equal_one_block(self, family, n):
        spec = _SPECS[family]
        x = _points(n)
        F = features(spec, x)
        ref = spec._block(spec.lam * x).T
        assert F.shape == (n, spec.dim) and F.flags.c_contiguous
        if family == "matern":  # the null rows are a matrix product
            np.testing.assert_allclose(F, ref, rtol=0, atol=1e-15)
        else:
            np.testing.assert_array_equal(F, ref)

    @pytest.mark.parametrize("family", sorted(_SPECS))
    @pytest.mark.parametrize("n", _CHUNK_SIZES[1:])
    def test_krr_matches_dense_normal_equations(self, family, n):
        spec, ridge = _SPECS[family], 1e-3
        x, xt = _points(n, 1), _points(n, 2)
        y = np.sin(2.0 * x)
        F, Ft = spec._block(spec.lam * x).T, spec._block(spec.lam * xt).T
        ref = Ft @ np.linalg.solve(F.T @ F + ridge * np.eye(spec.dim), F.T @ y)
        pred = krr_fit_predict(spec, x, y, ridge, xt)
        assert pred.shape == (n,)
        assert np.max(np.abs(pred - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("family", sorted(_SPECS))
    def test_empty_training_set_predicts_zeros(self, family):
        pred = krr_fit_predict(_SPECS[family], [], [], 1e-3, _points(CHUNK + 1))
        np.testing.assert_array_equal(pred, np.zeros(CHUNK + 1))


# a first chunk of points that take the far path, underflow, sit at zero or
# overflow when scaled, then ordinary points; 2 CHUNK + 3 points in all
_EXTREME = np.array([0.0, -0.0, 5e-324, 30.0, -47.5, 760.0, -1000.0, 1e6, -1e200, 1.7e308])


def _raw_gaussian_krr(spec, x, y, xt):
    """krr_fit_predict's gaussian arithmetic at ridge 1e-3 on fresh raw
    Hermite blocks U, one per chunk: the Gram matrix G = U U^T from its first
    row and last column (orthopoly._hermite_gram), (D G D + ridge I) c = D U y,
    and predictions (D c) U_test, with D the rows' scale."""
    rows, scale, _ = _psi_raw(spec.n)
    first, last, rhs = np.zeros(spec.dim), np.zeros(spec.dim), np.zeros(spec.dim)
    with np.errstate(over="ignore"):  # lam * 1.7e308
        for s in chunks(x.size):
            b = rows(spec.lam * x[s])
            first += b @ b[0]
            last += b @ b[-1]
            rhs += b @ y[s]
    gram = orthopoly._hermite_gram(orthopoly._hermite_raw(spec.n, 3.0)[0], first, last)
    coef = scale * np.linalg.solve(np.outer(scale, scale) * gram + 1e-3 * np.eye(spec.dim),
                                   scale * rhs)
    return np.concatenate([coef @ rows(spec.lam * xt[s]) for s in chunks(xt.size)])


@pytest.mark.parametrize("family", sorted(_SPECS))
def test_block_buffer_keeps_no_stale_rows(family):
    spec = _SPECS[family]
    x = np.concatenate([np.resize(_EXTREME, CHUNK), _points(CHUNK + 3)])
    xt = _points(2 * CHUNK + 3, 4)
    with np.errstate(over="ignore"):  # lam * 1.7e308
        fresh = [spec._block(spec.lam * x[s]) for s in chunks(x.size)]
    assert np.array_equal(features(spec, x), np.concatenate(fresh, axis=1).T)
    y = np.cos(x)
    if family == "gaussian":
        ref = _raw_gaussian_krr(spec, x, y, xt)
    else:
        gram, rhs = 1e-3 * np.eye(spec.dim), np.zeros(spec.dim)
        for s, b in zip(chunks(x.size), fresh):
            gram += b @ b.T
            rhs += b @ y[s]
        coef = np.linalg.solve(gram, rhs)
        ref = np.concatenate([coef @ spec._block(spec.lam * xt[s]) for s in chunks(xt.size)])
    assert np.array_equal(krr_fit_predict(spec, x, y, 1e-3, xt), ref)


@pytest.mark.parametrize("n", [1, 2, 64, 150, 200, 512])
def test_raw_gaussian_krr_matches_normalised_blocks(n):
    # the normal equations of the normalised rows, ridge first, as a
    # reference; largest difference measured 7.4e-14 of max|pred| over lam
    # 0.4, 1.1, 2.5 (1.3e-14 at lam 1.1; 2.9e-14 with the summed U U^T),
    # and every prediction is finite even where the raw rows would overflow
    # without their power-of-two resets (n >= 150)
    spec = FeatureMapSpec("gaussian", lam=1.1, n=n)
    x = np.concatenate([_EXTREME, _points(5000, 1)])
    xt = np.concatenate([_EXTREME, _points(3000, 2)])
    y = np.cos(x)
    gram, rhs = 1e-3 * np.eye(n), np.zeros(n)
    with np.errstate(over="ignore"):  # lam * 1.7e308
        for s in chunks(x.size):
            b = spec._block(spec.lam * x[s])
            gram += b @ b.T
            rhs += b @ y[s]
        coef = np.linalg.solve(gram, rhs)
        ref = np.concatenate([coef @ spec._block(spec.lam * xt[s]) for s in chunks(xt.size)])
        pred = krr_fit_predict(spec, x, y, 1e-3, xt)
    assert np.all(np.isfinite(pred))
    assert np.max(np.abs(pred - ref)) <= 1e-13 * np.max(np.abs(ref))


def _raw_rows_and_reference_gram(n, lam, x):
    """Raw Hermite rows U (n, N) at lam x, their scale s and the Gram matrix
    U U^T summed in long double."""
    rows, scale, _ = _psi_raw(n)
    with np.errstate(over="ignore"):  # lam * 1.7e308
        u = rows(lam * x)
    wide = u.astype(np.longdouble)
    return u, scale, np.einsum("in,jn->ij", wide, wide)


def _gram_identity_error(n, lam, x):
    """max|(G - G_ref) s s^T| / max|G_ref s s^T| for the Gram matrix G that
    orthopoly._hermite_gram builds from the first row and last column of
    U U^T, against the long-double G_ref; 0 where every row is 0."""
    u, scale, ref = _raw_rows_and_reference_gram(n, lam, x)
    gram = orthopoly._hermite_gram(orthopoly._hermite_raw(n, 3.0)[0], u @ u[0], u @ u[-1])
    ss = np.outer(scale, scale)
    err, top = np.max(np.abs((gram - ref) * ss)), np.max(np.abs(ref * ss))
    return float(err / top) if top else float(err)


_RNG = np.random.default_rng(11)
_GRAM_SETS = {
    "clusters": np.concatenate([4.0 + _RNG.uniform(-1e-3, 1e-3, 150),
                                -4.0 + _RNG.uniform(-1e-3, 1e-3, 150)]),
    "cauchy": _RNG.standard_cauchy(300),
    "far": _RNG.uniform(20.0, 40.0, 300),
    "near-zero": _RNG.uniform(-1e-3, 1e-3, 300),
    "three": _RNG.uniform(-3.0, 3.0, 3),
    "extreme": np.concatenate([_EXTREME, _RNG.uniform(-3.0, 3.0, 300)]),
}


@pytest.mark.parametrize("lam", [0.4, 2.5])
@pytest.mark.parametrize("points", sorted(_GRAM_SETS))
def test_gram_identity_matches_long_double_gram(points, lam):
    # forward from the first row, with the last column given; largest
    # error measured 8.4e-16 (the syrk U U^T: 1.3e-15).  Every row is 0 at
    # lam 2.5 on [20, 40], and so is every entry of the identity's Gram
    for n in [1, 2, 3, 64, 200, 512]:
        assert _gram_identity_error(n, lam, _GRAM_SETS[points]) <= 2e-15


def test_gram_identity_on_one_repeated_point():
    # the identity adds no error of its own here: the float64 sums of the
    # first row and the last column lose it, 1.1e-14 measured (the syrk
    # U U^T: 8.2e-15)
    for lam in [0.4, 2.5]:
        for n in [2, 64, 200]:
            assert _gram_identity_error(n, lam, np.full(3000, 0.7)) <= 3e-14


@pytest.mark.parametrize("ridge, bar", [(1e-3, 1e-13), (1e-8, 3e-11)])
@pytest.mark.parametrize("size, dims", [(300, [1, 2, 3, 64, 200, 512]), (5000, [64])],
                         ids=["300", "5000"])
def test_gaussian_krr_matches_long_double_gram(ridge, bar, size, dims):
    # the long-double Gram matrix of the same raw rows, solved in float64.
    # Largest difference measured, of max|pred|, against the float64 U U^T:
    # 300 points: 1.4e-14 (1.6e-14) at ridge 1e-3, 4.7e-12 (3.9e-12) at 1e-8;
    # 5000 points: 9.2e-14 (3.8e-14) and 2.0e-11 (9.7e-12), the identity's
    # largest at lam 0.4, where its Gram matrix is accurate normwise but not
    # entry by entry (see orthopoly._hermite_gram).  At ridge 1e-8 the float64 solve
    # itself reads up to 1.6e-11 on other seeded sets of 300 points
    x = np.concatenate([_EXTREME, _points(size, 1)])
    xt = np.concatenate([_EXTREME, _points(1000, 2)])
    y = np.cos(x)
    for n in dims:
        for lam in [0.4, 2.5]:
            u, scale, ref = _raw_rows_and_reference_gram(n, lam, x)
            rhs = (u.astype(np.longdouble) @ y).astype(float)
            gram = np.outer(scale, scale) * ref.astype(float) + ridge * np.eye(n)
            coef = scale * np.linalg.solve(gram, scale * rhs)
            with np.errstate(over="ignore"):  # lam * 1.7e308
                expected = coef @ _psi_raw(n)[0](lam * xt)
                pred = krr_fit_predict(FeatureMapSpec("gaussian", lam=lam, n=n), x, y, ridge, xt)
            assert np.max(np.abs(pred - expected)) <= bar * np.max(np.abs(expected))


def test_full_chunk_rows_are_not_whole_pages_apart():
    # rows a multiple of 4 KiB apart all start on one L1 set, and the
    # transposing copy into the (N, dim) output then misses on every read
    seen = []

    def block(p, out):
        seen.append((p.size, out.strides))
        out[...] = p
        return out

    x = _points(2 * CHUNK + 3)
    F = stack_rows(block, x, 64)
    assert [k for k, _ in seen] == [CHUNK, CHUNK, 3]
    for k, (row, col) in seen[:2]:
        assert col == 8 and row >= 8 * k and row % 4096 != 0
    assert np.array_equal(F, np.repeat(x[:, None], 64, axis=1))


@pytest.mark.parametrize("family", sorted(_SPECS))
@pytest.mark.parametrize("sizes", [(513, 512), (512, 513), (CHUNK, 1), (1, CHUNK)],
                         ids=["train513-test512", "train512-test513", "trainchunk-test1",
                              "train1-testchunk"])
def test_block_buffer_holds_the_padded_rows_of_either_set(family, sizes):
    # 512 points fill whole 4 KiB pages and are padded, 513 are not: the one
    # buffer must hold the padded test chunk of a larger training set
    spec = _SPECS[family]
    x, xt = _points(sizes[0], 5), _points(sizes[1], 6)
    y = np.cos(x)
    if family == "gaussian":
        ref = _raw_gaussian_krr(spec, x, y, xt)
    else:
        gram, rhs = 1e-3 * np.eye(spec.dim), np.zeros(spec.dim)
        for s in chunks(x.size):
            b = spec._block(spec.lam * x[s])
            gram += b @ b.T
            rhs += b @ y[s]
        coef = np.linalg.solve(gram, rhs)
        ref = np.concatenate([coef @ spec._block(spec.lam * xt[s]) for s in chunks(xt.size)])
    assert np.array_equal(krr_fit_predict(spec, x, y, 1e-3, xt), ref)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_krr_memory_does_not_grow_with_n(self):
        # the dense fit holds F (2e5 x 64 floats, 102 MB) and more
        spec = FeatureMapSpec("gaussian", n=64)
        x, xt = _points(200_000, 1), _points(1000, 2)
        y = np.sin(2.0 * x)
        assert _peak_bytes(lambda: krr_fit_predict(spec, x, y, 1e-3, xt)) < 32e6

    def test_interpolation_memory_does_not_grow_with_the_test_set(self):
        # ridge = 0 streams its predictions as ridge > 0 does: the (64, 4104)
        # block buffer and the 1.6 MB of predictions.  The (2e5, 64) test
        # feature matrix would take 102 MB
        spec = FeatureMapSpec("gaussian", n=64)
        x, xt = _points(8, 1), _points(200_000, 2)
        y = np.sin(2.0 * x)
        assert _peak_bytes(lambda: krr_fit_predict(spec, x, y, 0.0, xt)) < 16e6

    def test_gaussian_krr_memory_is_the_block_buffer(self):
        # the (64, 4104) block buffer and at most five point rows of a chunk:
        # 135-141 kB measured beyond the buffer, a block's temporaries and
        # the predictions.  A per-chunk copy still alive while the next block
        # is built, of two block rows (64 kB) or a stacked (3, CHUNK)
        # right-hand side (96 kB), would exceed it
        spec = FeatureMapSpec("gaussian", n=64)
        x, xt = _points(200_000, 1), _points(1000, 2)
        y = np.sin(2.0 * x)
        bound = 64 * (CHUNK + 8) * 8 + 5 * CHUNK * 8
        assert _peak_bytes(lambda: krr_fit_predict(spec, x, y, 1e-3, xt)) <= bound

    @pytest.mark.parametrize("family", sorted(_SPECS))
    def test_grid_memory_is_its_output_and_the_gram_matrix(self, family):
        # 300 x 300 values: output and distinct-value Gram matrix 720 kB each;
        # (N,) index arrays of the output's size would add 1.44 MB
        spec = _SPECS[family]
        side = np.linspace(-3.0, 3.0, 300)
        t, u = np.meshgrid(side, side[::-1] / 2, indexing="ij")
        assert _peak_bytes(lambda: spec.truncated_kernel(t, u)) < 3 * t.size * 8

    @pytest.mark.parametrize("family", sorted(_SPECS))
    def test_outer_grid_memory_is_its_output_and_two_blocks(self, family):
        # increasing axes: the distinct-value Gram matrix (8 MB) is the
        # output, built from the blocks of the 1000 + 1000 distinct values
        spec = _SPECS[family]
        side = np.linspace(-3.0, 3.0, 1000)
        t, u = np.meshgrid(side, side / 2, indexing="ij")
        assert _peak_bytes(lambda: spec.truncated_kernel(t, u)) < 1.5 * t.size * 8

    @pytest.mark.parametrize("family", sorted(_WIDE_SPECS))
    @pytest.mark.parametrize("u", [0.3, np.array([[0.3, -1.2]])], ids=["scalar", "two_values"])
    def test_one_side_with_many_values_memory_is_chunked(self, family, u):
        # 1e5 distinct t at dim 64-67: 5.7-6.5 MB measured (output, Gram
        # matrix, index arrays and one (dim, CHUNK) block); one block on
        # every distinct value peaked at 55-62 MB
        spec, t = _WIDE_SPECS[family], _points(100_000)[:, None]
        assert _peak_bytes(lambda: spec.truncated_kernel(t, u)) < 12e6

    @pytest.mark.parametrize("family", sorted(_WIDE_SPECS))
    def test_pairwise_memory_grows_by_points_not_blocks(self, family):
        # element-wise inputs run one chunk of pairs at a time: measured 40
        # bytes more per pair (index and value arrays), where the blocks and
        # their gathered columns took about 2.1 kB per pair
        spec = _WIDE_SPECS[family]
        small, large = ((_points(n, 1), _points(n, 2)) for n in (20_000, 80_000))
        grow = (_peak_bytes(lambda: spec.truncated_kernel(*large))
                - _peak_bytes(lambda: spec.truncated_kernel(*small)))
        assert grow < 200 * 60_000

    def test_features_memory_is_its_output(self):
        spec = FeatureMapSpec("gaussian", n=64)
        x = _points(200_000)
        assert _peak_bytes(lambda: features(spec, x)) < 1.25 * x.size * spec.dim * 8

    @pytest.mark.parametrize("evaluator", [
        lambda x: orthopoly.hermite_normalized(200, x),
        lambda x: orthopoly.assoc_laguerre(200, 2, np.abs(x)),
        lambda x: gaussian_psi(200, x),
        lambda x: laguerre_fn(200, x),
        lambda x: matern_psi(MaternOrder(2), MaternBasisId("plus", 200), x),
        lambda x: cauchy_real_basis("beta", 200, x),
    ], ids=["hermite_normalized", "assoc_laguerre", "gaussian_psi", "laguerre_fn", "matern_psi",
            "cauchy_real_basis"])
    def test_scalar_evaluator_memory_does_not_grow_with_degree_times_n(self, evaluator):
        # a whole (201, 1e5) table would take 161 MB
        x = _points(100_000)
        assert _peak_bytes(lambda: evaluator(x)) < 16e6

    def test_cauchy_real_basis_keeps_two_row_pairs(self):
        # 2 (m + 1) block rows of a 4096-point chunk would take 13 MB at m = 200
        x = _points(100_000)
        assert _peak_bytes(lambda: cauchy_real_basis("beta", 200, x)) < 4e6
