import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbasis.featuremap import (
    ConditioningError,
    FeatureMapSpec,
    features,
    krr_fit_predict,
)
from kernelbasis import orthopoly
from kernelbasis._lowrank import CHUNK, _distinct
from kernelbasis.cauchy import cauchy_kernel, cauchy_real_basis, cauchy_truncated
from kernelbasis.gaussian import GaussianScale, gaussian_kernel, gaussian_psi, gaussian_truncated
from kernelbasis.laguerre import laguerre_fn
from kernelbasis.matern import MaternBasisId, MaternOrder, MaternTruncation, matern_psi


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


class TestFeatures:
    def test_single_gaussian_feature(self):
        spec = FeatureMapSpec("gaussian", lam=1.3, n=1)
        F = features(spec, [0.4])
        assert F.shape == (1, 1)
        assert F[0, 0] == pytest.approx(gaussian_psi(0, 1.3 * 0.4), rel=1e-14)

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
    np.testing.assert_array_equal(inverse, ref_inverse.ravel())


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


# chunk boundaries of the point loop: empty, one point, either side of one
# chunk, and a short third chunk
_CHUNK_SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]


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
