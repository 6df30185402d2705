import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st

from lexalign import maps
from lexalign import (DataError, DictionaryPairs, LinearMap, PairedMatrices,
                      VocabEmbedding, build_paired_matrices, cross_covariance_svd,
                      least_squares_map, load_maps, procrustes, save_maps,
                      whitening_transform)

from conftest import make_embedding, random_orthogonal


def paired(x, z):
    return PairedMatrices(np.asarray(x, dtype=float), np.asarray(z, dtype=float))


class TestLinearMap:
    def test_orthogonal_validated(self):
        LinearMap(np.eye(3), "orthogonal")
        with pytest.raises(DataError):
            LinearMap(np.array([[1.0, 0.0], [0.0, 2.0]]), "orthogonal")
        with pytest.raises(DataError):
            LinearMap(np.ones((2, 3)), "orthogonal")

    def test_whitening_must_be_symmetric(self):
        with pytest.raises(DataError):
            LinearMap(np.array([[1.0, 0.5], [0.0, 1.0]]), "whitening")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LinearMap(np.eye(2), "affine")

    def test_apply_checks_width(self):
        m = LinearMap(np.eye(2), "orthogonal")
        with pytest.raises(DataError):
            m.apply(np.ones((4, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            LinearMap(np.array([[np.nan, 0.0], [0.0, 1.0]]), "unconstrained")


class TestMapIO:
    def test_single_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = LinearMap(rng.normal(size=(5, 3)) * 1e-7, "unconstrained")
        path = tmp_path / "w.map"
        save_maps([m], path)
        (back,) = load_maps(path)
        assert back.kind == "unconstrained"
        np.testing.assert_array_equal(back.matrix, m.matrix)

    def test_chain_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        chain = [
            LinearMap(np.eye(4) * 0.5, "whitening"),
            LinearMap(random_orthogonal(rng, 4), "orthogonal"),
            LinearMap(np.eye(4)[:, :2], "composite"),
        ]
        path = tmp_path / "chain.map"
        save_maps(chain, path)
        back = load_maps(path)
        assert [m.kind for m in back] == ["whitening", "orthogonal", "composite"]
        for a, b in zip(chain, back):
            np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.map"
        for header in ("orthogonal two 2", "orthogonal 2", "orthogonal 2 2 2"):
            path.write_text(f"{header}\n1 0\n0 1\n", encoding="utf-8")
            with pytest.raises(DataError, match=f"^{path}: line 1: bad map header"):
                load_maps(path)

    def test_truncated_block(self, tmp_path):
        """A truncated block, like any other defect in a map file, is a
        DataError that names the file and the line."""
        path = tmp_path / "bad.map"
        bodies = [(b"orthogonal 2 2\n1 0\n", "line 1"),
                  (b"rotation 2 2\n1 0\n0 1\n", "line 1"),
                  (b"orthogonal 2 2\n1 0\n0 x\n", "line 3"),
                  (b"orthogonal 2 2\n1 0\n0 1 0\n", "line 3"),
                  (b"orthogonal 0 2\n", "line 1: bad map header"),
                  (b"unconstrained 2 0\n\n\n", "line 1: bad map header"),
                  (b"unconstrained 2 2\n1 0\n0 nan\n", "line 1"),
                  (b"orthogonal 2 2\n1 1\n0 1\n", "line 1"),
                  (b"orthogonal 2 2\n1 0\n\xff 1\n", "line 3")]
        for body, line in bodies:
            path.write_bytes(body)
            with pytest.raises(DataError) as info:
                load_maps(path)
            assert str(path) in str(info.value) and line in str(info.value), body


    @pytest.mark.parametrize("body, message", [
        (b"orthogonal 2\n\xff\n", "line 1: bad map header 'orthogonal 2'"),
        # the second block's header is bad; the byte below it is never read
        (b"orthogonal 1 1\n1\n\nwhitening 1\n\xff\n1\n",
         "line 4: bad map header 'whitening 1'"),
    ], ids=["header-above-byte", "second-header-above-byte"])
    def test_first_bad_line_is_reported(self, tmp_path, body, message):
        """Maps are read block by block, so a bad header is reported before
        a byte that is not UTF-8 below it."""
        path = tmp_path / "bad.map"
        path.write_bytes(body)
        with pytest.raises(DataError) as info:
            load_maps(path)
        assert str(info.value) == f"{path}: {message}"


def tie_values(rng, size):
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5: (k + 1/2) * 2**-m halfway between two 17-digit decimals."""
    values = []
    for m in rng.integers(2, 26, size).tolist():
        five = 5 ** m
        low, high = -(-10 ** 17 // five), min((10 ** 18 - 1) // five, 2 ** 53 - 1)
        odd = int(rng.integers(low, high + 1)) | 1
        values.append((odd if odd <= high else odd - 2) * 2.0 ** -m)
    return np.array(values)


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-7, 18)])
MAP_VALUES = {
    "normal": lambda rng, n: rng.normal(0.0, 0.06, n),
    "spread": lambda rng, n: 10.0 ** rng.uniform(-8, 17, n),
    "ties": tie_values,
    "edges": lambda rng, n: rng.choice([0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300], n),
    "near-powers-of-ten": lambda rng, n: (lambda p: p + rng.integers(-4, 5, n) * np.spacing(p))(
        rng.choice(POWERS_OF_TEN, n)),
}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 40), cols=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       classes=st.sets(st.sampled_from(sorted(MAP_VALUES)), min_size=1),
       fortran=st.booleans(), block_values=st.sampled_from([1, 7, 1 << 12]))
def test_saved_map_bytes_are_percent_17g_and_load_back_bitwise(
        tmp_path, monkeypatch, rows, cols, seed, classes, fortran, block_values):
    monkeypatch.setattr(maps, "_MAP_VALUES", block_values)
    rng = np.random.default_rng(seed)
    pools = np.stack([MAP_VALUES[name](rng, rows * cols) for name in sorted(classes)])
    cells = pools[rng.integers(len(pools), size=rows * cols), np.arange(rows * cols)]
    matrix = (cells * rng.choice([-1.0, 1.0], rows * cols)).reshape(rows, cols)
    m = LinearMap(np.asfortranarray(matrix) if fortran else matrix, "unconstrained")
    path = tmp_path / "w.map"
    save_maps([m], path)
    expected = f"unconstrained {rows} {cols}\n" + "".join(
        " ".join("%.17g" % v for v in row) + "\n" for row in matrix.tolist())
    assert path.read_bytes() == expected.encode("ascii")
    (back,) = load_maps(path)
    assert back.matrix.tobytes() == matrix.tobytes()


class TestBuildPaired:
    def test_gathers_in_dictionary_order(self):
        src = VocabEmbedding("aa", ("x", "y"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        tgt = VocabEmbedding("bb", ("u", "v"), np.array([[2.0, 0.0], [0.0, 2.0]]))
        pairs = DictionaryPairs("aa", "bb", (("y", "u"), ("x", "v")))
        pm = build_paired_matrices(src, tgt, pairs)
        np.testing.assert_array_equal(pm.X, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(pm.Z, [[2, 0], [0, 2]])

    def test_oov_counted_and_skipped(self):
        src = VocabEmbedding("aa", ("x",), np.ones((1, 2)))
        tgt = VocabEmbedding("bb", ("u",), np.ones((1, 2)))
        pairs = DictionaryPairs("aa", "bb", (("x", "u"), ("miss", "u"), ("x", "gone")))
        pm = build_paired_matrices(src, tgt, pairs)
        assert len(pm) == 1
        assert (pm.oov_src, pm.oov_tgt) == (1, 1)

    def test_matches_brute_force_membership(self):
        rng = np.random.default_rng(9)
        src = make_embedding("aa", 30, 4, rng, prefix="s")
        tgt = make_embedding("bb", 25, 4, rng, prefix="t")
        entries = [(f"s{rng.integers(0, 40)}", f"t{rng.integers(0, 40)}")
                   for _ in range(60)]
        pairs = DictionaryPairs("aa", "bb", tuple(entries))
        pm = build_paired_matrices(src, tgt, pairs)
        expected = [(s, t) for s, t in entries if s in src and t in tgt]
        assert len(pm) == len(expected)
        for row_x, row_z, (s, t) in zip(pm.X, pm.Z, expected):
            np.testing.assert_array_equal(row_x, src.vector(s))
            np.testing.assert_array_equal(row_z, tgt.vector(t))

    def test_language_mismatch(self):
        src = VocabEmbedding("aa", ("x",), np.ones((1, 2)))
        tgt = VocabEmbedding("bb", ("u",), np.ones((1, 2)))
        with pytest.raises(DataError):
            build_paired_matrices(src, tgt, DictionaryPairs("aa", "cc", (("x", "u"),)))

    def test_nothing_usable(self):
        src = VocabEmbedding("aa", ("x",), np.ones((1, 2)))
        tgt = VocabEmbedding("bb", ("u",), np.ones((1, 2)))
        with pytest.raises(DataError):
            build_paired_matrices(src, tgt, DictionaryPairs("aa", "bb", (("q", "r"),)))


class TestProcrustes:
    def test_identity(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = procrustes(paired(x, x))
        np.testing.assert_allclose(w.matrix, np.eye(2), atol=1e-12)

    def test_quarter_turn(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.array([[0.0, 1.0], [-1.0, 0.0]])
        w = procrustes(paired(x, z))
        np.testing.assert_allclose(w.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_recovers_rotation_under_noise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 10))
        r = random_orthogonal(rng, 10)
        z = x @ r + 1e-6 * rng.normal(size=(50, 10))
        w = procrustes(paired(x, z))
        assert np.linalg.norm(w.matrix - r) <= 1e-3

    def test_orthogonality_and_optimality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, d = int(rng.integers(5, 40)), int(rng.integers(2, 8))
            x = rng.normal(size=(n, d))
            z = rng.normal(size=(n, d))
            w = procrustes(paired(x, z))
            np.testing.assert_allclose(w.matrix.T @ w.matrix, np.eye(d), atol=1e-9)
            best = np.linalg.norm(x @ w.matrix - z)
            for _ in range(20):
                q = random_orthogonal(rng, d)
                assert best <= np.linalg.norm(x @ q - z) + 1e-9

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 5))
        z = rng.normal(size=(20, 5))
        w1 = procrustes(paired(x, z))
        w2 = procrustes(paired(x.copy(), z.copy()))
        assert np.array_equal(w1.matrix, w2.matrix)

    def test_preserves_geometry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 6))
        z = rng.normal(size=(30, 6))
        w = procrustes(paired(x, z))
        moved = x @ w.matrix
        np.testing.assert_allclose(moved @ moved.T, x @ x.T, atol=1e-9)


class TestLeastSquares:
    def test_diagonal_stretch(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = a @ np.diag([2.0, 3.0])
        w = least_squares_map(a, b)
        assert w.kind == "unconstrained"
        np.testing.assert_allclose(w.matrix, np.diag([2.0, 3.0]), atol=1e-10)

    def test_self_target_gives_identity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(20, 5))
        w = least_squares_map(a, a)
        np.testing.assert_allclose(w.matrix, np.eye(5), atol=1e-9)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d_in, d_out = (int(rng.integers(12, 60)), int(rng.integers(2, 10)),
                              int(rng.integers(2, 10)))
            a = rng.normal(size=(n, d_in))
            b = rng.normal(size=(n, d_out))
            expected = np.linalg.inv(a.T @ a) @ (a.T @ b)
            w = least_squares_map(a, b)
            assert np.abs(w.matrix - expected).max() <= 1e-8 * max(1.0, np.abs(expected).max())

    def test_residual_contract(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(40, 6))
        b = rng.normal(size=(40, 4))
        w = least_squares_map(a, b)
        residual = np.linalg.norm(a.T @ (a @ w.matrix - b))
        assert residual <= 1e-6 * np.linalg.norm(a.T @ b)

    def test_perturbation_optimality(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(30, 5))
        b = rng.normal(size=(30, 3))
        w = least_squares_map(a, b)
        base = np.linalg.norm(a @ w.matrix - b)
        for _ in range(50):
            delta = rng.normal(size=w.matrix.shape) * 1e-3
            assert base <= np.linalg.norm(a @ (w.matrix + delta) - b) + 1e-12

    def test_min_norm_fallback(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.5, 0.5]])
        w = least_squares_map(a, b)
        np.testing.assert_allclose(w.matrix, [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)

    def test_failed_residual_check_falls_back_to_lstsq(self, monkeypatch):
        # a Cholesky solve that returns a wrong solution fails the residual
        # check, and the map is then the SVD minimum-norm solution, bit for bit
        rng = np.random.default_rng(10)
        a = rng.normal(size=(30, 5))
        b = rng.normal(size=(30, 3))
        solve = maps._cholesky_solve
        calls = []

        def wrong_solve(ata, atb):
            calls.append(atb.shape)
            return solve(ata, atb) + 1.0

        monkeypatch.setattr(maps, "_cholesky_solve", wrong_solve)
        w = least_squares_map(a, b)
        assert calls == [(5, 3)]
        assert w.matrix.tobytes() == np.linalg.lstsq(a, b, rcond=None)[0].tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            least_squares_map(np.ones((3, 2)), np.ones((4, 2)))


@st.composite
def normal_equations(draw):
    """(A, B) with A^T A positive definite, near-singular (two columns a
    relative 1e-9 apart) or singular (a repeated or zero column), widths
    from 0, and from 1 to 4 right-hand sides."""
    rows = draw(st.integers(1, 40))
    width = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(rows, width))
    kind = draw(st.sampled_from(["spd", "near-singular", "repeated", "zero"]))
    if width >= 2 and kind == "near-singular":
        a[:, 1] = a[:, 0] * (1.0 + 1e-9)
    elif width >= 2 and kind == "repeated":
        a[:, 1] = a[:, 0]
    elif width >= 1 and kind == "zero":
        a[:, -1] = 0.0
    return a, rng.normal(size=(rows, draw(st.integers(1, 4))))


def outcome(solve, *args):
    """The bytes, shape and memory order solve returns, or the type it raises."""
    try:
        x = solve(*args)
    except (np.linalg.LinAlgError, ValueError) as exc:
        return type(exc)
    return x.tobytes(), x.shape, x.flags.c_contiguous, x.flags.f_contiguous


@pytest.mark.skipif(maps._lapacke() is None,
                    reason="this numpy's LAPACK has no 64-bit-integer LAPACKE")
@settings(max_examples=200, deadline=None)
@given(normal_equations())
def test_cholesky_solve_on_numpys_lapack_is_scipys_bit_for_bit(system):
    """numpy's LAPACKE and scipy.linalg give the same solution bits and
    layout, or raise the same error, so least_squares_map writes the same
    map either way. The bitwise match depends on both OpenBLAS builds, and
    was checked with numpy's OpenBLAS 0.3.31 (64-bit integers) beside
    scipy's OpenBLAS 0.3.30."""
    a, b = system
    ata, atb = a.T @ a, a.T @ b
    assert outcome(maps._cholesky_solve, ata, atb) == outcome(
        lambda m, r: scipy.linalg.cho_solve(scipy.linalg.cho_factor(m), r), ata, atb)
    fast = least_squares_map(a, b).matrix.tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "_lapacke", lambda: None)
        assert least_squares_map(a, b).matrix.tobytes() == fast


def test_a_residual_whose_square_overflows_falls_back_to_lstsq_without_a_warning():
    """A^T A and A^T B are finite and Cholesky solves them, but the residual's
    squared length overflows: the SVD solution is taken, and no warning is
    printed."""
    a = [[0.36159505490948474, 1.3040000451301372, 0.9470809631292422]]
    b = [[1.354606834075871e+156, 1.9670200299499817e+152, 2.4121124972818764e+277]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = least_squares_map(a, b)
    np.testing.assert_allclose(np.array(a) @ w.matrix, b, rtol=1e-12)


class TestWhitening:
    def test_diagonal_example(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0]])
        w = whitening_transform(a)
        assert w.kind == "whitening"
        np.testing.assert_allclose(w.matrix, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_orthonormal_input_gives_identity(self):
        rng = np.random.default_rng(10)
        q = np.linalg.qr(rng.normal(size=(20, 20)))[0][:, :6]
        w = whitening_transform(q)
        np.testing.assert_allclose(w.matrix, np.eye(6), atol=1e-10)

    def test_whitened_covariance_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(int(rng.integers(20, 100)), int(rng.integers(2, 12))))
            w = whitening_transform(a)
            white = a @ w.matrix
            np.testing.assert_allclose(white.T @ white, np.eye(a.shape[1]), atol=1e-5)
            np.testing.assert_allclose(w.matrix, w.matrix.T, atol=1e-12)

    def test_rank_deficient_regularized(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(30, 4))
        a[:, 3] = 0.0
        w = whitening_transform(a)
        assert np.isfinite(w.matrix).all()
        np.testing.assert_allclose(w.matrix, w.matrix.T, atol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DataError):
            whitening_transform(np.zeros((5, 3)))

    @pytest.mark.parametrize("a", [[[1e154, 1e154]], [[9.6e153, 9.6e153], [1e-100, 2e-100]]])
    def test_a_trace_that_overflows_is_a_data_error(self, a):
        """A^T A is finite and singular, but the trace that sets its
        regularization overflows: the overflow is named, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="A\\^T A overflows"):
                whitening_transform(a)


class TestCrossCovarianceSvd:
    def test_identity_cross_covariance(self):
        x = np.eye(3)
        z = np.eye(3)
        u, s, v = cross_covariance_svd(paired(x, z))
        np.testing.assert_allclose(s, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, np.eye(3), atol=1e-12)

    def test_diagonal_spectrum_with_signs(self):
        x = np.eye(2)
        z = np.diag([3.0, 1.0])
        u, s, v = cross_covariance_svd(paired(x, z))
        np.testing.assert_allclose(s, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(v, np.eye(2), atol=1e-12)

    def test_reconstruction_and_spectrum_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n, d = int(rng.integers(5, 50)), int(rng.integers(2, 10))
            pm = paired(rng.normal(size=(n, d)), rng.normal(size=(n, d)))
            u, s, v = cross_covariance_svd(pm)
            c = pm.X.T @ pm.Z
            assert np.abs(u @ np.diag(s) @ v.T - c).max() < 1e-10
            assert np.all(np.diff(s) <= 1e-12)
            expected = np.sqrt(np.maximum(np.linalg.eigvalsh(c.T @ c), 0.0))[::-1]
            np.testing.assert_allclose(s, expected, atol=1e-8)

    def test_sign_convention_leading_entries_non_negative(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            pm = paired(rng.normal(size=(20, 6)), rng.normal(size=(20, 6)))
            u, s, v = cross_covariance_svd(pm)
            lead = np.argmax(np.abs(u), axis=0)
            assert np.all(u[lead, np.arange(u.shape[1])] >= 0.0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(15)
        pm = paired(rng.normal(size=(20, 5)), rng.normal(size=(20, 5)))
        u1, s1, v1 = cross_covariance_svd(pm)
        u2, s2, v2 = cross_covariance_svd(pm)
        assert np.array_equal(u1, u2)
        assert np.array_equal(s1, s2)
        assert np.array_equal(v1, v2)
