"""Distribution distance math and the rendering-aware alignment oracle."""

import numpy as np
import pytest

from ttig import contrastive, metrics, scenes
from ttig.errors import DataError, NumericError


def _stats(rng, n=200, d=4, shift=0.0):
    x = rng.normal(size=(n, d)) + shift
    return metrics.gaussian_stats(x)


def test_gaussian_stats_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    st = metrics.gaussian_stats(x)
    np.testing.assert_allclose(st.mu, x.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(st.sigma, np.cov(x, rowvar=False), atol=1e-10)
    assert st.n == 50 and st.d == 3


def test_gaussian_stats_input_validation():
    with pytest.raises(DataError):
        metrics.gaussian_stats(np.zeros(5))
    with pytest.raises(DataError):
        metrics.gaussian_stats(np.zeros((1, 5)))


def test_identical_sets_give_zero():
    rng = np.random.default_rng(1)
    a = _stats(rng)
    assert metrics.frechet_distance(a, a) <= 1e-6


def test_one_dimensional_closed_forms():
    # N(0,1) vs N(1,1): distance (mu diff)^2 = 1;  N(0,1) vs N(0,4): (1-2)^2 = 1
    s01 = metrics.GaussianStats(np.array([0.0]), np.array([[1.0]]), 10)
    s11 = metrics.GaussianStats(np.array([1.0]), np.array([[1.0]]), 10)
    s04 = metrics.GaussianStats(np.array([0.0]), np.array([[4.0]]), 10)
    assert abs(metrics.frechet_distance(s01, s11) - 1.0) < 1e-8
    assert abs(metrics.frechet_distance(s01, s04) - 1.0) < 1e-8


def test_diagonal_closed_form_matches_general_path():
    rng = np.random.default_rng(2)
    for d in range(1, 9):
        mu_a, mu_b = rng.normal(size=d), rng.normal(size=d)
        va, vb = rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d)
        a = metrics.GaussianStats(mu_a, np.diag(va), 10)
        b = metrics.GaussianStats(mu_b, np.diag(vb), 10)
        want = float(((mu_a - mu_b) ** 2).sum() +
                     ((np.sqrt(va) - np.sqrt(vb)) ** 2).sum())
        got = metrics.frechet_distance(a, b)
        assert abs(got - want) < 1e-8, f"d={d}: {got} vs {want}"


def test_distance_symmetry_and_positivity():
    rng = np.random.default_rng(3)
    a = _stats(rng, shift=0.0)
    b = _stats(rng, shift=1.5)
    ab = metrics.frechet_distance(a, b)
    ba = metrics.frechet_distance(b, a)
    assert ab > 0.5
    assert abs(ab - ba) < 1e-8


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(4)
    a = _stats(rng, d=3)
    b = _stats(rng, d=4)
    with pytest.raises(DataError):
        metrics.frechet_distance(a, b)


def test_fid_over_feature_fn():
    rng = np.random.default_rng(5)
    imgs_a = rng.random((20, 8, 8, 3)).astype(np.float32)
    imgs_b = rng.random((20, 8, 8, 3)).astype(np.float32)

    def feat(images):
        return images.reshape(len(images), -1)[:, :6].astype(np.float64)

    same = metrics.fid(imgs_a, imgs_a, feat)
    assert same <= 1e-6
    cross = metrics.fid(imgs_a, imgs_b + 0.5, feat)
    assert cross > same
    # the order of a set does not matter
    perm = rng.permutation(20)
    assert abs(metrics.fid(imgs_a[perm], imgs_b + 0.5, feat) - cross) < 1e-8
    with pytest.raises(DataError, match="feature_fn"):  # one row per image
        metrics.fid(imgs_a, imgs_b, lambda images: feat(images)[0])


def test_fid_separates_disjoint_scene_classes():
    enc = contrastive.build_encoder(contrastive.EncoderConfig(), seed=0)

    def renders(shape, color):
        return np.stack([scenes.render(_spec(shape=shape, color=color, cell=(r, c)))
                         for r in range(2) for c in range(2)] * 3)

    red_circles, blue_squares = renders("circle", "red"), renders("square", "blue")

    def feat(images):
        return contrastive.image_features(enc, images)

    across = metrics.fid(red_circles, blue_squares, feat)
    within = metrics.fid(red_circles[:6], red_circles[6:], feat)
    assert across > within


def test_fid_requires_two_images_per_side():
    imgs = np.random.default_rng(0).random((1, 4, 4, 3)).astype(np.float32)

    def feat(images):
        return images.reshape(len(images), -1)

    with pytest.raises(DataError):
        metrics.fid(imgs, imgs, feat)


def test_metric_record_schema():
    rec = metrics.metric_record("fid", 1.25, 100, 200, "pool", 7)
    assert rec == {"metric": "fid", "value": 1.25, "n_a": 100, "n_b": 200,
                   "feature_fn": "pool", "seed": 7}


# ------------------------------------------------------------------ oracle

def _spec(shape="circle", color="red", cell=(0, 0)):
    return scenes.SceneSpec(objects=(scenes.SceneObject(shape, color, cell),))


def test_oracle_perfect_on_fresh_renders():
    for size in (32, 64):
        for shape in scenes.SHAPES:
            spec = _spec(shape=shape, color="green", cell=(1, 0))
            img = scenes.render(spec, size=size)
            assert metrics.alignment_oracle(img, spec) == 1.0
    rng = np.random.default_rng(5)
    for _ in range(40):
        spec = scenes.sample_spec(rng)
        assert metrics.alignment_oracle(scenes.render(spec), spec) == 1.0


def test_oracle_perfect_on_two_object_scene():
    spec = scenes.SceneSpec(
        objects=(scenes.SceneObject("square", "blue", (0, 0)),
                 scenes.SceneObject("triangle", "yellow", (0, 1))),
        relation="left_of")
    img = scenes.render(spec)
    assert metrics.alignment_oracle(img, spec) == 1.0


def test_oracle_blank_image_scores_zero():
    img = np.ones((32, 32, 3), np.float32)
    assert metrics.alignment_oracle(img, _spec()) == 0.0
    # an all-black image never passes the color assertion
    black = np.zeros((32, 32, 3), np.float32)
    for color in ("red", "green", "orange"):
        assert metrics.alignment_oracle(black, _spec(shape="square", color=color,
                                                     cell=(1, 1))) <= 2 / 3 + 1e-9


def test_oracle_wrong_color_fails_only_color_assertion():
    spec = _spec(color="red")
    img = scenes.render(_spec(color="blue"))
    score = metrics.alignment_oracle(img, spec)
    assert abs(score - 2.0 / 3.0) < 1e-9  # presence and shape hold


def test_oracle_wrong_shape_detected():
    spec = _spec(shape="circle")
    img = scenes.render(_spec(shape="square"))
    score = metrics.alignment_oracle(img, spec)
    assert score < 1.0


def test_oracle_off_palette_fill_fails_color():
    spec = _spec(color="red")
    img = scenes.render(spec)
    fg = np.abs(img - 1.0).max(axis=-1) > 0.25
    img = img.copy()
    img[fg] = np.array([0.55, 0.3, 0.3], np.float32)  # muddy, far from palette red
    assert metrics.alignment_oracle(img, spec) < 1.0


def test_oracle_wrong_cell_fails_presence():
    spec = _spec(cell=(0, 0))
    img = scenes.render(_spec(cell=(1, 1)))
    assert metrics.alignment_oracle(img, spec) < 1.0


def test_oracle_input_validation():
    with pytest.raises(DataError):
        metrics.alignment_oracle(np.ones((31, 32, 3), np.float32), _spec())
    with pytest.raises(DataError):
        metrics.alignment_oracle(np.ones((33, 33, 3), np.float32), _spec())


def test_caption_fidelity_placement_invariant():
    # same caption, non-canonical cell: fidelity stays perfect
    for cell in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        img = scenes.render(_spec(cell=cell))
        assert metrics.caption_fidelity(img, "a red circle") == 1.0


def test_caption_fidelity_relation_constrained():
    # "above" allows either column; both should hit 1.0
    for ca, cb in [((0, 0), (1, 0)), ((0, 1), (1, 1))]:
        spec = scenes.SceneSpec(
            objects=(scenes.SceneObject("circle", "red", ca),
                     scenes.SceneObject("square", "blue", cb)),
            relation="above")
        img = scenes.render(spec)
        assert metrics.caption_fidelity(img, "a red circle above a blue square") == 1.0
    # a side-by-side render cannot satisfy "above" perfectly
    side = scenes.SceneSpec(
        objects=(scenes.SceneObject("circle", "red", (0, 0)),
                 scenes.SceneObject("square", "blue", (0, 1))),
        relation="left_of")
    img = scenes.render(side)
    assert metrics.caption_fidelity(img, "a red circle above a blue square") < 1.0


def test_caption_fidelity_rejects_garbage_caption():
    img = np.ones((32, 32, 3), np.float32)
    with pytest.raises(DataError):
        metrics.caption_fidelity(img, "nonsense words here")
