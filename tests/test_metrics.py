"""Distribution distance math and the rendering-aware alignment oracle."""

import numpy as np
import pytest

from ttig import contrastive, metrics, pngio, scenes
from ttig.errors import DataError


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
            img = scenes.render(_spec(shape=shape, color="green", cell=(1, 0)), size=size)
            assert metrics.caption_fidelity(img, f"a green {shape}") == 1.0
    rng = np.random.default_rng(5)
    for _ in range(40):
        spec = scenes.sample_spec(rng)
        assert metrics.caption_fidelity(scenes.render(spec), scenes.caption(spec)) == 1.0


def test_oracle_perfect_on_two_object_scene():
    spec = scenes.SceneSpec(
        objects=(scenes.SceneObject("square", "blue", (0, 0)),
                 scenes.SceneObject("triangle", "yellow", (0, 1))),
        relation="left_of")
    img = scenes.render(spec)
    assert metrics.caption_fidelity(img, "a blue square to the left of a yellow triangle") == 1.0


def test_oracle_blank_image_scores_zero():
    img = np.ones((32, 32, 3), np.float32)
    assert metrics.caption_fidelity(img, "a red circle") == 0.0
    # an all-black image never passes the color assertion
    black = np.zeros((32, 32, 3), np.float32)
    for color in ("red", "green", "orange"):
        assert metrics.caption_fidelity(black, f"a {color} square") <= 2 / 3 + 1e-9


def test_oracle_wrong_color_fails_only_color_assertion():
    img = scenes.render(_spec(color="blue"))
    score = metrics.caption_fidelity(img, "a red circle")
    assert abs(score - 2.0 / 3.0) < 1e-9  # presence and shape hold


def test_oracle_wrong_shape_detected():
    img = scenes.render(_spec(shape="square"))
    assert metrics.caption_fidelity(img, "a red circle") < 1.0


def test_oracle_off_palette_fill_fails_color():
    img = scenes.render(_spec(color="red"))
    fg = np.abs(img - 1.0).max(axis=-1) > 0.25
    img = img.copy()
    img[fg] = np.array([0.55, 0.3, 0.3], np.float32)  # muddy, far from palette red
    assert metrics.caption_fidelity(img, "a red circle") < 1.0


def test_oracle_input_validation():
    with pytest.raises(DataError):
        metrics.caption_fidelity(np.ones((31, 32, 3), np.float32), "a red circle")
    with pytest.raises(DataError):
        metrics.caption_fidelity(np.ones((33, 33, 3), np.float32), "a red circle")


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


# ------------------------------------------- oracle against its per-placement form

def _reference_oracle(image, spec):
    """The oracle as one call per placement: everything recomputed per object."""
    spec.validate()
    image = np.asarray(image, dtype=np.float32)
    cell_px = image.shape[0] // scenes.GRID
    glyphs = {s: scenes.glyph_mask(s, cell_px) for s in scenes.SHAPES}
    palette = {name: np.asarray(rgb, dtype=np.float32) / 255.0
               for name, rgb in scenes.PALETTE.items()}
    passed = 0
    for obj in spec.objects:
        r0, c0 = obj.cell[0] * cell_px, obj.cell[1] * cell_px
        region = image[r0:r0 + cell_px, c0:c0 + cell_px]
        fg = np.linalg.norm(region - 1.0, axis=-1) > metrics._FG_TOL
        footprint = glyphs[obj.shape]
        coverage = float(fg[footprint].mean()) if footprint.any() else 0.0
        present = coverage >= metrics._PRESENCE_FLOOR
        best, best_iou = None, -1.0
        for name, mask in glyphs.items():
            union = float(np.logical_or(fg, mask).sum())
            iou = float(np.logical_and(fg, mask).sum()) / union if union else 0.0
            if iou > best_iou:
                best, best_iou = name, iou
        shape_ok = fg.any() and best == obj.shape
        mean_rgb = region[footprint].mean(axis=0)
        dists = {name: float(np.linalg.norm(mean_rgb - rgb))
                 for name, rgb in palette.items()}
        nearest = min(sorted(dists), key=lambda nm: dists[nm])
        color_ok = nearest == obj.color and dists[obj.color] <= metrics._COLOR_TOL
        passed += int(present) + int(shape_ok) + int(color_ok)
    return passed / (3 * len(spec.objects))


def _reference_fidelity(image, caption):
    return max(_reference_oracle(image, s)
               for s in metrics._placements(scenes.parse_caption(caption)))


def _oracle_groups():
    """(caption, spec of each image, (8, size, size, 3) images) groups, 2,048
    images in all, half at 16 px and half at 32: clean renders, noisy renders
    (float and 8-bit), uniform noise, fills whose mean lies within 1e-3 of
    _COLOR_TOL from a palette entry, fills at or near the midpoint of two
    entries, and footprints painted over half their pixels, give or take one."""
    rng = np.random.default_rng(0)
    palette = {nm: np.asarray(rgb, np.float32) / 255.0
               for nm, rgb in scenes.PALETTE.items()}
    groups = []
    for kind in range(256):
        spec = scenes.sample_spec(rng)
        caption = scenes.caption(spec)
        # seven random legal layouts of the caption, then the drawn one
        layouts = list(metrics._placements(scenes.parse_caption(caption)))
        specs = [layouts[i] for i in rng.integers(len(layouts), size=7)] + [spec]
        size, mode = (16 if kind // 8 % 2 else 32), kind % 8
        images = np.stack([scenes.render(s, size) for s in specs])
        if mode in (1, 2):
            images = images + rng.normal(0, 0.1 * mode, images.shape)
        if mode == 2:
            images = pngio.to_uint8(np.clip(images, 0, 1)) / np.float32(255)
        if mode == 3:
            images = rng.random(images.shape)
        cell_px = size // scenes.GRID
        if mode >= 4:
            for img, s in zip(images, specs):
                for obj in s.objects:
                    r0, c0 = obj.cell[0] * cell_px, obj.cell[1] * cell_px
                    region = img[r0:r0 + cell_px, c0:c0 + cell_px]
                    footprint = scenes.glyph_mask(obj.shape, cell_px)
                    if mode == 7:
                        rows, cols = np.nonzero(footprint)
                        keep = len(rows) // 2 + rng.integers(-1, 2)
                        region[rows[keep:], cols[keep:]] = 1.0
                        continue
                    if mode == 6:
                        other = palette[scenes.COLOR_NAMES[rng.integers(8)]]
                        fill = (palette[obj.color] + other) / 2
                        fill = fill + rng.choice([0, 1e-4]) * rng.normal(size=3)
                    else:
                        u = rng.normal(size=3)
                        step = metrics._COLOR_TOL + rng.choice(
                            [-1e-3, -1e-7, 0.0, 1e-7, 1e-3]) * rng.random()
                        fill = palette[obj.color] + step * u / np.linalg.norm(u)
                    region[footprint] = fill
        groups.append((caption, specs, np.asarray(images, dtype=np.float32)))
    return groups


def test_oracle_equals_its_per_placement_form_on_2048_images():
    groups = _oracle_groups()
    assert sum(len(images) for _, _, images in groups) == 2048
    for caption, specs, images in groups:
        want = [_reference_fidelity(img, caption) for img in images]
        got = metrics.caption_fidelities(images, caption)
        assert got.dtype == np.float64 and got.shape == (len(images),)
        assert got.tolist() == want, caption
        # the one-image form, on two images of each group, one of them at the
        # placement it was drawn at, which is among those the score is best over
        for img, spec, score in list(zip(images, specs, want))[-2:]:
            assert metrics.caption_fidelity(img, caption) == score
            assert _reference_oracle(img, spec) <= score


def test_caption_fidelities_input_validation():
    with pytest.raises(DataError):
        metrics.caption_fidelities(np.ones((2, 33, 33, 3), np.float32), "a red circle")
    with pytest.raises(DataError):
        metrics.caption_fidelities(np.ones((2, 32, 32, 3), np.float32), "a red blob")
    # a one-image call is told about the shape it passed
    with pytest.raises(DataError, match=r"a square \(size, size, 3\) image, got \(32, 31, 3\)"):
        metrics.caption_fidelity(np.ones((32, 31, 3), np.float32), "a red circle")
    with pytest.raises(DataError, match=r"a square \(size, size, 3\) image, got \(2, 32, 32, 3\)"):
        metrics.caption_fidelity(np.ones((2, 32, 32, 3), np.float32), "a red circle")
    with pytest.raises(DataError, match=r"\(n, size, size, 3\) images, got \(32, 32, 3\)"):
        metrics.caption_fidelities(np.ones((32, 32, 3), np.float32), "a red circle")
