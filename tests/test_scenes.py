"""Scene grammar, rendering, dataset generation, prompt file loading."""

import numpy as np
import pytest

from ttig import scenes
from ttig.errors import DataError


def _spec1(shape="circle", color="red", cell=(0, 0)):
    return scenes.SceneSpec(objects=(scenes.SceneObject(shape, color, cell),))


def test_render_is_deterministic_and_in_range():
    spec = _spec1()
    a = scenes.render(spec)
    b = scenes.render(spec)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (32, 32, 3) and a.dtype == np.float32
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_render_uses_exact_palette_fill():
    img = scenes.render(_spec1(color="red"))
    want = np.asarray(scenes.PALETTE["red"], np.float32) / 255.0
    fg = np.abs(img - 1.0).max(axis=-1) > 0.25
    assert fg.any()
    np.testing.assert_array_equal(img[fg], np.tile(want, (fg.sum(), 1)))


def test_render_scales_to_other_sizes():
    img = scenes.render(_spec1(), size=64)
    assert img.shape == (64, 64, 3)
    with pytest.raises(DataError):
        scenes.render(_spec1(), size=33)


def test_caption_parse_caption_roundtrip_single():
    spec = _spec1("triangle", "cyan")
    text = scenes.caption(spec)
    assert text == "a cyan triangle"
    back = scenes.parse_caption(text)
    o = back.objects[0]
    assert (o.shape, o.color) == ("triangle", "cyan")


def test_caption_roundtrip_all_relations():
    for rel in scenes.RELATIONS:
        ca, cb = scenes._CANONICAL[rel]
        spec = scenes.SceneSpec(
            objects=(scenes.SceneObject("square", "blue", ca),
                     scenes.SceneObject("circle", "green", cb)),
            relation=rel)
        back = scenes.parse_caption(scenes.caption(spec))
        assert back.relation == rel
        assert back.objects[0].shape == "square" and back.objects[1].color == "green"
        assert scenes.caption(back) == scenes.caption(spec)


def test_parse_caption_rejects_garbage():
    for bad in ("", "red circle", "a red blob", "a red circle sideways a blue square",
                "a red circle above a blue square extra"):
        with pytest.raises(DataError):
            scenes.parse_caption(bad)


def test_spec_validation_rules():
    with pytest.raises(DataError):
        _spec1(shape="hexagon").validate()
    with pytest.raises(DataError):
        _spec1(color="beige").validate()
    with pytest.raises(DataError):
        _spec1(cell=(2, 0)).validate()
    # relation direction must match the cells
    with pytest.raises(DataError):
        scenes.SceneSpec(
            objects=(scenes.SceneObject("circle", "red", (0, 1)),
                     scenes.SceneObject("circle", "blue", (0, 0))),
            relation="left_of").validate()


def test_glyph_masks_disjoint_shapes():
    sq = scenes.glyph_mask("square", 16)
    ci = scenes.glyph_mask("circle", 16)
    tr = scenes.glyph_mask("triangle", 16)
    assert sq.sum() > 0 and ci.sum() > 0 and tr.sum() > 0
    assert (sq != ci).any() and (sq != tr).any() and (ci != tr).any()


def test_glyph_mask_is_one_shared_read_only_array():
    mask = scenes.glyph_mask("triangle", 8)
    assert scenes.glyph_mask("triangle", 8) is mask
    assert mask.dtype == bool and mask.shape == (8, 8)
    with pytest.raises(ValueError):
        mask[4, 4] = False
    img = scenes.render(_spec1(shape="triangle"), size=16)  # render only reads it
    assert mask[4, 4] and (img[:8, :8][mask] == [1, 0, 0]).all()
    for _ in range(2):
        with pytest.raises(DataError, match="hexagon"):
            scenes.glyph_mask("hexagon", 8)


def test_sample_spec_draws_valid_scenes():
    rng = np.random.default_rng(0)
    for _ in range(200):
        scenes.sample_spec(rng).validate()


def test_gen_dataset_deterministic_and_excludes():
    ds1 = scenes.gen_dataset(32, 5)
    ds2 = scenes.gen_dataset(32, 5)
    np.testing.assert_array_equal(ds1.images, ds2.images)
    assert ds1.captions == ds2.captions
    banned = set(ds1.captions[:3])
    ds3 = scenes.gen_dataset(32, 5, exclude_captions=banned)
    assert not banned & set(ds3.captions)
    assert len(ds3) == 32


def test_gen_dataset_images_match_specs():
    ds = scenes.gen_dataset(8, 1)
    for spec, cap, img in zip(ds.specs, ds.captions, ds.images):
        assert scenes.caption(spec) == cap
        np.testing.assert_array_equal(scenes.render(spec), img)


@pytest.mark.parametrize("size", [32, 64])
def test_gen_dataset_images_are_the_stacked_renders(size):
    ds = scenes.gen_dataset(40, 3, size=size)
    want = np.stack([scenes.render(spec, size) for spec in ds.specs])
    assert ds.images.dtype == want.dtype and ds.images.shape == want.shape
    assert ds.images.tobytes() == want.tobytes()


def test_gen_dataset_rejects_a_size_off_the_grid():
    with pytest.raises(DataError):
        scenes.gen_dataset(2, 0, size=33)


@pytest.mark.parametrize("n", [0, -3])
def test_gen_dataset_of_no_scenes_is_a_data_error(n):
    with pytest.raises(DataError, match=f"^a dataset needs at least one scene, got n={n}$"):
        scenes.gen_dataset(n, 0)


def test_split_captions_partitions_the_space():
    train, held = scenes.split_captions(0, 0.15)
    all_caps = scenes.all_captions()
    assert sorted(train + held) == sorted(all_caps)
    assert not set(train) & set(held)
    assert abs(len(held) / len(all_caps) - 0.15) < 0.01
    t2, h2 = scenes.split_captions(0, 0.15)
    assert t2 == train and h2 == held  # same seed, same split
    t3, _ = scenes.split_captions(1, 0.15)
    assert t3 != train


def test_all_captions_covers_grammar():
    caps = scenes.all_captions()
    n_colors, n_shapes = len(scenes.PALETTE), len(scenes.SHAPES)
    single = n_colors * n_shapes
    pairs = single * single * len(scenes.RELATIONS)
    assert len(caps) == single + pairs
    assert len(set(caps)) == len(caps)


def test_load_prompts_reads_tsv(tmp_path):
    p = tmp_path / "p.tsv"
    p.write_text("Prompt\tCategory\tChallenge\n"
                 "a dog\tAnimals\tBasic\n"
                 "two cars\tVehicles\tQuantity\n")
    rows = scenes.load_prompts(p)
    assert len(rows) == 2
    assert rows[0].prompt == "a dog" and rows[0].category == "Animals"
    assert rows[1].challenge == "Quantity"


def test_load_prompts_rejects_malformed(tmp_path):
    cases = [
        "Prompt\tCategory\n a\tb\n",                      # wrong header
        "Prompt\tCategory\tChallenge\nonly two\tcols\n",  # short row
        "Prompt\tCategory\tChallenge\na\tNotACategory\tBasic\n",
        "Prompt\tCategory\tChallenge\na\tAnimals\tNotAChallenge\n",
        "Prompt\tCategory\tChallenge\n\tAnimals\tBasic\n",  # empty prompt
    ]
    for i, content in enumerate(cases):
        f = tmp_path / f"bad{i}.tsv"
        f.write_text(content)
        with pytest.raises(DataError):
            scenes.load_prompts(f)
