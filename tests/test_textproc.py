"""Subword tokenizer: determinism, roundtrips, clipping, persistence, and
equality with the straightforward list-of-bytes BPE kept below as reference."""

import hashlib
import random
from collections import Counter, defaultdict

import pytest

from ttig import scenes
from ttig import textproc as tp
from ttig.errors import DataError

CORPUS = [
    "a red circle above a blue square",
    "a green triangle next to a yellow circle",
    "a purple square",
    "a cyan circle above a magenta triangle",
]


def test_special_ids_fixed():
    assert tp.PAD_ID == 0 and tp.BOS_ID == 1 and tp.EOS_ID == 2 and tp.UNK_ID == 3


def test_train_bpe_deterministic():
    v1 = tp.train_bpe(CORPUS, vocab_size=300)
    v2 = tp.train_bpe(CORPUS, vocab_size=300)
    assert v1.merges == v2.merges
    assert v1.tokens == v2.tokens


def test_vocab_size_lower_bound():
    with pytest.raises(DataError):
        tp.train_bpe(CORPUS, vocab_size=100)


def _joined(v, ids):
    """The text the ids spell: their token bytes joined, as UTF-8."""
    return b"".join(v.tokens[i] for i in ids).decode("utf-8")


def test_encode_decode_roundtrip_on_corpus():
    v = tp.train_bpe(CORPUS, vocab_size=320)
    for s in CORPUS:
        assert _joined(v, tp.encode(v, s)) == s


def test_encode_decode_roundtrip_on_unseen_text():
    v = tp.train_bpe(CORPUS, vocab_size=300)
    s = "an orange hexagon under two circles"
    assert _joined(v, tp.encode(v, s)) == s  # byte fallback covers any input


def test_merges_shrink_token_count():
    v = tp.train_bpe(CORPUS, vocab_size=400)
    s = CORPUS[0]
    assert len(tp.encode(v, s)) < len(s.encode("utf-8"))


def test_encode_clipped_frames_and_truncates():
    v = tp.train_bpe(CORPUS, vocab_size=300)
    ids = tp.encode_clipped(v, CORPUS[0], 64)
    assert ids[0] == tp.BOS_ID and ids[-1] == tp.EOS_ID
    short = tp.encode_clipped(v, CORPUS[0], 5)
    assert len(short) == 5 and short[0] == tp.BOS_ID and short[-1] == tp.EOS_ID


def test_pad_to_appends_pad_id():
    out = tp.pad_to([5, 6], 6)
    assert out == [5, 6, 0, 0, 0, 0]


def test_vocab_save_load_roundtrip(tmp_path):
    v = tp.train_bpe(CORPUS, vocab_size=333)
    tp.save_vocab(v, tmp_path / "v.json")
    v2 = tp.load_vocab(tmp_path / "v.json")
    assert v2.merges == v.merges and v2.tokens == v.tokens
    s = "a cyan circle above a magenta triangle"
    assert tp.encode(v2, s) == tp.encode(v, s)


def test_load_vocab_rejects_bad_header(tmp_path):
    (tmp_path / "bad.json").write_text("not a vocab\n")
    with pytest.raises(DataError):
        tp.load_vocab(tmp_path / "bad.json")


def test_saved_vocab_holds_its_merges_alone(tmp_path):
    v = tp.train_bpe(CORPUS, vocab_size=300)
    tp.save_vocab(v, tmp_path / "v.json")
    lines = (tmp_path / "v.json").read_text().splitlines()
    assert lines[:2] == ["bpe v2", f"merges {len(v.merges)}"]
    assert lines[2:] == [f"{l.hex()} {r.hex()}" for l, r in v.merges]


def test_load_vocab_rejects_a_bpe_v1_file(tmp_path):
    # the layout before v2: a vocab_size line, and the token table after
    # the merges
    v = tp.train_bpe(CORPUS, vocab_size=300)
    lines = ["bpe v1", f"vocab_size {len(v.tokens)}", f"merges {len(v.merges)}",
             *(f"{l.hex()} {r.hex()}" for l, r in v.merges), f"tokens {len(v.tokens)}",
             *(f"{i} {name}" for i, name in enumerate(("PAD", "BOS", "EOS", "UNK"))),
             *(f"{i} {tok.hex()}" for i, tok in enumerate(v.tokens) if i >= tp.N_SPECIALS)]
    path = tmp_path / "v1.json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        tp.load_vocab(path)
    assert str(err.value) == f"vocab file {path}: bad header 'bpe v1'"


def test_load_vocab_rejects_crlf_line_ends(tmp_path):
    tp.save_vocab(tp.train_bpe(CORPUS, vocab_size=300), tmp_path / "v.json")
    path = tmp_path / "crlf.json"
    path.write_bytes((tmp_path / "v.json").read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(DataError) as err:
        tp.load_vocab(path)
    assert str(err.value) == f"vocab file {path}: bad header 'bpe v2\\r'"


@pytest.mark.parametrize("kept", [0, 1, -1])
def test_load_vocab_rejects_a_file_cut_between_merge_lines(tmp_path, kept):
    v = tp.train_bpe(CORPUS, vocab_size=300)
    tp.save_vocab(v, tmp_path / "v.json")
    lines = (tmp_path / "v.json").read_text().splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if ln.startswith("merges "))
    kept %= len(v.merges)  # -1: all but the last
    (tmp_path / "v.json").write_text("".join(lines[:k + 1 + kept]))
    with pytest.raises(DataError) as err:
        tp.load_vocab(tmp_path / "v.json")
    assert str(err.value) == (f"vocab file {tmp_path / 'v.json'}: line 2 reads "
                              f"'merges {len(v.merges)}', but {kept} merge lines follow it")


# ---------------------------------------------------------------------------
# reference: BPE over lists of byte strings, rescanning every pair per merge
# and the whole word per applied merge

def _reference_train_bpe(corpus, vocab_size: int = 512) -> tp.Vocab:
    """Learn merges on an iterable of strings. vocab_size >= 260."""
    if vocab_size < tp.MIN_VOCAB:
        raise DataError(f"vocab_size must be >= {tp.MIN_VOCAB}, got {vocab_size}")
    seq_mult = Counter(corpus)
    seqs = [[bytes([b]) for b in s.encode("utf-8")] for s in seq_mult]
    weights = list(seq_mult.values())

    pair_counts = Counter()
    pair_where = defaultdict(set)

    def scan(i, sign):
        w = weights[i] * sign
        s = seqs[i]
        for p in zip(s, s[1:]):
            pair_counts[p] += w
            if sign > 0:
                pair_where[p].add(i)

    for i in range(len(seqs)):
        scan(i, +1)

    merges = []
    taken = set()
    while len(merges) < vocab_size - tp.MIN_VOCAB:
        best = None
        for p, c in pair_counts.items():
            if c < 2 or p in taken:
                continue
            if best is None or c > best[0] or (c == best[0] and p < best[1]):
                best = (c, p)
        if best is None:
            break  # no pair repeats anywhere
        pair = best[1]
        merges.append(pair)
        taken.add(pair)
        fused = pair[0] + pair[1]
        for i in list(pair_where[pair]):
            scan(i, -1)
            s = seqs[i]
            t = []
            j = 0
            while j < len(s):
                if j + 1 < len(s) and s[j] == pair[0] and s[j + 1] == pair[1]:
                    t.append(fused)
                    j += 2
                else:
                    t.append(s[j])
                    j += 1
            seqs[i] = t
            scan(i, +1)

    return tp.Vocab(merges)


def _reference_bpe_word(vocab: tp.Vocab, text: str):
    word = [bytes([b]) for b in text.encode("utf-8")]
    ranks = {pair: i for i, pair in enumerate(vocab.merges)}
    while len(word) >= 2:
        best = None
        for p in zip(word, word[1:]):
            r = ranks.get(p)
            if r is not None and (best is None or r < best[0]):
                best = (r, p)
        if best is None:
            break
        l, r = best[1]
        fused = l + r
        t = []
        j = 0
        while j < len(word):
            if j + 1 < len(word) and word[j] == l and word[j + 1] == r:
                t.append(fused)
                j += 2
            else:
                t.append(word[j])
                j += 1
        word = t
    return word


def _reference_encode(vocab, text):
    return [vocab._ids[tok] for tok in _reference_bpe_word(vocab, text)]


def _vocab_bytes(vocab, path):
    tp.save_vocab(vocab, path)
    return path.read_bytes()


def _assert_same_as_reference(corpus, vocab_size, tmp_path, texts=()):
    got = tp.train_bpe(corpus, vocab_size)
    want = _reference_train_bpe(corpus, vocab_size)
    assert got.merges == want.merges
    assert got.tokens == want.tokens
    assert _vocab_bytes(got, tmp_path / "got.json") == _vocab_bytes(want, tmp_path / "want.json")
    for text in [*dict.fromkeys(corpus), *texts]:
        assert tp.encode(got, text) == _reference_encode(want, text), text
    return got


def _train_corpus(seed):
    _, held = scenes.split_captions()
    return scenes.gen_dataset(512, seed, exclude_captions=held).captions


def _random_text(rng, alphabet, longest):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))


@pytest.mark.parametrize("seed", range(1, 11))
def test_bpe_matches_reference_on_train_corpora(seed, tmp_path):
    unseen = ["a beige octagon \u00e9\u20ac\u65e5", "\x00\x7f~|", ""]
    _assert_same_as_reference(_train_corpus(seed), 512, tmp_path, unseen)


def test_bpe_matches_reference_on_all_captions(tmp_path):
    _assert_same_as_reference(scenes.all_captions(), 512, tmp_path)


def test_bpe_matches_reference_on_random_small_alphabet_corpora(tmp_path):
    rng = random.Random(7)
    alphabet = "ab c\u00e9"  # a space and one two-byte character
    for _ in range(320):
        letters = alphabet[:rng.randint(2, len(alphabet))]
        corpus = [_random_text(rng, letters, 30) for _ in range(rng.randint(1, 12))]
        texts = [_random_text(rng, alphabet + "xy", 40) for _ in range(10)]
        _assert_same_as_reference(corpus, rng.choice([260, 261, 265, 280, 320, 600]),
                                  tmp_path, texts)


@pytest.mark.parametrize("corpus", [["aaaa"], ["abab"], ["aaa", "aaaaa"],
                                    ["ababab", "abab", "bababa"], ["aaaa"] * 3])
@pytest.mark.parametrize("vocab_size", [261, 262, 300])
def test_bpe_matches_reference_on_overlapping_runs(corpus, vocab_size, tmp_path):
    texts = ["a" * n for n in range(9)] + ["ab" * n + "a" for n in range(5)]
    _assert_same_as_reference(corpus, vocab_size, tmp_path, texts)


def test_training_stops_early_when_no_pair_repeats(tmp_path):
    v = _assert_same_as_reference(["abc", "def"], 300, tmp_path, ["abcdef"])
    assert v.merges == [] and len(v.tokens) == tp.MIN_VOCAB


def test_encode_matches_reference_on_random_strings():
    corpus = _train_corpus(1)
    got, want = tp.train_bpe(corpus, 512), _reference_train_bpe(corpus, 512)
    rng = random.Random(3)
    alphabet = "".join(sorted(set("".join(corpus)))) + "\u00e9\u20ac\t"
    for _ in range(2000):
        text = _random_text(rng, alphabet, 60)
        assert tp.encode(got, text) == _reference_encode(want, text), text


def test_encode_matches_reference_on_a_hand_built_vocab():
    # "abc" is made twice; in "abcd" the second making, (ab, c), gives a pair
    # that an earlier rank, (abc, d), reads. (e, e) is listed twice, and its
    # last rank counts: "eef" is e + ef.
    merges = [(b"a", b"b"), (b"b", b"c"), (b"a", b"bc"), (b"abc", b"d"), (b"ab", b"c"),
              (b"d", b"abc"), (b"e", b"e"), (b"e", b"f"), (b"e", b"e")]
    v = tp.Vocab(merges)
    ids = v._ids
    assert tp.encode(v, "abcd") == [ids[b"abcd"]]
    assert tp.encode(v, "eef") == [ids[b"e"], ids[b"ef"]]
    rng = random.Random(5)
    for _ in range(3000):
        text = _random_text(rng, "abcdef", 30)
        assert tp.encode(v, text) == _reference_encode(v, text), text


def test_seed_1_vocab_fingerprint(tmp_path):
    # the bpe v1 file's digest was 2cd07adf61c6...; this is that file with
    # its header made "bpe v2" and its vocab_size line and token table dropped
    v = tp.train_bpe(_train_corpus(1), 512)
    digest = hashlib.sha256(_vocab_bytes(v, tmp_path / "v.json")).hexdigest()
    assert digest == "6c7a187238cfa9d43f1a472c7e8f7d0edac9ae85f589c073f69297c9ffdfe234"
