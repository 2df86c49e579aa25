"""Byte-level BPE subword tokenizer.

Ids 0..3 are specials (PAD, BOS, EOS, UNK), 4..259 are the raw bytes, and
everything above comes from merges learned greedily on a corpus: repeatedly
fuse the most frequent adjacent token pair, ties broken by the
lexicographically smallest (left_bytes, right_bytes) pair. UNK is reserved
but unreachable through encode() since every byte has an id.

Training and encoding both work on strings with one character per token
(byte b is chr(b)), so a merge is str.replace(left + right, fused): the
left-to-right, non-overlapping rewrite. Training keeps weighted pair counts
over the distinct captions and, per merge, updates only the pairs around
each merge site, taking the next merge from a lazily invalidated heap.
Encoding applies the merges in rank order, each as one replace.

A vocab is its merges: the token table (merge k makes id MIN_VOCAB + k) and
the id lookup follow from them, so a saved vocab holds only a header, the
merge count and the merges.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import add

from .errors import DataError

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
N_SPECIALS = 4
MIN_VOCAB = N_SPECIALS + 256


@dataclass
class Vocab:
    merges: list  # [(left_bytes, right_bytes), ...] in training order
    tokens: list = field(init=False)  # token bytes by id; specials hold b""
    _ids: dict = field(init=False, repr=False)  # token bytes -> its first id
    _cache: dict = field(default_factory=dict, init=False, repr=False)
    _rules: list = field(init=False, repr=False)

    def __post_init__(self):
        self.tokens = [b""] * N_SPECIALS + [bytes([b]) for b in range(256)]
        self.tokens.extend(l + r for l, r in self.merges)
        self._ids = {}
        for i in range(N_SPECIALS, len(self.tokens)):
            self._ids.setdefault(self.tokens[i], i)
        self._rules = _rewrite_rules(self.merges, self._ids)


def _one_char(text: str) -> str:
    """UTF-8 bytes of text, one character per byte (byte b is chr(b))."""
    return text.encode("utf-8").decode("latin-1")


def train_bpe(corpus, vocab_size: int = 512) -> Vocab:
    """Learn merges on an iterable of strings. vocab_size >= 260."""
    if vocab_size < MIN_VOCAB:
        raise DataError(f"vocab_size must be >= {MIN_VOCAB}, got {vocab_size}")
    seq_mult = Counter(corpus)
    seqs = [_one_char(s) for s in seq_mult]
    weights = list(seq_mult.values())
    tok_of = [bytes([b]) for b in range(256)]  # token bytes by character code
    char_of = {tok: chr(b) for b, tok in enumerate(tok_of)}

    counts = defaultdict(int)  # pair string -> weighted count
    where = defaultdict(set)  # pair string -> sequences that held it
    for i, s in enumerate(seqs):
        w = weights[i]
        for p in map(add, s, s[1:]):
            counts[p] += w
            where[p].add(i)

    def entry(p):
        return (-counts[p], (tok_of[ord(p[0])], tok_of[ord(p[1])]), p)

    heap = [entry(p) for p, c in counts.items() if c >= 2]
    heapify(heap)
    merges = []
    taken = set()
    while len(merges) < vocab_size - MIN_VOCAB:
        while heap:
            neg, pair, p = heappop(heap)
            if -neg == counts[p] and p not in taken:
                break
        else:
            break  # no pair repeats anywhere
        merges.append(pair)
        taken.add(p)
        fused = pair[0] + pair[1]
        t = char_of.get(fused)
        if t is None:
            t = char_of[fused] = chr(len(tok_of))
            tok_of.append(fused)
        delta = defaultdict(int)  # count changes; p's own count is never read again
        for i in where.pop(p):
            s = seqs[i]
            j = s.find(p)
            if j < 0:
                continue
            w = weights[i]
            seqs[i] = new = s.replace(p, t)
            k, prev = 0, -2  # occurrences so far; old index of the last one
            while j >= 0:
                # the occurrence at old index j is t at new index q; a left
                # pair shared with the previous occurrence was counted there
                q = j - k
                if j and j != prev + 2:
                    delta[s[j - 1:j + 1]] -= w
                    a = new[q - 1:q + 1]
                    delta[a] += w
                    where[a].add(i)
                if j + 2 < len(s):
                    delta[s[j + 1:j + 3]] -= w
                if q + 1 < len(new):
                    a = new[q:q + 2]
                    delta[a] += w
                    where[a].add(i)
                k, prev = k + 1, j
                j = s.find(p, j + 2)
        for c, d in delta.items():
            if d:
                counts[c] += d
                if counts[c] >= 2 and c not in taken:
                    heappush(heap, entry(c))

    return Vocab(merges)


def _rewrite_rules(merges, ids) -> list:
    """(pair string, fused character, resume rank) per merge, in rank order,
    over the characters chr(id - N_SPECIALS). The resume rank is the first
    rule that reads the fused character; it lies below the rule's own rank
    only when an earlier merge already made the same bytes."""
    ch = {tok: chr(i - N_SPECIALS) for tok, i in ids.items()}
    last = {pair: k for k, pair in enumerate(merges)}  # a repeated pair ranks last
    rules = [(ch[l] + ch[r], ch[l + r]) for k, (l, r) in enumerate(merges)
             if last[l, r] == k and l in ch and r in ch]
    first = {}
    for k, (pair, _) in enumerate(rules):
        for c in pair:
            first.setdefault(c, k)
    return [(pair, t, first.get(t, k)) for k, (pair, t) in enumerate(rules)]


def _rewrite(rules, s: str) -> str:
    """Apply the lowest-rank present merge until none is present. A merge
    only makes pairs holding its fused character, so the scan goes on from
    the next rank, or resumes lower when an older merge reads that character."""
    k, n = 0, len(rules)
    while k < n:
        pair, t, back = rules[k]
        if pair in s:
            s = s.replace(pair, t)
            if back < k:
                k = back
                continue
        k += 1
    return s


def encode(vocab: Vocab, text: str) -> list:
    """Text to ids, no specials added. Deterministic; cached per string."""
    hit = vocab._cache.get(text)
    if hit is not None:
        return list(hit)
    ids = [ord(c) + N_SPECIALS for c in _rewrite(vocab._rules, _one_char(text))]
    if len(vocab._cache) < 65536:
        vocab._cache[text] = tuple(ids)
    return ids


def encode_clipped(vocab: Vocab, text: str, max_len: int) -> list:
    """BOS + ids + EOS, truncated to max_len with EOS kept last."""
    ids = [BOS_ID] + encode(vocab, text) + [EOS_ID]
    if len(ids) > max_len:
        ids = ids[:max_len - 1] + [EOS_ID]
    return ids


def pad_to(ids, max_len: int) -> list:
    return list(ids) + [PAD_ID] * (max_len - len(ids))


def save_vocab(vocab: Vocab, path):
    """Text format: the header, the merge count, then one merge per line
    (its left and right bytes in hex). The count tells a cut file from a
    smaller vocab."""
    lines = ["bpe v2", f"merges {len(vocab.merges)}"]
    lines.extend(f"{l.hex()} {r.hex()}" for l, r in vocab.merges)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_vocab(path) -> Vocab:
    """Raises DataError, naming path, for a file that is not a saved vocab."""
    def bad(msg):
        return DataError(f"vocab file {path}: {msg}")

    try:
        # newline="\n": only "\n" ends a line, as the writer writes it
        with open(path, encoding="utf-8", newline="\n") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise bad(f"not UTF-8 text: {e}") from None
    if not text.endswith("\n"):
        raise bad("does not end with a newline")
    lines = text[:-1].split("\n")
    try:
        if lines[0] != "bpe v2":
            raise bad(f"bad header {lines[0]!r}")
        if lines[1] != f"merges {len(lines) - 2}":
            raise bad(f"line 2 reads {lines[1]!r}, but {len(lines) - 2} "
                      f"merge lines follow it")
        merges = []
        for ln in lines[2:]:
            l, r = ln.split(" ")
            merges.append((bytes.fromhex(l), bytes.fromhex(r)))
    except (IndexError, ValueError) as e:
        raise bad(f"malformed: {e}") from e
    return Vocab(merges)
