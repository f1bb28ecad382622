from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcil import HashingEncoder, encoder_from_config
from kgcil.encoders import fnv1a_64


class TestFnv:
    # published 64-bit FNV-1a reference values
    def test_reference_vectors(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8


class TestHashingEncoder:
    def test_unit_norm(self):
        # no normalization: each token adds one unit to its bucket's count
        enc = HashingEncoder(256)
        vec = enc.encode("granny_smith IsA fruit fruit")
        assert vec.shape == (256,) and vec.dtype == np.float64
        assert vec.sum() == 5.0
        assert sorted(vec[vec.nonzero()].tolist()) == [1.0, 1.0, 1.0, 2.0]

    def test_empty_text_zero_vector(self):
        enc = HashingEncoder(64)
        assert not enc.encode("").any()
        assert not enc.encode(" .,; ").any()

    def test_golden_vector(self):
        # frozen from the first run of this configuration on token counts
        vec = HashingEncoder(256).encode("granny_smith IsA fruit")
        nonzero = ",".join(f"{i}:{vec[i]:g}" for i in vec.nonzero()[0])
        assert nonzero == "16:1,177:1,178:1,220:1"
        digest = hashlib.sha256(nonzero.encode()).hexdigest()
        assert digest == "603f62c8fe1ba01ba29dc483e2e9782d258b93f404f733623ad3a649690b3ccc"

    def test_tokens_split_on_non_alphanumerics(self):
        enc = HashingEncoder(128)
        assert np.allclose(enc.encode("granny_smith"), enc.encode("granny smith"))
        assert np.allclose(enc.encode("a-b"), enc.encode("a b"))

    def test_case_folded(self):
        enc = HashingEncoder(128)
        assert np.allclose(enc.encode("IsA Fruit"), enc.encode("isa fruit"))

    def test_disjoint_tokens_orthogonal(self):
        enc = HashingEncoder(256)
        assert enc.encode("pineapple") @ enc.encode("granny smith") == 0.0

    def test_overlap_monotone(self):
        enc = HashingEncoder(256)
        anchor = enc.encode("alpha beta gamma")
        closer = anchor @ enc.encode("alpha beta")
        farther = anchor @ enc.encode("alpha delta")
        assert closer == 2.0 and farther == 1.0

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            HashingEncoder(0)

    def test_config_roundtrip(self):
        enc = encoder_from_config({"id": "hashing", "dimension": 64})
        assert enc.dimension == 64
        assert enc.to_config() == {"id": "hashing", "dimension": 64}
        with pytest.raises(ValueError):
            encoder_from_config({"id": "transformer"})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("alpha beta gamma delta epsilon".split()), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_permutation_invariance(tokens, rnd):
    enc = HashingEncoder(128)
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    assert np.allclose(enc.encode(" ".join(tokens)), enc.encode(" ".join(shuffled)))


# -- a text's buckets are its '.'-pieces', which the piece table relies on --

def whole_text_encode_batch(texts, dim):
    """Each text's token counts: its lowercase tokens hashed by FNV-1a, then one bincount."""
    tokens = [re.findall(r"[a-z0-9]+", text.lower()) for text in texts]
    cells = np.repeat(np.arange(len(texts), dtype=np.int64) * dim, [len(t) for t in tokens])
    cells += np.array([fnv1a_64(t.encode("utf-8")) % dim for row in tokens for t in row],
                      dtype=np.int64)
    return np.bincount(cells, minlength=len(texts) * dim).reshape(len(texts), dim).astype(np.float64)


# Kelvin sign and dotted I lowercase to ASCII; a capital sigma lowercases by
# context, final or not depending on what follows it across a '.'
ENCODE_WORDS = ["it", "IsA", "Made_Of", "fruit", "Fruit", "class_007", "the", "a", "_", "7",
                "\u212a", "\u212aelvin", "\u0130s", "x\u0130", "\u03a3", "A\u03a3", "\u03a3a",
                "caf\u00e9", "\u00c9t\u00c9", "", "-"]
ENCODE_SEPS = [" ", " ", ".", ". ", "..", " .", ",", ";", "_", ""]


@st.composite
def encode_texts(draw):
    parts = [draw(st.sampled_from(["", ".", " "]))]
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        parts += [draw(st.sampled_from(ENCODE_WORDS)), draw(st.sampled_from(ENCODE_SEPS))]
    return "".join(parts)


@settings(max_examples=150, deadline=None)
@given(st.lists(encode_texts(), max_size=12), st.sampled_from([1, 7, 256]))
def test_piecewise_encode_matches_whole_text(texts, dim):
    texts = texts + texts[:3]
    enc = HashingEncoder(dim)
    pieces = [[b for row in enc.buckets(t.split(".")) for b in row] for t in texts]
    assert pieces == enc.buckets(texts)
    assert enc.counts(pieces).tobytes() == whole_text_encode_batch(texts, dim).tobytes()
    assert enc.encode_batch(texts).tobytes() == whole_text_encode_batch(texts, dim).tobytes()


SHARED_ENCODERS = {dim: HashingEncoder(dim) for dim in (1, 7, 256)}


@settings(max_examples=150, deadline=None)
@given(st.lists(encode_texts(), max_size=12), st.sampled_from([1, 7, 256]))
def test_piecewise_encode_with_one_encoder_across_calls(texts, dim):
    # the token memo lives on the encoder and holds every earlier example's tokens
    got = SHARED_ENCODERS[dim].encode_batch(texts + texts[:3])
    assert got.tobytes() == whole_text_encode_batch(texts + texts[:3], dim).tobytes()
