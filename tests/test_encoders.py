from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcil import HashingEncoder, cosine, encoder_from_config
from kgcil.encoders import fnv1a_64


class TestFnv:
    # published 64-bit FNV-1a reference values
    def test_reference_vectors(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8


class TestHashingEncoder:
    def test_unit_norm(self):
        enc = HashingEncoder(256)
        vec = enc.encode("granny_smith IsA fruit")
        assert vec.shape == (256,)
        assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_empty_text_zero_vector(self):
        enc = HashingEncoder(64)
        assert not enc.encode("").any()
        assert not enc.encode(" .,; ").any()

    def test_golden_vector(self):
        # frozen from the first run of this configuration
        vec = HashingEncoder(256).encode("granny_smith IsA fruit")
        nonzero = ",".join(f"{i}:{vec[i]:.6f}" for i in vec.nonzero()[0])
        assert nonzero == "16:0.500000,177:0.500000,178:0.500000,220:0.500000"
        digest = hashlib.sha256(nonzero.encode()).hexdigest()
        assert digest == "f7113cf8eb8a1f7c47e75e591ee39983a148053003b2fd3db8f66c87e7abb299"

    def test_tokens_split_on_non_alphanumerics(self):
        enc = HashingEncoder(128)
        assert np.allclose(enc.encode("granny_smith"), enc.encode("granny smith"))
        assert np.allclose(enc.encode("a-b"), enc.encode("a b"))

    def test_case_folded(self):
        enc = HashingEncoder(128)
        assert np.allclose(enc.encode("IsA Fruit"), enc.encode("isa fruit"))

    def test_disjoint_tokens_orthogonal(self):
        enc = HashingEncoder(256)
        sim = cosine(enc.encode("pineapple"), enc.encode("granny smith"))
        assert sim == 0.0

    def test_overlap_monotone(self):
        enc = HashingEncoder(256)
        anchor = enc.encode("alpha beta gamma")
        closer = cosine(anchor, enc.encode("alpha beta"))
        farther = cosine(anchor, enc.encode("alpha delta"))
        assert closer > farther > 0.0

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            HashingEncoder(0)

    def test_config_roundtrip(self):
        enc = encoder_from_config({"id": "hashing", "dimension": 64})
        assert enc.dimension == 64
        assert enc.to_config() == {"id": "hashing", "dimension": 64}
        with pytest.raises(ValueError):
            encoder_from_config({"id": "transformer"})


class TestCosine:
    def test_zero_vector_guard(self):
        z = np.zeros(4)
        v = np.array([1.0, 0, 0, 0])
        assert cosine(z, v) == 0.0
        assert cosine(v, v) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("alpha beta gamma delta epsilon".split()), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_permutation_invariance(tokens, rnd):
    enc = HashingEncoder(128)
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    assert np.allclose(enc.encode(" ".join(tokens)), enc.encode(" ".join(shuffled)))


# -- piece-wise encoding against the whole-text encoder it replaced --------

def whole_text_encode_batch(texts, dim):
    """encode_batch as it was before texts were tokenized '.'-piece by piece."""
    tokens = [re.findall(r"[a-z0-9]+", text.lower()) for text in texts]
    cells = np.repeat(np.arange(len(texts), dtype=np.int64) * dim, [len(t) for t in tokens])
    cells += np.array([fnv1a_64(t.encode("utf-8")) % dim for row in tokens for t in row],
                      dtype=np.int64)
    out = np.bincount(cells, minlength=len(texts) * dim).reshape(len(texts), dim).astype(np.float64)
    norms = np.sqrt((out * out).sum(axis=1, keepdims=True))
    np.divide(out, norms, out=out, where=norms > 0)
    return out


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
    got = HashingEncoder(dim).encode_batch(texts)
    assert got.tobytes() == whole_text_encode_batch(texts, dim).tobytes()
