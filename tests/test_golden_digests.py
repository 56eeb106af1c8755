"""Output bytes of the power operations, the stringy Euler classes and a
long j-series, pinned by sha256.

The power-operation digests were computed from the conjugacy-walk
tables. A drift in which pair represents a class, or in the order of a
product's pair classes, changes them without failing any identity check.
"""

import hashlib
import random

from fractions import Fraction

import pytest

from tatek.characters import RepCharacter, euler_str, wreath_sum_character
from tatek.cyclotomic import root_of_unity
from tatek.devoto import external_product, random_devoto_element, restrict_along
from tatek.groups import cyclic_group, direct_product, symmetric_group
from tatek.moonshine import jseries
from tatek.powerops import p_str, sym_str
from tatek.serialize import devoto_to_json, dumps, element_to_json, series_to_json
from tatek.wreath import block_sum_hom, wreath


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, make, n, digest", [
    ("Z2", lambda: cyclic_group(2), 4,
     "810df809348eade5750745ae9c705616f7fe6496a592c8ecd8ae94fdda8592c9"),
    ("Z3", lambda: cyclic_group(3), 3,
     "bb0d97deffa81f1c8e65a93ff323a0f50dd2047f76ea2d89626b2c73423db8ec"),
    ("S3", lambda: symmetric_group(3), 2,
     "3dfb337f323572953054286bd2047bc37493348af3eca2e74494f97d69e16736"),
])
def test_p_str_bytes_are_pinned(name, make, n, digest):
    x = random_devoto_element(make(), random.Random(f"golden:{name}"), truncation=2)
    assert _sha(dumps(devoto_to_json(p_str(x, n)))) == digest


def test_sym_brute_bytes_are_pinned():
    # the input and digest of the scaling probe's sym_str brute S3 n=6 row
    x = random_devoto_element(symmetric_group(3), random.Random("scaling:0"), truncation=2)
    digest = "80ce04944bd6d72b5f6e759bdb48cd5c7138422cc8ad7f30b9e5227846937cc1"
    assert _sha(dumps(devoto_to_json(sym_str(x, 6, "brute")))) == digest


def test_block_sum_split_bytes_are_pinned():
    # a product group has no generator record, so the table is written
    # out in its own order, which is the product's pair-class order
    Z2 = cyclic_group(2)
    x = random_devoto_element(Z2, random.Random("golden:split"), truncation=2)
    W1, W2, W3 = wreath(Z2, 1), wreath(Z2, 2), wreath(Z2, 3)
    prod = direct_product(W1, W2)
    lhs = restrict_along(p_str(x, 3, W3), block_sum_hom(prod, W1, W2, W3))
    rhs = external_product(p_str(x, 1, W1), p_str(x, 2, W2), product_group=prod)
    digest = "3ae0fb9bb1de22facc5bd5af6bab5079b4df06ab850965ee5512c8d91e5f85a4"
    for side in (lhs, rhs):
        text = dumps([[[element_to_json(w) for w in (*g, *h)], series_to_json(s)]
                      for (g, h), s in side.table.items()])
        assert _sha(text) == digest


def test_jseries_bytes_are_pinned():
    # the jseries 300 row of perfbench/scaling-baseline.json: E4 * E4 spans
    # 600 exponents, wider than the dense product path once allowed
    digest = "4cda2dc2c53a61e1d51640bbaa767b2d8632d2e694b0d6c50163e921e5d41a10"
    assert _sha(dumps(series_to_json(jseries(300).series))) == digest


def test_euler_str_bytes_are_pinned():
    # equal cyclotomics can be stored at different orders, so a projection
    # or Newton sum that is reassociated can change these bytes
    Z3, S3, Z4 = cyclic_group(3), symmetric_group(3), cyclic_group(4)
    g3, g4 = (1, 2, 0), (1, 2, 3, 0)
    faithful = RepCharacter(Z3, {Z3.power(g3, k): root_of_unity(3, k) for k in range(3)})
    standard = RepCharacter(S3, {S3.identity: 2, (1, 0, 2): 0, (1, 2, 0): -1})
    i_char = RepCharacter(Z4, {Z4.power(g4, k): root_of_unity(4, k) for k in range(4)})
    classes = [euler_str(faithful + RepCharacter.regular(Z3), 2),
               euler_str(standard, 3),
               euler_str(i_char, Fraction(5, 2)),
               euler_str(wreath_sum_character(faithful, 2, wreath(Z3, 2)), 1)]
    digest = "8f1067663f41a4db69635c974a17547e58f69bd728d0b993d0389a7120751965"
    assert _sha("".join(dumps(devoto_to_json(x)) for x in classes)) == digest
