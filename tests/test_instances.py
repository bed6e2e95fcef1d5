from fractions import Fraction

import pytest

from pslgaug import augment_2vc, build, optimal_augment, transform
from pslgaug.instances import generate, instance_hash

# The benchmark's frozen instance pool (perfbench/reference.json) relies on
# generate staying byte-identical.
GOLDEN = {
    (3, 0, 0.5): "3a1bcc220ec4ca85",
    (8, 1, 0.0): "df5b7d594296c1f0",
    (12, 2, 1.0): "f143b26a5f72312e",
    (25, 3, 0.4): "b1635287eb8f2313",
    (40, 4, 0.6): "d3c03ca2bd83db18",
    (76, 5, 0.2): "e01d44e7fc33c581",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_generate_golden_hash(case):
    assert instance_hash(generate(*case)) == GOLDEN[case]


def similar(g, scale, offset):
    return build(
        [(p.id, p.x * scale + offset, p.y * scale + offset) for p in g.points],
        sorted(g.edges),
    )


def test_outputs_invariant_under_translation_and_scaling():
    # every decision is exact, so huge offsets and extreme scales must not
    # change a single operation
    for case in ((9, 11, 0.3), (12, 12, 0.5), (15, 13, 0.0), (18, 14, 0.6)):
        g = generate(*case)
        ops = transform(g)[2].steps
        opt = optimal_augment(g, "2vc").added
        heur = augment_2vc(g).added
        for scale, offset in ((1, 10**15), (Fraction(1, 10**12), -(10**15)), (10**9, 0)):
            h = similar(g, scale, offset)
            assert transform(h)[2].steps == ops, (case, scale, offset)
            assert optimal_augment(h, "2vc").added == opt
            assert augment_2vc(h).added == heur
