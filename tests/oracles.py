"""Oracles that only the tests read: every small table, and the filler of
an admissible pair in the groupoid globe diagram found from object images
alone."""

import itertools

from globkit.globe import Table
from globkit.gpd import GroupoidError


def all_tables(max_width, max_dim):
    """Every valid table with the given width and dimension bounds."""
    out = []
    for width in range(1, max_width + 1):
        for upper in itertools.product(range(max_dim + 1), repeat=width):
            lowers = [
                range(min(upper[k], upper[k + 1]))
                for k in range(width - 1)
            ]
            for lower in itertools.product(*lowers):
                out.append(Table(tuple(upper), tuple(lower)))
    return out


def lifting_oracle(sumr, fpair, gpair, n):
    """The unique filler of an admissible pair into a thin sum.

    Pairs are given by object images; for n >= 1 parallelism forces the two
    maps to agree, and the filler is determined by those objects.
    """
    if n == 0:
        return (fpair[0], gpair[0])
    if fpair != gpair:
        raise GroupoidError("parallel pair disagrees on objects: %s vs %s"
                            % (fpair, gpair))
    return fpair
