"""Seeded invertible linear maps, and the images of matroids under them.

The test modules import this file by name: pytest puts the directory of
each test module on `sys.path`.
"""

from binmatroid import BinaryMatroid, closure
from binmatroid.matroid import linear_map_table, transform_mask


def random_images(n, rng):
    """Images of the unit vectors under a random invertible linear map."""
    while True:
        images = [rng.randrange(1, 1 << n) for _ in range(n)]
        if closure(images, n).dim == n:
            return images


def mapped(M, images):
    """M moved by the linear map that sends unit vector i to images[i]."""
    return BinaryMatroid(M.n, transform_mask(M.mask, linear_map_table(images, M.n)))
