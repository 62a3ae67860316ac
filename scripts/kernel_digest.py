"""Print one sha256 over the kernel arrays of many operator sets.

For each order k in ``SUPPORTED_ORDERS`` (so a new order is covered with
no edit here), cell counts N = 2k..199, 399, 511, 1000, 1001 and
4097, and the domains [0, 1], [-30, 30] and [-1, 2.5], in that loop order,
each of the nine ``ops.kernels`` entries feeds its ``data``, ``indices`` and
``indptr`` bytes, then ``repr(shape)``, into one sha256, whose hex digest is
printed.  Run it on two checkouts and compare the digests to see whether a
change moves any bit of any operator:

    PYTHONPATH=src python scripts/kernel_digest.py
"""

from __future__ import annotations

import hashlib

from mimkit.grid_fields import build_grid
from mimkit.mimetic_ops import SUPPORTED_ORDERS, build_operator_set

DOMAINS = ((0.0, 1.0), (-30.0, 30.0), (-1.0, 2.5))


def kernel_digest() -> str:
    digest = hashlib.sha256()
    for k in SUPPORTED_ORDERS:
        for n_cells in [*range(2 * k, 200), 399, 511, 1000, 1001, 4097]:
            for a, b in DOMAINS:
                ops = build_operator_set(k, build_grid(a, b, n_cells))
                for data, indices, indptr, shape in ops.kernels.values():
                    for array in (data, indices, indptr):
                        digest.update(array.tobytes())
                    digest.update(repr(shape).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(kernel_digest())
