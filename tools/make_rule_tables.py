"""Write the shipped Gauss-Laguerre tables from the rule builder.

Run ``PYTHONPATH=src python tools/make_rule_tables.py`` after any change to
``spectra._build_rule``.  Each table is ``_build_rule(Q)`` for one Q of the
doubling ladder 25 * 2**j (j = 0..8), stored as a little-endian float64 array
of shape (2, n): the nodes, then the weights.
"""

import numpy as np

from bargmann_toeplitz import spectra

for node_count in spectra._RULE_LADDER:
    table = np.array(spectra._build_rule(node_count), dtype="<f8")
    np.save(spectra._RULE_TABLES / f"laguerre_{node_count}.npy", table, allow_pickle=False)
