"""veilshare: access-structure-hiding verifiable secret sharing.

Library layout:

- ``numt``: exact modular arithmetic
- ``setsys``: restricted-intersection set systems and their verifier
- ``cover``: covering vectors (rows of the set matrix) and k-multilinear forms
- ``tokens``: hidden access-structure tokens and membership testing
- ``lattice``: PRIM-LWE sampling, gadget trapdoors, preimage sampling,
  modulus switching
- ``vss``: dealer, reconstruction and post-hoc share verification
- ``serial``, ``sim``, ``cli``: canonical serialization, the corruption
  simulation harness and the command-line front end
"""

__version__ = "0.1.0"
