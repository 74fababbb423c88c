"""Numerical certification of nonclassicality at desk scale.

Subpackages cover exact combinatorial kernels, a dense interior-point
conic solver with SDPA export, Fock-fidelity negativity-witness
hierarchies (single and multimode), continuous-variable example states,
the contextual-fraction linear programs, discrete phase-space operators,
and the Torpedo information-retrieval game.
"""

__version__ = "0.1.0"
