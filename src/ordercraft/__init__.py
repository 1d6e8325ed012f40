"""ordercraft: a finite order-theory engine.

Posets over dense indices, downset/ideal lattices, join- and meet-structure
analysis, embedding search, named obstruction families, and executable
constructive extractions with re-verifiable certificates.
"""

from .poset import Poset, build, chain, antichain, dual, direct_product, \
    direct_sum, lexicographic_sum, is_isomorphic
from .downsets import DownSet, DownSetFamily, down_closure, enumerate_downsets, \
    downset_lattice
from .semilattice import MapWitness, StructureReport, structure_report, \
    find_independent_set, embedding_search
from .families import FamilySpec, OrdinalCNF, generate
from .constructions import Certificate, ChainOfDownSets, is_separating, \
    independent_from_separating, dichotomy_extract, ramsey_extract, \
    thm8_pipeline, verify_certificate, certificate_valid
from .suites import SuiteReport, run_suite, random_poset, random_join_semilattice

__version__ = "0.1.0"
