"""Characteristic-imset machinery for DAG families with a fixed node ordering.

The polytope of a family factors into per-child simplices; this package
computes the imsets and their coordinate blocks, the facet and adjacency
structure of the product, exact structure learning over the blocks, and an
independent exact-arithmetic oracle that certifies each geometric claim.
"""

from .errors import (CimsetError, DegeneratePairError, DomainError, FormatError,
                     NotAVertexError, ResourceError, UnsupportedError)
from .geometry import (EdgeDecomposition, FacetSystem, ProductFactor, ProductStructure,
                       affine_dimension_formula, are_neighbors, edge_point_decompose,
                       facet_evaluate, facet_matrix, facet_system_for_child, lemma32_witness,
                       neighbors, product_structure, vertex_block_vector, witness_block_value)
from .graphs import (FamilySpec, NodeOrdering, ParentMap, diagnosis_family,
                     enumerate_family, family_contains, family_from_json,
                     family_to_json, full_ordered_family, graph_from_json,
                     graph_to_json)
from .imsets import (Block, CharImset, CoordinateIndex, block_slice, characteristic_imset,
                     coordinate_index, export_full_vector, full_vector_labels,
                     imset_from_bits, imset_text_lines, imset_to_graph)
from .learn import (ChildChoice, CompareReport, LearnResult, compare, k2_backward,
                    k2_forward, optimize_exact, structural_hamming)
from .oracle import (Certificate, VertexCloud, affine_dimension, learn_bruteforce,
                     oracle_adjacent, oracle_facet_check)
from .scoring import (DataVector, Dataset, ScoreTable, build_score_table,
                      data_vector_dot, load_csv, local_score, mobius_data_vector,
                      score_graph, score_table_from_json, score_table_to_json,
                      table_graph_score)
from .verify import verify_family

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
