"""Weisfeiler-Lehman graph kernels over vertices and k-sets.

Exact computation (sparse sums of 64-bit content words, checked exact or
not) and sampled estimation with distribution-free error bounds, for
graph classification pipelines that consume precomputed kernel matrices.
"""

__version__ = "0.1.0"

from .errors import (FormatError, GraphError, KsetwlError, ParameterError,
                     ResourceLimitError)
from .features import (Features, cosine_normalize_gram, gram_matrix,
                       l1_normalize)
from .graph import Dataset, Graph, build_graph
from .ksets import KSetIndex
from .pipeline import exact_kset_run, la_kset_run
from .sampling import (SampledEstimate, estimate_features_adaptive,
                       estimate_features_fixed, hoeffding_sample_size,
                       hoeffding_sample_size_dataset, make_rng,
                       massart_deviation_bound, observed_label_count,
                       RademacherState)
from .tu_io import (parse_tu_dataset, write_features_sparse, write_gram_csv,
                    write_gram_libsvm)

__all__ = [
    "Dataset", "Features", "FormatError", "Graph", "GraphError", "KSetIndex",
    "KsetwlError", "ParameterError", "RademacherState",
    "ResourceLimitError", "SampledEstimate", "build_graph",
    "cosine_normalize_gram", "estimate_features_adaptive",
    "estimate_features_fixed", "exact_kset_run", "gram_matrix",
    "hoeffding_sample_size", "hoeffding_sample_size_dataset", "l1_normalize",
    "la_kset_run", "make_rng", "massart_deviation_bound",
    "observed_label_count", "parse_tu_dataset", "write_features_sparse",
    "write_gram_csv", "write_gram_libsvm",
]
