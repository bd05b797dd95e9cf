"""Exemplar-based outcome prediction by counting pointers.

A given context is compared against every stored exemplar; each of the
2^n supracontexts (feature-match masks) collects the exemplars it
contains, heterogeneous supracontexts are discarded, and every ordered
pair of exemplars in a surviving supracontext contributes one pointer to
the target's outcome.  Outcome probabilities are exact rationals:
pointers per outcome over total pointers.

Two engines produce identical results: a direct set-based one and a
reversible-gate circuit built from NOT/CNOT/Toffoli primitives that
uncomputes every scratch register.  Uncertainty helpers quantify the
resulting distribution (entropy, disagreement, agreement), and a small
CLI exposes the whole pipeline.
"""

from .core import (
    DEFAULT_N_CAP,
    Bits,
    Dataset,
    DatasetFormatError,
    Exemplar,
    FeatureVector,
    LatticeSizeError,
    bits_to_int,
    bits_to_str,
    check_lattice_size,
    contained_exemplars,
    contains,
    difference_vector,
    int_to_bits,
    iter_masks,
    load_dataset,
    load_worked_example,
    parse_dataset,
    serialize_dataset,
    str_to_bits,
)
from .gates import (
    BitRegister,
    GateTrace,
    build_analogy_array,
    build_containment_array,
    build_heterogeneity_array,
    gate_ccnot,
    gate_identity,
    gate_inclusion,
    gate_inclusion_inverse,
    gate_not,
    gate_ones,
    gate_ones_inverse,
    run_qam_circuit,
    to_analogical_set,
)
from .homogeneity import (
    AnalogicalSet,
    NoAnalogicalSupportError,
    OutcomeDistribution,
    SupracontextVerdict,
    analogical_set,
    is_homogeneous_determinism,
    is_homogeneous_disagreement,
    is_homogeneous_plurality,
    is_homogeneous_pointer,
    most_likely_outcome,
    pointer_heterogeneity_matrix,
    predict_distribution,
    sample_outcome,
    two_step_distribution,
)
from .uncertainty import (
    InvalidDistributionError,
    TabulatedDensity,
    agreement,
    agreement_density,
    disagreement,
    entropy,
    read_density_file,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_N_CAP",
    "Bits",
    "Dataset",
    "DatasetFormatError",
    "Exemplar",
    "FeatureVector",
    "LatticeSizeError",
    "bits_to_int",
    "bits_to_str",
    "check_lattice_size",
    "contained_exemplars",
    "contains",
    "difference_vector",
    "int_to_bits",
    "iter_masks",
    "load_dataset",
    "load_worked_example",
    "parse_dataset",
    "serialize_dataset",
    "str_to_bits",
    "BitRegister",
    "GateTrace",
    "build_analogy_array",
    "build_containment_array",
    "build_heterogeneity_array",
    "gate_ccnot",
    "gate_identity",
    "gate_inclusion",
    "gate_inclusion_inverse",
    "gate_not",
    "gate_ones",
    "gate_ones_inverse",
    "run_qam_circuit",
    "to_analogical_set",
    "AnalogicalSet",
    "NoAnalogicalSupportError",
    "OutcomeDistribution",
    "SupracontextVerdict",
    "analogical_set",
    "is_homogeneous_determinism",
    "is_homogeneous_disagreement",
    "is_homogeneous_plurality",
    "is_homogeneous_pointer",
    "most_likely_outcome",
    "pointer_heterogeneity_matrix",
    "predict_distribution",
    "sample_outcome",
    "two_step_distribution",
    "InvalidDistributionError",
    "TabulatedDensity",
    "agreement",
    "agreement_density",
    "disagreement",
    "entropy",
    "read_density_file",
]
