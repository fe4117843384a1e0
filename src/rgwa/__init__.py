"""Finite-model workbench for reduced groups with action.

Carriers are dense index tables (0 is the additive zero).  The package
verifies the group/action/reduced axioms, derives actions from split
extensions and checks the 22-condition characterization, enumerates
pentactions with an independent brute-force oracle, analyses stabilizers
and the quotient chain, and assembles PA(A) together with the factorization
morphism that represents actions on A.
"""

from .analysis import (
    NoetherChain,
    analysis_report,
    noether_quotient,
    stabilizer,
    weak_stabilizer,
)
from .core import (
    ElementSet,
    FiniteGwaObject,
    GwaMorphism,
    additive_bijections,
    check_axioms,
    derived_subobject,
    identity_morphism,
    is_morphism,
    is_perfect,
    make_morphism,
    make_object,
    quotient_by_subgroup,
    quotient_map,
    subobject_closure,
)
from .corpus import (
    conjugation_object,
    cyclic_trivial,
    direct_sum,
    s3_conjugation_tables,
    standard_corpus,
    symmetric_group_table,
)
from .errors import (
    BudgetExceededError,
    InputError,
    StructuralError,
    UnsupportedInputError,
    ValidationError,
    WorkbenchError,
)
from .extensions import (
    DerivedActionTriple,
    SplitExtension,
    action_from_split_extension,
    check_derived_action,
    check_split_extension,
    direct_sum_extension,
    enumerate_derived_actions,
    enumerate_derived_actions_bruteforce,
)
from .files import emit_corpus, load_object, save_object
from .pentactions import (
    DEFAULT_BUDGET,
    Pentaction,
    check_pentaction,
    check_pentactions_batch,
    enumerate_pentactions,
    enumerate_pentactions_bruteforce,
    pent_add,
    pent_neg,
    pent_pow,
    zero_pentaction,
)
from .report import CheckReport, Violation
from .representability import (
    PAObject,
    RepresentabilityReport,
    build_pa_object,
    pa_action,
    represent,
    verify_representability,
    verify_uniqueness,
)

__version__ = "0.1.0"
