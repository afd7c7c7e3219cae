"""Decision procedures for behavioural equivalences and preorders on finite
labelled transition systems and generative probabilistic systems.

Semantic decorations turn each equivalence into equality of Moore-machine
behaviours under a generalised subset construction; three interchangeable
back ends decide that equality (naive bisimulation, bisimulation up to
congruence, double-reversal minimisation), with an exact linear-span check
for the probabilistic semantics and a brute-force word oracle for
cross-validation.
"""

from .brzozowski import (
    LazyReversal,
    brzozowski_minimize,
    equiv_via_minimization,
    explicit_reversal,
    moore_isomorphic,
    reverse_determinize,
    reverse_determinize_moore,
)
from .bench import (
    ALGORITHMS,
    BenchCase,
    BenchRecord,
    BenchReport,
    cycle_starts,
    decide,
    default_cases,
    gen_chain,
    gen_cycles,
    gen_interleave,
    oracle_equal,
    random_lts,
    run_matrix,
)
from .decorations import (
    DOWNCLOSED_FAMILY_SEMANTICS,
    OUTPUT_KIND,
    SEMANTICS,
    TOP,
    DecoratedLts,
    Output,
    Top,
    VariantMismatch,
    antichain_min,
    antichain_to_downset,
    bottom_output,
    compact_output,
    decorate,
    downset_to_antichain,
    join_all,
    join_outputs,
    relabel_for_trace_decorations,
    render_action_set,
    render_eff_label,
    render_output,
    trace_class_of,
)
from .gps import (
    GPS_SEMANTICS,
    Distribution,
    GpsDecorated,
    failure_from_ready,
    gps_decorate,
    gps_det_output,
    gps_det_step,
    gps_equiv,
    mfailure_from_ready,
    ready_to_trace_collapse,
)
from .hkc import (
    HkcReport,
    hkc_check,
    in_congruence,
    naive_bisim,
    preorder_check,
    saturate,
)
from .lts import (
    TAU,
    FormatError,
    Gps,
    Lts,
    converges_on,
    disjoint_union,
    diverges,
    divergent_states,
    downclose_masks,
    fail_sets,
    format_gps,
    format_lts,
    full_mask,
    initial_actions,
    is_downclosed,
    labels_of,
    mask_of,
    parse_gps,
    parse_lts,
    submasks,
    tau_closure,
    weak_successors,
)
from .moore import (
    DEFAULT_CAP,
    CapExceeded,
    MooreMachine,
    behavior,
    coarsen_failure_to_ctrace,
    coarsen_ready_to_failure,
    det_output,
    det_step,
    moore_partition_classes,
    reachable_machine,
)

__version__ = "0.1.0"
