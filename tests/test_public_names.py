import meetjoin

# The exported names, recorded: removing a field or method must not drop one.
PUBLIC_NAMES = [
    "BoundsReport", "CharacterizationMismatch", "ClosureResult",
    "ConvergenceError", "CoverGraph", "CycleError", "DeskScaleError",
    "DiagMatrix", "DivisorLattice", "DuplicateError", "ExactArithmeticError",
    "FinitePoset", "HypothesisError", "IncMatrix", "MatrixModel",
    "MeetJoinError", "MissingValueError", "MobiusTable", "MonotonicityError",
    "NOT_APPLICABLE", "NOT_POSITIVE_DEFINITE", "NamedFunction", "NoJoinError",
    "NoMeetError", "NotClosedError", "NotSupersetError", "PDReport",
    "POSITIVE_DEFINITE", "PhiVector", "PosetFunction", "PreconditionError",
    "PsiVector", "Spectrum", "Subset", "SupportError", "SymMatrix",
    "build_named_matrix", "build_poset", "classify_and_test", "cover_graph",
    "det_closed", "det_general", "divides_unitarily", "divisibility_poset",
    "divisor_down_set", "divisors", "down_set", "eigen_sym",
    "factored_join_matrix", "factored_meet_matrix", "factorize",
    "gcd_closure", "gcud", "gcud_closure", "incidence_matrix", "is_A_set",
    "is_chain", "is_join_closed", "is_meet_closed", "is_vee_tree_set",
    "is_wedge_tree_set", "join", "join_bounds", "join_closure", "join_matrix",
    "jordan_totient", "lcm_closure", "lcm_up_set", "mass_diagonal", "meet",
    "meet_bounds", "meet_closure", "meet_matrix", "mobius_table",
    "monotonicity_from_pd", "normalize_family", "pd_join_closed",
    "pd_meet_closed", "pd_oracle", "pd_superset_sufficient", "pd_tree", "phi",
    "psi", "quadratic_form_check", "reindex_monotone", "structure_flags",
    "total_order_poset", "unitary_divisibility_poset",
    "unitary_divisor_down_set", "unitary_divisors", "up_set",
]


def test_public_names_are_stable():
    assert len(PUBLIC_NAMES) == 91
    assert sorted(meetjoin.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(meetjoin, name) is not None
