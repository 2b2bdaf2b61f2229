from kummer.pipeline import (
    audit_example_1_odd,
    audit_example_2_goursat,
    audit_example_3_desk,
)


def test_audit_example_1():
    rec = audit_example_1_odd()
    assert rec["l"] == 3
    assert rec["sp4_order_enumerated"] == 51840
    assert rec["sp4_order_formula"] == 51840
    assert rec["psp4_order_formula"] == 25920
    assert rec["has_index_l_normal_subgroup"] is False
    assert rec["tautological_module_absolutely_simple"] is True
    assert rec["supports_hypotheses"] is True


def test_audit_example_2():
    rec = audit_example_2_goursat()
    assert rec["s6"]["index2_normal_subgroup_count"] == 1
    assert rec["s6"]["kernel_is_alternating"] is True
    assert rec["gsp4_f3"]["order"] == 103680
    assert rec["gsp4_f3"]["index2_normal_subgroup_count"] == 1
    assert rec["gsp4_f3"]["kernel_order"] == 51840
    assert rec["gsp4_f3"]["kernel_contains_sp_and_square_scalars"] is True
    assert rec["sextic_disc_class"] == {"support": [3, 13, 31], "sign": -1}


def test_audit_example_3():
    rec = audit_example_3_desk()
    assert rec["standard_s7_absolutely_simple"] is True
    assert rec["standard_a7_absolutely_simple"] is True
    assert rec["h1_s7_standard"] == 0
    assert rec["h1_a7_standard"] == 0
    assert rec["torsor_group_order"] == 322560
    assert rec["h1_semidirect_standard"] == 1
    assert rec["torsor_class_nonzero"] is True
    assert rec["h1_pi1_two_torsion"] == 0
    assert rec["picard_prediction"] == 65
    assert rec["canonical_class_effective"] is True
