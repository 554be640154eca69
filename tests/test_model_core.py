import math

import numpy as np
import pytest

from camsmeta import model_core
from camsmeta.errors import ContractError, DomainError, ValidationWarning
from camsmeta.model_core import (MetaDataset, StudyRecord,
                                 SubgroupObservation, cams_covariance,
                                 compose, compute_if, cov_gm, decompose)


def make_study(ya=0.1, yb=0.4, sa=0.2, sb=0.3, study_id="S1"):
    return StudyRecord.from_observations(
        study_id,
        SubgroupObservation("A", ya, sa),
        SubgroupObservation("B", yb, sb))


def test_compute_if_hand_values():
    # sigma_a = 2, sigma_b = 1: subgroup B carries 4/5 of the information
    assert compute_if(2.0, 1.0) == pytest.approx(0.8, abs=1e-15)
    assert compute_if(1.0, 1.0) == 0.5
    assert compute_if(1.0, 2.0) == pytest.approx(0.2, abs=1e-15)


def test_compute_if_matches_precision_form():
    rng = np.random.default_rng(101)
    for _ in range(500):
        sa, sb = rng.uniform(0.05, 5.0, size=2)
        direct = compute_if(sa, sb)
        precision = (1.0 / sb**2) / (1.0 / sa**2 + 1.0 / sb**2)
        assert direct == pytest.approx(precision, abs=1e-14)
        assert 0.0 < direct < 1.0


def test_compute_if_rejects_nonpositive():
    with pytest.raises(DomainError):
        compute_if(0.0, 1.0)
    with pytest.raises(DomainError):
        compute_if(1.0, -2.0)


def test_observation_validation():
    with pytest.raises(DomainError):
        SubgroupObservation("A", math.nan, 1.0)
    with pytest.raises(DomainError):
        SubgroupObservation("A", 0.0, 0.0)
    with pytest.raises(DomainError):
        SubgroupObservation("A", 0.0, 1.0, count=-3)


def test_decompose_hand_case():
    s = make_study(ya=0.1, yb=0.4)
    g, m = decompose(s, 0.25)
    assert g == pytest.approx(0.3, abs=1e-15)
    assert m == pytest.approx(0.75 * 0.1 + 0.25 * 0.4, abs=1e-15)


def test_decompose_compose_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(200):
        ya, yb = rng.normal(0, 2, size=2)
        sa, sb = rng.uniform(0.05, 3.0, size=2)
        pi = rng.uniform(0.0, 1.0)
        s = make_study(ya=ya, yb=yb, sa=sa, sb=sb)
        g, m = decompose(s, pi)
        ya2, yb2 = compose(g, m, pi)
        assert ya2 == pytest.approx(ya, abs=1e-12)
        assert yb2 == pytest.approx(yb, abs=1e-12)


def test_cov_gm_affine_and_vanishing():
    # affine in pi with the documented endpoints
    assert cov_gm(0.0, 2.0, 3.0) == pytest.approx(-2.0)
    assert cov_gm(1.0, 2.0, 3.0) == pytest.approx(3.0)
    assert cov_gm(0.5, 2.0, 3.0) == pytest.approx(0.5)
    rng = np.random.default_rng(13)
    for _ in range(300):
        sa, sb = rng.uniform(0.05, 4.0, size=2)
        pi = compute_if(sa, sb)
        assert abs(cov_gm(pi, sa**2, sb**2)) < 1e-14 * (sa**2 + sb**2)


def test_cov_gm_domain():
    with pytest.raises(DomainError):
        cov_gm(1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        cov_gm(0.5, -1.0, 1.0)


def test_marginal_covariance_against_loading_construction():
    # build the same matrix from the random-effect loadings directly
    rng = np.random.default_rng(5)
    for _ in range(100):
        sa, sb = rng.uniform(0.1, 2.0, size=2)
        tau, tg = rng.uniform(0.0, 1.0, size=2)
        pi = rng.uniform(0.01, 0.99)
        got = cams_covariance(sa**2, sb**2, pi, tau, tg)
        ones = np.ones((2, 1))
        load = np.array([[0.0 - pi], [1.0 - pi]])
        want = (np.diag([sa**2, sb**2]) + tau**2 * (ones @ ones.T)
                + tg**2 * (load @ load.T))
        assert np.allclose(got, want, atol=1e-14)
        assert got[0, 1] == got[1, 0]


def test_marginal_covariance_balanced_pattern():
    v = cams_covariance(0.09, 0.09, 0.5, 0.0, 0.4)
    assert v[0, 0] == pytest.approx(0.09 + 0.04)
    assert v[0, 1] == pytest.approx(-0.04)


def test_from_observations_recomputes_if():
    s = make_study(sa=0.2, sb=0.3)
    assert s.info_fraction == pytest.approx(compute_if(0.2, 0.3), abs=1e-15)


def test_from_observations_derives_the_if_once(monkeypatch):
    calls = []
    record_if = model_core._record_if

    def counted(*args):
        calls.append(args)
        return record_if(*args)

    monkeypatch.setattr(model_core, "_record_if", counted)
    s = StudyRecord.from_observations("S1", SubgroupObservation("A", 0.0, 0.2),
                                      SubgroupObservation("B", 0.0, 0.3),
                                      reported_ifrac=compute_if(0.2, 0.3))
    assert len(calls) == 1
    assert s.info_fraction == compute_if(0.2, 0.3)


def test_from_observations_warns_on_discrepant_ifrac():
    with pytest.warns(ValidationWarning):
        StudyRecord.from_observations(
            "S1", SubgroupObservation("A", 0.0, 0.2),
            SubgroupObservation("B", 0.0, 0.3),
            reported_ifrac=0.9)


@pytest.mark.parametrize("se", [1e-170, 1e170])
def test_from_observations_rejects_variances_outside_float64(se):
    # 1e-170 squares to 0 (the IF would divide by zero), 1e170 to inf
    with pytest.raises(DomainError, match="study S7: subgroup B"):
        StudyRecord.from_observations("S7", SubgroupObservation("A", 0.0, 0.2),
                                      SubgroupObservation("B", 0.0, se))
    with pytest.raises(DomainError, match="study S7: subgroup A"):
        StudyRecord("S7", SubgroupObservation("A", 0.0, se),
                    SubgroupObservation("B", 0.0, 0.2))
    # a subnormal square is a positive float: the record builds, and the
    # fits refuse it when they invert it
    tiny = StudyRecord.from_observations(
        "S7", SubgroupObservation("A", 0.0, 1e-160),
        SubgroupObservation("B", 0.0, 1e-160))
    assert tiny.info_fraction == 0.5


def test_dataset_properties():
    data = MetaDataset((make_study(study_id="S1"),
                        make_study(study_id="S2", sa=0.4, sb=0.1)))
    assert data.scale_label == "log-RR"
    assert np.allclose(data.info_fractions,
                       [compute_if(0.2, 0.3), compute_if(0.4, 0.1)])


def test_dataset_refuses_a_study_that_is_not_a_record():
    # an object with a study_id is not enough: it would fail later, reading
    # subgroup fields it does not have
    class Foreign:
        study_id = "S2"

    with pytest.raises(ContractError,
                       match=r"^studies\[1\] is a Foreign, not a StudyRecord$"):
        MetaDataset((make_study(study_id="S1"), Foreign()))
