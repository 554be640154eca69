import warnings

import numpy as np
import pytest

from camsmeta.contrasts import (contrast_mean_cov, helmert_basis,
                                kronecker_contrast, per_arm_prevalence,
                                precision_prevalence, transform_matrix)
from camsmeta.errors import (ContractError, DomainError,
                             IdentifiabilityWarning)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
def test_helmert_rows_annihilate_constants(k):
    basis = helmert_basis(k)
    c = basis.matrix_c
    assert c.shape == (k - 1, k)
    assert np.allclose(c @ np.ones(k), 0.0, atol=1e-14)
    assert np.linalg.matrix_rank(c) == k - 1


def test_helmert_k2_is_plain_difference():
    basis = helmert_basis(2)
    assert np.allclose(basis.matrix_c, [[-1.0, 1.0]])


def test_precision_prevalence_hand_case():
    # variances (4, 1): precisions (1/4, 1), shares (1/5, 4/5)
    w = precision_prevalence(np.array([4.0, 1.0]))
    assert np.allclose(w, [0.2, 0.8])
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_precision_prevalence_rejects_nonpositive():
    with pytest.raises(DomainError):
        precision_prevalence(np.array([1.0, 0.0]))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_contrast_mean_cov_matches_dense(k):
    rng = np.random.default_rng(42 + k)
    basis = helmert_basis(k)
    for _ in range(50):
        cov_diag = rng.uniform(0.05, 2.0, size=k)
        # generic weights: matches the dense computation
        pi = rng.dirichlet(np.ones(k))
        got = contrast_mean_cov(basis, cov_diag, pi)
        want = basis.matrix_c @ np.diag(cov_diag) @ pi
        assert np.allclose(got, want, atol=1e-14)
        # precision weights: the cross covariance vanishes identically
        vanish = contrast_mean_cov(basis, cov_diag,
                                   precision_prevalence(cov_diag))
        assert np.max(np.abs(vanish)) < 1e-14


@pytest.mark.parametrize("k", [2, 3, 5])
def test_transform_matrix_inverts(k):
    rng = np.random.default_rng(7 + k)
    basis = helmert_basis(k)
    for _ in range(20):
        cov_diag = rng.uniform(0.05, 2.0, size=k)
        pi = precision_prevalence(cov_diag)
        t = transform_matrix(basis, pi)
        full = np.vstack([basis.matrix_c, pi])
        assert np.allclose(t, full)
        y = rng.normal(size=k)
        z = full @ y
        assert np.allclose(np.linalg.solve(full, z), y, atol=1e-10)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_transform_matrix_rejects_singular_prevalence(k):
    # pi' 1 = 0 puts pi in the row space of C
    basis = helmert_basis(k)
    for pi in (np.zeros(k), np.r_[0.5, -0.5, np.zeros(k - 2)]):
        with pytest.raises(ContractError, match="singular"):
            transform_matrix(basis, pi)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_transform_matrix_warns_only_when_ill_conditioned(k):
    basis = helmert_basis(k)
    nearly = np.r_[0.5, -0.5 + 1e-10, np.zeros(k - 2)]
    with pytest.warns(IdentifiabilityWarning, match="ill-conditioned"):
        t = transform_matrix(basis, nearly)
    assert np.array_equal(t[-1], nearly)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transform_matrix(basis, precision_prevalence(np.arange(1.0, k + 1)))


def test_kronecker_contrast_annihilates_constants():
    tb = helmert_basis(2)
    kb = helmert_basis(3)
    kron = kronecker_contrast(tb, kb)
    assert kron.shape == (1 * 2, 2 * 3)
    assert np.allclose(kron @ np.ones(6), 0.0, atol=1e-14)
    assert np.allclose(kron, np.kron(tb.matrix_c, kb.matrix_c))


def test_per_arm_prevalence():
    arm_vars = np.array([[4.0, 1.0], [1.0, 1.0]])
    w = per_arm_prevalence(arm_vars)
    assert w.shape == (4,)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    # each arm contributes half its mass
    assert w[0] + w[1] == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(w[:2], [0.1, 0.4])


@pytest.mark.parametrize("k", [2, 3, 5])
def test_stacks_equal_row_by_row(k):
    rng = np.random.default_rng(11 + k)
    basis = helmert_basis(k)
    var = rng.uniform(0.05, 2.0, size=(4, 3, k))
    pi = rng.dirichlet(np.ones(k), size=(4, 3))
    stacks = (precision_prevalence(var), contrast_mean_cov(basis, var, pi),
              transform_matrix(basis, pi))
    for i in np.ndindex(4, 3):
        rows = (precision_prevalence(var[i]),
                contrast_mean_cov(basis, var[i], pi[i]),
                transform_matrix(basis, pi[i]))
        for stack, row in zip(stacks, rows):
            assert stack[i].shape == row.shape
            assert np.max(np.abs(stack[i] - row)) <= 1e-15
    tables = var[:, :2]  # four 2-arm variance tables
    stacked = per_arm_prevalence(tables)
    assert stacked.shape == (4, 2 * k)
    for i in range(4):
        assert np.max(np.abs(stacked[i] - per_arm_prevalence(tables[i]))) <= 1e-15


@pytest.mark.parametrize("where", [0, 3, -1])
def test_singular_row_anywhere_in_a_stack_is_rejected(where):
    basis = helmert_basis(3)
    pi = precision_prevalence(np.random.default_rng(5).uniform(0.1, 1.0, (6, 3)))
    pi[where] = [0.5, -0.5, 0.0]
    with pytest.raises(ContractError, match="singular"):
        transform_matrix(basis, pi)
    with pytest.raises(ContractError, match="singular"):
        transform_matrix(basis, pi.reshape(2, 3, 3))


def test_ill_conditioned_row_in_a_stack_warns_once():
    basis = helmert_basis(3)
    pi = precision_prevalence(np.random.default_rng(6).uniform(0.1, 1.0, (6, 3)))
    pi[2] = pi[4] = [0.5, -0.5 + 1e-10, 0.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        transform_matrix(basis, pi)
    assert [w.category for w in caught] == [IdentifiabilityWarning]
    assert "ill-conditioned" in str(caught[0].message)
