"""Chain algebra against the joint-enumeration oracle (small networks)."""

import pytest

from conftest import explicit_detector, make_config
from enumeration import enumerate_metrics, signature_distribution
from rsop.chain import analyze, resolve_detector
from rsop.config import SensingParams


def build(config, tau, p, p_fa, p_d):
    params = SensingParams(tau=tau, p=p)
    resolved = resolve_detector(config, explicit_detector(p_fa, p_d), None, tau)
    res = analyze(config, params, resolved)
    profiles = res.profiles
    occupancy = res.occupancy
    return params, profiles, occupancy, res


def test_signature_distribution_hand_case():
    # one SU, one free channel, perfect sensing, one stage: transmit w.p. p
    config = make_config(n_su=1, n_pu=1, presence=0.0)
    params, prof, occ, _ = build(config, 5.2e-3, 0.7, 0.0, 0.9)
    kind, chan, stage, prob = signature_distribution(config, params, prof, occ)
    table = {(k, c, s): p for k, c, s, p in zip(kind, chan, stage, prob)}
    assert table[(1, 0, 1)] == pytest.approx(0.7)   # T state
    assert table[(0, -1, 0)] == pytest.approx(0.3)  # TE


def test_pair_collision_case_matches():
    config = make_config(n_su=2, n_pu=2, presence=0.0)
    params, prof, occ, res = build(config, 5.2e-3, 1.0, 0.0, 0.9)
    r, t_i = enumerate_metrics(config, params, prof, occ)
    assert r == pytest.approx(0.5 * (10e-3 - 5.2e-3) / 10e-3, abs=1e-12)
    assert r == pytest.approx(res.throughput, abs=1e-12)
    assert t_i == pytest.approx(res.interference, abs=1e-12)


@pytest.mark.parametrize("n_su", [1, 2, 3])
@pytest.mark.parametrize("n_pu", [1, 2, 3])
def test_two_stage_equivalence_spot(n_su, n_pu):
    presence = [0.3, 0.55, 0.8][:n_pu]
    config = make_config(n_su=n_su, n_pu=n_pu, presence=presence)
    params, prof, occ, res = build(config, 4e-3, 0.7, 0.15, 0.85)
    assert res.n_stages == min(2, n_pu)
    r, t_i = enumerate_metrics(config, params, prof, occ)
    assert res.throughput == pytest.approx(r, abs=1e-9)
    assert res.interference == pytest.approx(t_i, abs=1e-9)
