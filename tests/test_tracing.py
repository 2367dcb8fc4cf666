"""The benchmark's tracer patches names inside the package; an engine
refactor that renames or stops using one would break its traced runs."""

import importlib.util
from pathlib import Path

import pytest

import projmi as pm
from projmi import infomeasures, montecarlo, projective

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def new_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.fixture
def tracer():
    t = new_tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_install_patches_and_uninstall_restores():
    names = [
        (infomeasures, "integrate_mu"),
        (infomeasures, "integrate_product_nu"),
        (infomeasures, "gaussian_expectation"),
        (infomeasures, "gaussian_pair_expectation"),
        (infomeasures, "check_marginal_support"),
        (montecarlo, "substream"),
        (infomeasures.JointDensity, "eval_batch"),
        (projective.LiouvilleDensity, "eval_batch"),
    ]
    before = [getattr(owner, name) for owner, name in names]
    t = new_tracer()
    t.install()
    try:
        patched = [getattr(owner, name) for owner, name in names]
    finally:
        t.uninstall()
    assert all(new is not old for new, old in zip(patched, before))
    assert [getattr(owner, name) for owner, name in names] == before


def test_mi_report_is_one_engine_run(tracer):
    # 10_000 samples run 2 batches; each checks the support once.
    pm.mi_report(pm.maximally_entangled(3), pm.BipartiteDims(3, 3), pm.SamplerConfig(1, 10_000))
    calls = {}
    for layer, *_ in tracer.spans:
        calls[layer] = calls.get(layer, 0) + 1
    assert calls["montecarlo"] == 1
    assert calls["substream"] == calls["integrand"] == calls["mask"] == 2
