"""Tests for the Natto variant ladder."""

from repro.core import natto_cp, natto_lecsf, natto_pa, natto_recsf, natto_ts
from repro.core.config import NattoConfig


def test_ladder_is_cumulative():
    assert natto_ts() == NattoConfig()
    assert natto_lecsf().lecsf and not natto_lecsf().pa
    assert natto_pa().lecsf and natto_pa().pa and not natto_pa().cp
    assert natto_cp().pa and natto_cp().cp and not natto_cp().recsf
    full = natto_recsf()
    assert full.lecsf and full.pa and full.cp and full.recsf


def test_variant_names_match_paper_labels():
    assert natto_ts().variant_name == "Natto-TS"
    assert natto_lecsf().variant_name == "Natto-LECSF"
    assert natto_pa().variant_name == "Natto-PA"
    assert natto_cp().variant_name == "Natto-CP"
    assert natto_recsf().variant_name == "Natto-RECSF"


def test_default_margin_is_small_but_positive():
    config = natto_ts()
    assert 0.0 < config.timestamp_margin < 0.01


def test_overrides():
    config = natto_recsf(timestamp_margin=0.0)
    assert config.timestamp_margin == 0.0
    always_abort = config.with_overrides(pa_skip_rule=False)
    assert always_abort.pa_skip_rule is False
    assert config.pa_skip_rule is True  # frozen original


def test_configs_are_hashable_and_comparable():
    assert natto_pa() == natto_pa()
    assert natto_pa() != natto_cp()
    assert hash(natto_pa()) == hash(natto_pa())
