"""Retired spellings: the two legacy forms the facade superseded are gone.

* positional oracle configuration —
  ``InfluenceOracle(graph, counter, 1000, "csr")`` — is rejected;
  configuration is keyword-only;
* the weighted twin oracle class is gone, from the bare ``repro`` package
  and from :mod:`repro.influence` alike; the facade spelling is
  ``open_tracker(semantics=Semantics.WEIGHTED_SUM, weights=...)`` and the
  power-user one ``InfluenceOracle(graph, semantics="weighted_sum",
  weights=...)``.

The supported spellings must not warn.
"""

import importlib
import warnings

import pytest

import repro
from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph


def collect(func):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = func()
    return result, [w for w in caught if w.category is DeprecationWarning]


class TestPositionalOracleConfig:
    def test_positional_config_is_rejected(self):
        graph = TDNGraph()
        with pytest.raises(TypeError):
            InfluenceOracle(graph, None, 1000, "csr")
        with pytest.raises(TypeError):
            InfluenceOracle(graph, None, 500)

    def test_keyword_spelling_never_warns(self):
        oracle, caught = collect(
            lambda: InfluenceOracle(
                TDNGraph(), max_cache_entries=1000, semantics="weighted_sum"
            )
        )
        assert caught == []
        assert oracle.max_cache_entries == 1000
        assert oracle.semantics == "weighted_sum"

    def test_too_many_positionals_rejected(self):
        with pytest.raises(TypeError):
            InfluenceOracle(TDNGraph(), None, 1000, "csr", "extra")


class TestRootWeightedOracleImport:
    def test_bare_package_attribute_is_retired(self):
        with pytest.raises(AttributeError):
            repro.WeightedInfluenceOracle  # noqa: B018
        with pytest.raises(ImportError):
            importlib.import_module("repro.influence.weighted")
        assert not hasattr(repro.influence, "WeightedInfluenceOracle")

    def test_dropped_from_the_advertised_namespace(self):
        assert "WeightedInfluenceOracle" not in repro.__all__
        assert all(hasattr(repro, name) for name in repro.__all__)

    def test_unknown_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            repro.NoSuchThing  # noqa: B018
