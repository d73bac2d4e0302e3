"""Unit tests for the Modular Component Architecture."""

import pytest

from repro.mca.component import Component, component_of
from repro.mca.framework import Framework
from repro.mca.params import MCAParams
from repro.mca.registry import FrameworkRegistry, default_registry
from repro.util.errors import ComponentNotFoundError, ComponentSelectError


@component_of("demo", "alpha", priority=10)
class Alpha(Component):
    pass


@component_of("demo", "beta", priority=20)
class Beta(Component):
    pass


@component_of("demo", "picky", priority=99)
class Picky(Component):
    def query(self, context=None):
        return context == "special"


class TestMCAParams:
    def test_set_get_roundtrip(self):
        params = MCAParams()
        params.set("a", 1)
        params.set("b", "text")
        params.set("c", True)
        assert params.get("a") == "1"
        assert params.get_int("a") == 1
        assert params.get("b") == "text"
        assert params.get_bool("c") is True

    def test_defaults(self):
        params = MCAParams()
        assert params.get("missing") is None
        assert params.get_int("missing", 7) == 7
        assert params.get_float("missing", 1.5) == 1.5
        assert params.get_bool("missing", True) is True
        assert params.get_list("missing", ["x"]) == ["x"]

    def test_bool_parsing(self):
        params = MCAParams({"a": "yes", "b": "0", "c": "ON", "d": "off"})
        assert params.get_bool("a") and params.get_bool("c")
        assert not params.get_bool("b") and not params.get_bool("d")

    def test_list_parsing(self):
        params = MCAParams({"btl": "tcp, sm ,ib"})
        assert params.get_list("btl") == ["tcp", "sm", "ib"]

    def test_bad_int_raises(self):
        params = MCAParams({"n": "abc"})
        with pytest.raises(ValueError):
            params.get_int("n")

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            MCAParams().set("", 1)

    def test_dict_roundtrip_and_copy(self):
        params = MCAParams({"x": "1", "y": "z"})
        clone = MCAParams.from_dict(params.to_dict())
        assert clone == params
        copied = params.copy()
        copied.set("x", "2")
        assert params.get("x") == "1"

    def test_container_protocol(self):
        params = MCAParams({"x": 1})
        assert "x" in params and "y" not in params
        assert len(params) == 1
        assert list(params) == ["x"]


class TestFramework:
    def _framework(self) -> Framework:
        fw: Framework = Framework("demo")
        fw.register(Alpha)
        fw.register(Beta)
        fw.register(Picky)
        return fw

    def test_priority_selection(self):
        fw = self._framework()
        winner = fw.open(MCAParams())
        assert winner.name == "beta"  # picky declines, beta beats alpha
        assert winner.is_open

    def test_forced_selection(self):
        fw = self._framework()
        winner = fw.open(MCAParams({"demo": "alpha"}))
        assert winner.name == "alpha"

    def test_forced_unknown_component(self):
        fw = self._framework()
        with pytest.raises(ComponentNotFoundError):
            fw.open(MCAParams({"demo": "nope"}))

    def test_forced_unavailable_component(self):
        fw = self._framework()
        with pytest.raises(ComponentSelectError):
            fw.open(MCAParams({"demo": "picky"}))

    def test_query_context_unlocks_component(self):
        fw = self._framework()
        winner = fw.open(MCAParams(), context="special")
        assert winner.name == "picky"

    def test_module_requires_open(self):
        fw = self._framework()
        with pytest.raises(ComponentSelectError):
            _ = fw.module
        fw.open(MCAParams())
        assert fw.module.name == "beta"

    def test_close(self):
        fw = self._framework()
        fw.open(MCAParams())
        fw.close()
        assert not fw.is_open

    def test_duplicate_registration_rejected(self):
        fw: Framework = Framework("demo")
        fw.register(Alpha)
        with pytest.raises(ValueError):
            fw.register(Alpha)

    def test_open_all_and_include_list(self):
        fw = self._framework()
        every = fw.open_all(MCAParams())
        assert [c.name for c in every] == ["beta", "alpha"]
        subset = fw.open_all(MCAParams({"demo": "alpha"}))
        assert [c.name for c in subset] == ["alpha"]

    def test_open_all_empty_is_error(self):
        fw: Framework = Framework("demo")
        fw.register(Picky)
        with pytest.raises(ComponentSelectError):
            fw.open_all(MCAParams())


class TestComponent:
    def test_ft_event_default_noop(self):
        Alpha().ft_event(1)  # must not raise

    def test_factory_without_name_rejected(self):
        fw: Framework = Framework("demo")
        with pytest.raises(ValueError):
            fw.register(Component)


class TestRegistry:
    def test_define_and_lookup(self):
        reg = FrameworkRegistry()
        reg.define("demo")
        reg.add_component("demo", Alpha)
        assert "demo" in reg
        assert reg.framework("demo").component_names == ["alpha"]

    def test_duplicate_define_rejected(self):
        reg = FrameworkRegistry()
        reg.define("demo")
        with pytest.raises(ValueError):
            reg.define("demo")

    def test_unknown_framework(self):
        with pytest.raises(KeyError):
            FrameworkRegistry().framework("nope")

    def test_default_registry_has_paper_frameworks(self):
        reg = default_registry()
        for name in ("crs", "snapc", "filem", "plm", "pml", "btl", "crcp", "coll"):
            assert name in reg, name

    def test_default_registry_component_sets(self):
        reg = default_registry()
        assert set(reg.framework("crs").component_names) == {"simcr", "self", "none"}
        assert set(reg.framework("crcp").component_names) == {
            "coord",
            "none",
            "twophase",
        }
        assert set(reg.framework("btl").component_names) == {"tcp", "ib", "sm"}
        assert set(reg.framework("filem").component_names) == {"rsh", "shared"}
        assert set(reg.framework("snapc").component_names) == {"full", "none"}
