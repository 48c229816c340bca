"""Tests for the JS/Java bridge and its marshalling rules."""

import pytest

from repro.device.device import MobileDevice
from repro.faults.plan import FaultPlan, FaultRule
from repro.platforms.webview.bridge import JsBridgeObject
from repro.platforms.webview.exceptions import BridgeMarshalError, JsBridgeError
from repro.platforms.webview.platform import WebViewPlatform


class JavaSide:
    """A Java object with a few bridge-shaped methods."""

    def __init__(self):
        self.calls = []

    def add(self, a, b):
        self.calls.append(("add", a, b))
        return a + b

    def greet(self, name):
        return f"hello {name}"

    def explode(self):
        raise RuntimeError("java blew up")

    def return_object(self):
        return {"not": "primitive"}

    not_a_method = 42


@pytest.fixture
def platform(device):
    return WebViewPlatform(device)


@pytest.fixture
def webview(platform):
    return platform.new_webview()


class TestInjection:
    def test_lookup_injected_object(self, webview):
        webview.add_javascript_interface(JavaSide(), "Java")
        window = webview.load_page(lambda w: None)
        assert isinstance(window.bridge_object("Java"), JsBridgeObject)

    def test_unknown_global_raises_reference_error(self, webview):
        window = webview.load_page(lambda w: None)
        with pytest.raises(JsBridgeError, match="not defined"):
            window.bridge_object("Ghost")

    def test_bad_js_name_rejected(self, webview):
        with pytest.raises(ValueError):
            webview.add_javascript_interface(JavaSide(), "not a name")

    def test_names_listed(self, webview):
        webview.add_javascript_interface(JavaSide(), "B")
        webview.add_javascript_interface(JavaSide(), "A")
        assert webview.bridge.names() == ["A", "B"]


class TestMarshalling:
    def test_primitives_cross(self, webview):
        java = JavaSide()
        webview.add_javascript_interface(java, "Java")
        window = webview.load_page(lambda w: None)
        stub = window.bridge_object("Java")
        assert stub.add(1, 2) == 3
        assert stub.greet("js") == "hello js"

    def test_callable_argument_blocked(self, webview):
        webview.add_javascript_interface(JavaSide(), "Java")
        window = webview.load_page(lambda w: None)
        with pytest.raises(BridgeMarshalError, match="cannot cross"):
            window.bridge_object("Java").greet(lambda: None)

    def test_object_argument_blocked(self, webview):
        webview.add_javascript_interface(JavaSide(), "Java")
        window = webview.load_page(lambda w: None)
        with pytest.raises(BridgeMarshalError):
            window.bridge_object("Java").greet({"dict": 1})

    def test_object_return_blocked(self, webview):
        webview.add_javascript_interface(JavaSide(), "Java")
        window = webview.load_page(lambda w: None)
        with pytest.raises(BridgeMarshalError):
            window.bridge_object("Java").return_object()

    def test_java_exception_becomes_untyped_error(self, webview):
        webview.add_javascript_interface(JavaSide(), "Java")
        window = webview.load_page(lambda w: None)
        with pytest.raises(JsBridgeError) as excinfo:
            window.bridge_object("Java").explode()
        assert excinfo.value.java_class == "RuntimeError"
        assert "java blew up" in excinfo.value.java_message

    def test_non_method_attribute_blocked(self, webview):
        webview.add_javascript_interface(JavaSide(), "Java")
        window = webview.load_page(lambda w: None)
        with pytest.raises(BridgeMarshalError, match="not a bridged method"):
            window.bridge_object("Java").not_a_method

    @pytest.mark.parametrize("name", ["Nested", "helper", "hook"])
    def test_callable_that_is_not_a_method_blocked(self, platform, webview, name):
        class JavaWithCallables(JavaSide):
            class Nested:
                pass

            helper = staticmethod(lambda: "static")

            def __init__(self):
                super().__init__()
                self.hook = lambda: "instance attribute"

        webview.add_javascript_interface(JavaWithCallables(), "Java")
        window = webview.load_page(lambda w: None)
        before = platform.clock.now_ms
        with pytest.raises(BridgeMarshalError, match="not a bridged method"):
            getattr(window.bridge_object("Java"), name)
        assert platform.clock.now_ms == before
        assert platform.native_call_counts() == {}
        assert window.bridge_object("Java").add(1, 2) == 3  # methods still cross

    def test_each_crossing_charges_latency(self, platform, webview):
        java = JavaSide()
        webview.add_javascript_interface(java, "Java")
        window = webview.load_page(lambda w: None)
        stub = window.bridge_object("Java")
        before = platform.clock.now_ms
        stub.add(1, 2)
        stub.add(3, 4)
        charged = platform.clock.now_ms - before
        assert charged == pytest.approx(
            2 * platform.native_latency.mean_for("webview.bridge.add")
        )
        assert platform.native_call_counts()["webview.bridge.add"] == 2


class TestCachedStubs:
    """A stub is built on first lookup and reused; each call still crosses."""

    def test_second_lookup_returns_the_same_stub(self, webview):
        webview.add_javascript_interface(JavaSide(), "Java")
        stub = webview.load_page(lambda w: None).bridge_object("Java")
        assert stub.add is stub.add

    def test_cached_stub_still_checks_marshalling(self, webview):
        java = JavaSide()
        webview.add_javascript_interface(java, "Java")
        stub = webview.load_page(lambda w: None).bridge_object("Java")
        assert stub.greet("js") == "hello js"  # caches the stub
        with pytest.raises(BridgeMarshalError, match="cannot cross"):
            stub.greet(["not", "primitive"])
        with pytest.raises(BridgeMarshalError, match="cannot cross"):
            stub.greet(lambda: None)
        assert stub.return_object is stub.return_object
        with pytest.raises(BridgeMarshalError, match="out of"):
            stub.return_object()

    def test_cached_stub_still_raises_under_an_injected_bridge_fault(
        self, commute_trajectory
    ):
        plan = FaultPlan(
            seed=0,
            rules=(FaultRule("webview.bridge", "bridge_fault", 1.0, start_ms=50.0),),
        )
        device = MobileDevice(
            "+915550042", trajectory=commute_trajectory, fault_plan=plan
        )
        platform = WebViewPlatform(device)
        webview = platform.new_webview()
        java = JavaSide()
        webview.add_javascript_interface(java, "Java")
        stub = webview.load_page(lambda w: None).bridge_object("Java")
        assert stub.add(1, 2) == 3  # before the fault window: cached now
        platform.clock.advance(100.0)
        with pytest.raises(JsBridgeError) as excinfo:
            stub.add(3, 4)
        assert excinfo.value.java_class == "BridgeFault"
        assert java.calls == [("add", 1, 2)]  # the lost crossing never ran
        assert platform.native_call_counts()["webview.bridge.add"] == 2

    def test_non_methods_are_never_cached(self, webview):
        webview.add_javascript_interface(JavaSide(), "Java")
        stub = webview.load_page(lambda w: None).bridge_object("Java")
        for _ in range(2):
            with pytest.raises(BridgeMarshalError, match="not a bridged method"):
                stub.not_a_method
