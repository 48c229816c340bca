#!/usr/bin/env python
"""Inside the WebView proxy machinery (paper Figure 6).

Walks the three steps of the JavaScript proxy implementation and shows
*why* the design exists by hitting the bridge's constraints directly:

1. a JS function cannot cross the bridge (BridgeMarshalError),
2. Java exceptions reach JS untyped — proxies convert them to error codes,
3. asynchronous results flow through the Notification Table, drained by
   the ``notifHandler`` polling loop.

Run:  python examples/webview_bridge.py
"""

from repro.apps.workforce import scenario
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies.sms.webview import SmsProxyJs
from repro.errors import ProxyPermissionError
from repro.platforms.webview.exceptions import BridgeMarshalError, JsBridgeError


def main():
    sc = scenario.build_webview()
    context = sc.new_context()
    webview = sc.platform.new_webview()

    # The plugin's platform extension injects the Java side.
    extension = WebViewPlatformExtension()
    extension.install_wrappers(webview, sc.platform, context, ["Sms"])
    print("Injected Java objects:", webview.bridge.names())

    def page(window):
        print("\n== 1. Callbacks cannot cross the bridge ==")
        sms_wrapper = window.bridge_object("SmsWrapper")
        try:
            sms_wrapper.send_text_message(1, "+1", (lambda: None))
        except BridgeMarshalError as error:
            print(f"  BridgeMarshalError: {error}")

        print("\n== 2. Raw Java exceptions arrive untyped ==")
        try:
            sms_wrapper.get_notifications(12345)  # wrong type inside Java
        except JsBridgeError as error:
            print(f"  JsBridgeError: java class={error.java_class!r}")
        except Exception as error:  # depending on path, marshal error
            print(f"  {type(error).__name__}: {error}")

        print("\n== 3. The proxy: factory -> handle -> notification table ==")
        proxy = SmsProxyJs.in_page(window)
        print(f"  wrapper instance handle (the figure's 'swi'): {proxy._swi}")
        events = []
        message_id = proxy.send_text_message(
            "+915550001",
            "polled hello",
            lambda event, mid, reason: events.append((event, mid)),
        )
        print(f"  sent message {message_id}; polling for status...")
        window.set_global("events", events)

    window = webview.load_page(page)
    sc.platform.run_for(10_000.0)
    print(f"  status events delivered by polling: {window.get_global('events')}")
    print(
        f"  notifications posted Java-side: "
        f"{sc.platform.notification_table.total_posted}"
    )

    print("\n== 4. Proxies turn Java exceptions into stable error codes ==")
    sc.platform.android.install("noperm", set())
    webview2 = sc.platform.new_webview()
    extension.install_wrappers(
        webview2, sc.platform, sc.platform.android.new_context("noperm"), ["Sms"]
    )

    def page2(window):
        proxy = SmsProxyJs.in_page(window)
        try:
            proxy.send_text_message("+1", "will be denied")
        except ProxyPermissionError as error:
            print(f"  ProxyPermissionError (code {type(error).error_code}): {error}")

    webview2.load_page(page2)


if __name__ == "__main__":
    main()
