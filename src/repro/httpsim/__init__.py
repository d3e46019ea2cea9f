"""HTTP simulation layer: messages, server farm, client, HAR capture.

Stands in for the live HTTP(S) traffic the paper captured with Firebug +
NetExport::

    from repro.httpsim import SimHttpServer, SimHttpClient, HarLog

    server = SimHttpServer(registry)
    client = SimHttpClient(server)
    result = client.fetch("http://example.com/", referrer="http://exchange/")
"""

from .client import FetchResult, SimHttpClient
from .har import HarLog
from .message import HttpRequest, HttpResponse
from .server import SimHttpServer

__all__ = [
    "FetchResult",
    "HarLog",
    "HttpRequest",
    "HttpResponse",
    "SimHttpClient",
    "SimHttpServer",
]
