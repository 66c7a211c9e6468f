"""The simulated World-Wide Web.

Virtual hosts, HTTP/1.0 transport with fault injection, a
proxy-caching server, CGI, the robot exclusion protocol, and the
synthetic sites the paper's experiments revolve around.  AIDE's tools
speak to this substrate exactly as they would to the 1995 internet —
through GET/HEAD/POST and headers — so every systems issue the paper
discusses (timeouts, moved URLs, robot bans, noisy pages) is
exercisable deterministically.
"""

from .client import (
    FetchResult,
    RobotsUnavailable,
    TooManyRedirects,
    UserAgent,
    robots_from_response,
)
from .http import (
    ConnectionRefused,
    DnsError,
    Headers,
    NetworkError,
    NetworkUnreachable,
    Request,
    Response,
    TimeoutError_,
    make_response,
)
from .guards import (
    AttributeBomb,
    BinaryContent,
    BodyTooLarge,
    CharsetUndecodable,
    ContentGuard,
    ContentGuardError,
    EntityBomb,
    ExpansionBomb,
    GuardLimits,
    HeaderBomb,
    HtmlBudget,
    MarkupDepthExceeded,
    TokenBomb,
)
from .network import FaultPlan, FaultRule, Network, RequestRecord
from .politeness import PolitenessLog
from .proxy import ProxyCache
from .resilience import (
    CircuitBreaker,
    CircuitOpen,
    ResilientAgent,
    RetriesExhausted,
    RetryPolicy,
)
from .robots import RobotsFile, parse_robots_txt
from .server import HttpServer, Page
from .url import Url, canonical_url, join_url, parse_url

__all__ = [
    "FetchResult",
    "RobotsUnavailable",
    "TooManyRedirects",
    "UserAgent",
    "robots_from_response",
    "AttributeBomb",
    "BinaryContent",
    "BodyTooLarge",
    "CharsetUndecodable",
    "ContentGuard",
    "ContentGuardError",
    "EntityBomb",
    "ExpansionBomb",
    "GuardLimits",
    "HeaderBomb",
    "HtmlBudget",
    "MarkupDepthExceeded",
    "TokenBomb",
    "FaultPlan",
    "FaultRule",
    "CircuitBreaker",
    "CircuitOpen",
    "ResilientAgent",
    "RetriesExhausted",
    "RetryPolicy",
    "ConnectionRefused",
    "DnsError",
    "Headers",
    "NetworkError",
    "NetworkUnreachable",
    "Request",
    "Response",
    "TimeoutError_",
    "make_response",
    "Network",
    "RequestRecord",
    "ProxyCache",
    "RobotsFile",
    "parse_robots_txt",
    "PolitenessLog",
    "HttpServer",
    "Page",
    "Url",
    "canonical_url",
    "join_url",
    "parse_url",
]
