"""Exchange membership and session policy.

Traffic exchanges enforce "only one account per IP address" and suspend
accounts that open multiple parallel sessions (Section II-A, Figure
1(c): Otohits detects multiple sessions).  Members come from a skewed
country pool (India, Pakistan, Egypt, Russia, Mexico, Brazil ... per the
paper), which also feeds the shortener services' top-visitor-country
statistics (Table IV).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

__all__ = ["Member", "SessionHandle", "AccountPolicy", "MEMBER_COUNTRY_WEIGHTS", "sample_country"]

#: Country mix of exchange members (Section II-A names these; USA added
#: because Table IV's top visitor country is most often USA).
MEMBER_COUNTRY_WEIGHTS: Dict[str, float] = {
    "US": 30.0,
    "IN": 14.0,
    "PK": 9.0,
    "EG": 6.0,
    "RU": 8.0,
    "MX": 5.0,
    "BR": 9.0,
    "ID": 5.0,
    "MY": 4.0,
    "IR": 3.0,
    "PT": 3.0,
    "BD": 4.0,
}


def sample_country(rng: random.Random) -> str:
    """Draw a member country from the study's demographic mix."""
    total = sum(MEMBER_COUNTRY_WEIGHTS.values())
    point = rng.random() * total
    for country, weight in MEMBER_COUNTRY_WEIGHTS.items():
        point -= weight
        if point <= 0:
            return country
    return "US"


@dataclass
class Member:
    """One exchange member account."""

    member_id: str
    ip_address: str
    country: str
    credits: float = 0.0
    suspended: bool = False
    #: sites this member listed for traffic
    listed_urls: List[str] = field(default_factory=list)


@dataclass
class SessionHandle:
    """An open surf session."""

    member_id: str
    session_id: int


class AccountPolicy:
    """Registration and session enforcement."""

    def __init__(self, allow_multiple_ips: bool = False) -> None:
        self.allow_multiple_ips = allow_multiple_ips
        self._members: Dict[str, Member] = {}
        self._by_ip: Dict[str, str] = {}
        self._open_sessions: Dict[str, Set[int]] = {}
        self._next_session = 1

    # -- registration -----------------------------------------------------
    def register(self, member_id: str, ip_address: str, country: str) -> Member:
        """Register an account; rejects a second account from one IP."""
        if member_id in self._members:
            raise ValueError("member id %r taken" % member_id)
        if not self.allow_multiple_ips and ip_address in self._by_ip:
            raise ValueError("IP %s already has an account" % ip_address)
        member = Member(member_id=member_id, ip_address=ip_address, country=country)
        self._members[member_id] = member
        self._by_ip[ip_address] = member_id
        return member

    def member(self, member_id: str) -> Member:
        return self._members[member_id]

    @property
    def members(self) -> List[Member]:
        return list(self._members.values())

    # -- sessions --------------------------------------------------------------
    def open_session(self, member_id: str) -> Optional[SessionHandle]:
        """Open a surf session; parallel sessions suspend the account.

        Returns None (and suspends) when the member already has an open
        session — the Figure 1(c) behaviour.
        """
        member = self._members[member_id]
        if member.suspended:
            return None
        open_sessions = self._open_sessions.setdefault(member_id, set())
        if open_sessions:
            member.suspended = True
            open_sessions.clear()
            return None
        handle = SessionHandle(member_id=member_id, session_id=self._next_session)
        self._next_session += 1
        open_sessions.add(handle.session_id)
        return handle

    def close_session(self, handle: SessionHandle) -> None:
        sessions = self._open_sessions.get(handle.member_id, set())
        sessions.discard(handle.session_id)
