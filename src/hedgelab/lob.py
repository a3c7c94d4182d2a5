"""Continuous double auction with price-time priority, preopen uncross, expiry.

A book side is a sorted list of entries [sort_key, seq, order_id, volume]
where sort_key is -price for bids and price for asks, and seq is an
arrival counter, so list order is exactly price-time priority and
bisect.insort keeps it that way.  Matching executes at the resting
order's price.  Expiry is bucketed by expires_at; entries that already
traded are skipped lazily when their bucket drains.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import NamedTuple, Optional


class Fill(NamedTuple):
    step: int
    price: float
    volume: int
    buy_id: int
    sell_id: int


@dataclass(frozen=True)
class Order:
    id: int
    side: str  # "bid" or "ask"
    price: float
    volume: int = 1
    placed_at: int = 0
    expires_at: int = 1


class UncrossResult(NamedTuple):
    fills: list
    opening_price: Optional[float]  # None: nothing crossed, last_price kept


class Book:
    """Single-market order book; one instance per session, not thread-shared."""

    __slots__ = ("bids", "asks", "last_price", "step",
                 "_seq", "_next_id", "_expiry", "_expiry_floor")

    def __init__(self, last_price: float = 1.0):
        self.bids = []  # entries [-price, seq, oid, vol], ascending
        self.asks = []  # entries [price, seq, oid, vol], ascending
        self.last_price = last_price
        self.step = 0
        self._seq = 0
        self._next_id = 0
        self._expiry = {}  # expires_at -> [(is_bid, key, seq), ...]
        self._expiry_floor = 0

    def next_order_id(self) -> int:
        oid = self._next_id
        self._next_id += 1
        return oid

    @property
    def best_bid(self) -> Optional[float]:
        return -self.bids[0][0] if self.bids else None

    @property
    def best_ask(self) -> Optional[float]:
        return self.asks[0][0] if self.asks else None

    def _rest(self, is_bid: bool, price: float, vol: int, oid: int,
              expires_at: int) -> None:
        key = -price if is_bid else price
        seq = self._seq
        self._seq += 1
        insort(self.bids if is_bid else self.asks, [key, seq, oid, vol])
        self._expiry.setdefault(expires_at, []).append((is_bid, key, seq))

    def _match(self, is_bid: bool, price: float, vol: int, oid: int,
               fills) -> int:
        """Match an incoming order against the opposite side; returns leftover
        volume.  ``fills`` may be None to skip Fill records (fast path)."""
        opp = self.asks if is_bid else self.bids
        step = self.step
        while vol and opp:
            head = opp[0]
            if is_bid:
                rest_price = head[0]
                if rest_price > price:
                    break
            else:
                rest_price = -head[0]
                if rest_price < price:
                    break
            take = vol if vol < head[3] else head[3]
            head[3] -= take
            vol -= take
            self.last_price = rest_price
            if fills is not None:
                if is_bid:
                    fills.append(Fill(step, rest_price, take, oid, head[2]))
                else:
                    fills.append(Fill(step, rest_price, take, head[2], oid))
            if head[3] == 0:
                opp.pop(0)
        return vol

    def submit(self, is_bid: bool, price: float, ttl: int,
               fills=None, matching: bool = True) -> int:
        """Fast path for session loops: volume-1 order, id auto-assigned.

        Returns the traded volume; pass a list to also capture Fill rows;
        matching=False rests the order unconditionally (preopen phase).
        """
        oid = self._next_id
        self._next_id += 1
        left = self._match(is_bid, price, 1, oid, fills) if matching else 1
        if left:
            self._rest(is_bid, price, left, oid, self.step + ttl)
        return 1 - left


def insert_order(book: Book, order: Order, mode: str = "continuous") -> list:
    """Route one order into the book; returns the fills it produced.

    Continuous mode matches while the price crosses the opposite touch
    (execution at resting prices); preopen mode only rests the order, the
    later uncross produces the fills.
    """
    if order.price <= 0.0:
        raise ValueError("order price must be positive")
    if order.volume < 1:
        raise ValueError("order volume must be a positive integer")
    if order.side not in ("bid", "ask"):
        raise ValueError("order side must be 'bid' or 'ask'")
    if order.expires_at <= order.placed_at:
        raise ValueError("expires_at must exceed placed_at")
    is_bid = order.side == "bid"
    fills: list = []
    if mode == "continuous":
        left = book._match(is_bid, order.price, order.volume, order.id, fills)
    elif mode == "preopen":
        left = order.volume
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if left:
        book._rest(is_bid, order.price, left, order.id, order.expires_at)
    return fills


def uncross(book: Book) -> UncrossResult:
    """Single call-auction clearing: pick the price maximizing matched
    volume (ties toward 1.0, then the lower price), execute everything
    crossing at it, and set last_price to it.  No cross: returns
    opening_price None and leaves the book untouched.
    """
    if not book.bids or not book.asks:
        return UncrossResult([], None)
    bid_prices = [-e[0] for e in book.bids]   # descending
    bid_vols = [e[3] for e in book.bids]
    ask_prices = [e[0] for e in book.asks]    # ascending
    ask_vols = [e[3] for e in book.asks]
    if bid_prices[0] < ask_prices[0]:
        return UncrossResult([], None)

    candidates = sorted(set(bid_prices) | set(ask_prices) | {1.0})
    best_price = None
    best_vol = 0
    for p in candidates:
        demand = sum(v for q, v in zip(bid_prices, bid_vols) if q >= p)
        supply = sum(v for q, v in zip(ask_prices, ask_vols) if q <= p)
        vol = demand if demand < supply else supply
        if vol > best_vol or (vol == best_vol and vol > 0 and
                              (abs(p - 1.0), p) < (abs(best_price - 1.0), best_price)):
            best_price, best_vol = p, vol
    if best_vol == 0:
        return UncrossResult([], None)

    fills: list = []
    remaining = best_vol
    bi = ai = 0
    bid_take = book.bids[0][3]
    ask_take = book.asks[0][3]
    while remaining:
        take = min(bid_take, ask_take, remaining)
        fills.append(Fill(book.step, best_price, take,
                          book.bids[bi][2], book.asks[ai][2]))
        remaining -= take
        bid_take -= take
        ask_take -= take
        if bid_take == 0:
            bi += 1
            if bi < len(book.bids):
                bid_take = book.bids[bi][3]
        if ask_take == 0:
            ai += 1
            if ai < len(book.asks):
                ask_take = book.asks[ai][3]
    # leftover volume on the partially consumed head order stays resting
    if bid_take and bi < len(book.bids):
        book.bids[bi][3] = bid_take
        del book.bids[:bi]
    else:
        del book.bids[:bi]
    if ask_take and ai < len(book.asks):
        book.asks[ai][3] = ask_take
        del book.asks[:ai]
    else:
        del book.asks[:ai]
    book.last_price = best_price
    return UncrossResult(fills, best_price)


def expire_orders(book: Book, now: int) -> None:
    """Drop every resting order with expires_at <= now."""
    expiry = book._expiry
    if not expiry:
        book._expiry_floor = now + 1
        return
    span = now - book._expiry_floor + 1
    if span <= 0:
        return
    if span <= 4 * len(expiry):
        keys = [k for k in range(book._expiry_floor, now + 1) if k in expiry]
    else:
        keys = [k for k in expiry if k <= now]
    for k in keys:
        for is_bid, key, seq in expiry.pop(k):
            side = book.bids if is_bid else book.asks
            i = bisect_left(side, [key, seq])
            if i < len(side) and side[i][0] == key and side[i][1] == seq:
                side.pop(i)
    book._expiry_floor = now + 1

