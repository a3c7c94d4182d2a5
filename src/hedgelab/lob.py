"""Continuous double auction with price-time priority, preopen uncross, expiry.

A book side is a binary heap (heapq) of entries [sort_key, seq, order_id,
volume], where sort_key is -price for bids and price for asks and seq is
an arrival counter, so the heap top is the side's price-time priority
head.  Matching executes at the resting order's price.

Expiry is lazy.  Each resting entry is also filed under its expires_at,
and expire_orders marks the entries of every due bucket dead (volume 0)
in place instead of searching them out of the heap; entries that already
traded have volume 0 and are skipped.  A dead entry leaves its heap when
it reaches the top, which is done at once, so a non-empty heap's top is
always live; both heaps are compacted when dead entries outnumber live
ones.  ``Book.bids`` and ``Book.asks`` are priority-ordered copies of the
live entries; session loops read the touch from the heap tops.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
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


def _pop_dead(heap: list) -> int:
    """Pop the dead entries off a heap's top; returns how many it popped."""
    n = 0
    while heap and not heap[0][3]:
        heappop(heap)
        n += 1
    return n


class Book:
    """Single-market order book; one instance per session, not thread-shared."""

    __slots__ = ("bid_heap", "ask_heap", "last_price", "step",
                 "_seq", "_next_id", "_expiry", "_expiry_floor", "_dead")

    def __init__(self, last_price: float = 1.0):
        self.bid_heap = []  # entries [-price, seq, oid, vol], heap-ordered
        self.ask_heap = []  # entries [price, seq, oid, vol], heap-ordered
        self.last_price = last_price
        self.step = 0
        self._seq = 0
        self._next_id = 0
        self._expiry = {}  # expires_at -> [entry, ...]
        self._expiry_floor = 0
        self._dead = 0  # volume-0 entries still inside a heap

    @property
    def bids(self) -> list:
        """Live bid entries in priority order (a sorted copy)."""
        return sorted(e for e in self.bid_heap if e[3])

    @property
    def asks(self) -> list:
        """Live ask entries in priority order (a sorted copy)."""
        return sorted(e for e in self.ask_heap if e[3])

    @property
    def best_bid(self) -> Optional[float]:
        return -self.bid_heap[0][0] if self.bid_heap else None

    @property
    def best_ask(self) -> Optional[float]:
        return self.ask_heap[0][0] if self.ask_heap else None

    def _rest(self, is_bid: bool, price: float, vol: int, oid: int,
              expires_at: int) -> None:
        seq = self._seq
        self._seq += 1
        if is_bid:
            entry = [-price, seq, oid, vol]
            heappush(self.bid_heap, entry)
        else:
            entry = [price, seq, oid, vol]
            heappush(self.ask_heap, entry)
        self._expiry.setdefault(expires_at, []).append(entry)

    def _match(self, is_bid: bool, price: float, vol: int, oid: int,
               fills) -> int:
        """Match an incoming order against the opposite side; returns leftover
        volume.  ``fills`` may be None to skip Fill records (fast path)."""
        opp = self.ask_heap if is_bid else self.bid_heap
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
                heappop(opp)
                self._dead -= _pop_dead(opp)
        return vol

    def submit(self, is_bid: bool, price: float, ttl: int,
               matching: bool = True) -> int:
        """Volume-1 order, id auto-assigned, no Fill records.

        Returns the traded volume; matching=False rests the order
        unconditionally.  Its callers are a session's preopen (which
        rests through it) and the tests; a session's continuous phase
        writes this logic out in its own loop.  This is _match and _rest
        specialised to volume 1.
        """
        oid = self._next_id
        self._next_id = oid + 1
        if is_bid:
            opp = self.ask_heap
            if matching and opp and opp[0][0] <= price:
                self._match(True, price, 1, oid, None)
                return 1
            entry = [-price, self._seq, oid, 1]
            heappush(self.bid_heap, entry)
        else:
            opp = self.bid_heap
            if matching and opp and -opp[0][0] >= price:
                self._match(False, price, 1, oid, None)
                return 1
            entry = [price, self._seq, oid, 1]
            heappush(self.ask_heap, entry)
        self._seq += 1
        expires_at = self.step + ttl
        bucket = self._expiry.get(expires_at)
        if bucket is None:
            self._expiry[expires_at] = [entry]
        else:
            bucket.append(entry)
        return 0


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
    bids, asks = book.bids, book.asks
    if not bids or not asks:
        return UncrossResult([], None)
    bid_prices = [-e[0] for e in bids]   # descending
    bid_vols = [e[3] for e in bids]
    ask_prices = [e[0] for e in asks]    # ascending
    ask_vols = [e[3] for e in asks]
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
    bid_take = bids[0][3]
    ask_take = asks[0][3]
    while remaining:
        take = min(bid_take, ask_take, remaining)
        fills.append(Fill(book.step, best_price, take,
                          bids[bi][2], asks[ai][2]))
        remaining -= take
        bid_take -= take
        ask_take -= take
        if bid_take == 0:
            bids[bi][3] = 0  # traded away: expiry skips it
            bi += 1
            if bi < len(bids):
                bid_take = bids[bi][3]
        if ask_take == 0:
            asks[ai][3] = 0
            ai += 1
            if ai < len(asks):
                ask_take = asks[ai][3]
    # leftover volume on the partially consumed head order stays resting
    if bi < len(bids):
        bids[bi][3] = bid_take
    if ai < len(asks):
        asks[ai][3] = ask_take
    # the live remainder in priority order is already a valid heap
    book.bid_heap[:] = bids[bi:]
    book.ask_heap[:] = asks[ai:]
    book._dead = 0
    book.last_price = best_price
    return UncrossResult(fills, best_price)


def expire_orders(book: Book, now: int) -> None:
    """Retire every resting order with expires_at <= now (marked dead)."""
    floor = book._expiry_floor
    if now < floor:
        return
    book._expiry_floor = now + 1
    expiry = book._expiry
    if now - floor < 4 * len(expiry):
        due = [k for k in range(floor, now + 1) if k in expiry]
    else:
        due = [k for k in expiry if k <= now]
    if not due:
        return
    dead = book._dead
    for k in due:
        for entry in expiry.pop(k):
            if entry[3]:
                entry[3] = 0
                dead += 1
    bids, asks = book.bid_heap, book.ask_heap
    dead -= _pop_dead(bids) + _pop_dead(asks)
    if 2 * dead > len(bids) + len(asks):  # dead outnumber live: compact
        bids[:] = [e for e in bids if e[3]]
        heapify(bids)
        asks[:] = [e for e in asks if e[3]]
        heapify(asks)
        dead = 0
    book._dead = dead
