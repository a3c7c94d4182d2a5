"""Order book: matching, uncross, expiry, and reference-matcher equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import RefBook, make_order_stream
from hedgelab.lob import (Book, Fill, Order, expire_orders, insert_order,
                          uncross)


def _mk(oid, side, price, vol=1, placed=0, expires=10_000):
    return Order(id=oid, side=side, price=price, volume=vol,
                 placed_at=placed, expires_at=expires)


def _resting(book):
    """Engine book as priority-ordered (is_bid, price, oid, vol) tuples."""
    bids = [(True, -e[0], e[2], e[3]) for e in book.bids]
    asks = [(False, e[0], e[2], e[3]) for e in book.asks]
    return bids, asks


class TestContinuousInsert:
    def test_empty_book_bid_rests(self):
        book = Book()
        fills = insert_order(book, _mk(0, "bid", 1.00))
        assert fills == []
        assert book.best_bid == 1.00
        assert book.best_ask is None

    def test_price_priority_beats_arrival(self):
        # ask 1.00 arrives before ask 0.99; the cheaper ask still fills first
        book = Book()
        insert_order(book, _mk(0, "ask", 1.00))
        insert_order(book, _mk(1, "ask", 0.99))
        fills = insert_order(book, _mk(2, "bid", 1.00))
        assert fills == [Fill(0, 0.99, 1, 2, 1)]
        assert book.last_price == 0.99
        assert book.best_ask == 1.00

    def test_execution_at_resting_price(self):
        book = Book()
        insert_order(book, _mk(0, "ask", 0.97))
        fills = insert_order(book, _mk(1, "bid", 1.05))
        assert fills[0].price == 0.97

    def test_fifo_within_level(self):
        book = Book()
        insert_order(book, _mk(0, "ask", 1.00))
        insert_order(book, _mk(1, "ask", 1.00))
        fills = insert_order(book, _mk(2, "bid", 1.00))
        assert fills == [Fill(0, 1.00, 1, 2, 0)]
        # same-price bids keep arrival order on the book
        book2 = Book()
        insert_order(book2, _mk(0, "bid", 1.00))
        insert_order(book2, _mk(1, "bid", 1.00))
        bids, _ = _resting(book2)
        assert [b[2] for b in bids] == [0, 1]

    def test_partial_fill_walks_levels(self):
        book = Book()
        insert_order(book, _mk(0, "ask", 0.99, vol=2))
        insert_order(book, _mk(1, "ask", 1.01, vol=3))
        fills = insert_order(book, _mk(2, "bid", 1.01, vol=4))
        assert fills == [Fill(0, 0.99, 2, 2, 0), Fill(0, 1.01, 2, 2, 1)]
        _, asks = _resting(book)
        assert asks == [(False, 1.01, 1, 1)]

    def test_residual_rests_after_sweep(self):
        book = Book()
        insert_order(book, _mk(0, "ask", 1.00))
        fills = insert_order(book, _mk(1, "bid", 1.02, vol=3))
        assert sum(f.volume for f in fills) == 1
        bids, _ = _resting(book)
        assert bids == [(True, 1.02, 1, 2)]

    def test_no_cross_no_fill(self):
        book = Book()
        insert_order(book, _mk(0, "ask", 1.01))
        fills = insert_order(book, _mk(1, "bid", 1.00))
        assert fills == []
        assert book.best_bid == 1.00 and book.best_ask == 1.01

    def test_validation_errors(self):
        book = Book()
        with pytest.raises(ValueError):
            insert_order(book, _mk(0, "bid", 0.0))
        with pytest.raises(ValueError):
            insert_order(book, _mk(0, "bid", -1.0))
        with pytest.raises(ValueError):
            insert_order(book, _mk(0, "bid", 1.0, vol=0))
        with pytest.raises(ValueError):
            insert_order(book, Order(id=0, side="buy", price=1.0,
                                     expires_at=5))
        with pytest.raises(ValueError):
            insert_order(book, Order(id=0, side="bid", price=1.0,
                                     placed_at=5, expires_at=5))
        with pytest.raises(ValueError):
            insert_order(book, _mk(0, "bid", 1.0), mode="auction")

    def test_submit_fast_path_matches_insert(self):
        book = Book()
        book.submit(False, 1.00, ttl=100)
        traded = book.submit(True, 1.00, ttl=100)
        assert traded == 1
        assert book.last_price == 1.00
        assert book.best_ask is None  # the resting ask was taken
        assert book.submit(True, 0.90, ttl=100) == 0
        assert book.best_bid == 0.90

    def test_submit_matching_off_rests_crossed(self):
        book = Book()
        book.submit(False, 0.95, ttl=100)
        traded = book.submit(True, 1.05, ttl=100, matching=False)
        assert traded == 0
        assert book.best_bid == 1.05 and book.best_ask == 0.95


class TestUncross:
    def test_tie_breaks_toward_one(self):
        # candidates 1.00 and 1.01 clear the same volume; 1.00 is closer
        # to the fundamental origin so it wins
        book = Book()
        insert_order(book, _mk(0, "bid", 1.02), mode="preopen")
        insert_order(book, _mk(1, "bid", 1.00), mode="preopen")
        insert_order(book, _mk(2, "ask", 0.99), mode="preopen")
        insert_order(book, _mk(3, "ask", 1.01), mode="preopen")
        res = uncross(book)
        assert res.opening_price == 1.00
        assert book.last_price == 1.00
        assert res.fills == [Fill(0, 1.00, 1, 0, 2)]
        bought = sum(f.volume for f in res.fills)
        sold = sum(f.volume for f in res.fills)
        assert bought == sold  # one unit bought, one sold, two traded
        bids, asks = _resting(book)
        assert bids == [(True, 1.00, 1, 1)]
        assert asks == [(False, 1.01, 3, 1)]

    def test_uncrossed_book_is_noop(self):
        book = Book(last_price=1.17)
        insert_order(book, _mk(0, "bid", 0.98), mode="preopen")
        insert_order(book, _mk(1, "ask", 1.02), mode="preopen")
        res = uncross(book)
        assert res.fills == [] and res.opening_price is None
        assert book.last_price == 1.17
        bids, asks = _resting(book)
        assert len(bids) == 1 and len(asks) == 1

    def test_supply_limited(self):
        book = Book()
        for i in range(3):
            insert_order(book, _mk(i, "bid", 1.00), mode="preopen")
        insert_order(book, _mk(3, "ask", 1.00), mode="preopen")
        res = uncross(book)
        assert res.opening_price == 1.00
        assert res.fills == [Fill(0, 1.00, 1, 0, 3)]  # earliest bid trades
        bids, asks = _resting(book)
        assert [b[2] for b in bids] == [1, 2]
        assert asks == []

    def test_empty_or_one_sided(self):
        book = Book()
        assert uncross(book) == ([], None)
        insert_order(book, _mk(0, "bid", 1.0), mode="preopen")
        assert uncross(book).opening_price is None

    def test_partial_head_volume_stays(self):
        book = Book()
        insert_order(book, _mk(0, "bid", 1.05, vol=3), mode="preopen")
        insert_order(book, _mk(1, "ask", 0.95, vol=1), mode="preopen")
        insert_order(book, _mk(2, "ask", 1.00, vol=1), mode="preopen")
        res = uncross(book)
        # demand 3 at any p <= 1.05; supply 2 at p=1.00 -> clears 2 at 1.00
        assert res.opening_price == 1.00
        assert [(f.volume, f.buy_id, f.sell_id) for f in res.fills] == \
            [(1, 0, 1), (1, 0, 2)]
        bids, asks = _resting(book)
        assert bids == [(True, 1.05, 0, 1)]
        assert asks == []

    def test_against_reference_random_books(self):
        rng = np.random.default_rng(7)
        for case in range(200):
            book = Book()
            ref = RefBook()
            n = int(rng.integers(2, 30))
            for i in range(n):
                is_bid = bool(rng.random() < 0.5)
                price = round(float(rng.uniform(0.9, 1.1)), 2)
                vol = int(rng.integers(1, 4))
                insert_order(book, _mk(i, "bid" if is_bid else "ask",
                                       price, vol=vol), mode="preopen")
                ref.insert(i, is_bid, price, vol, ttl=10_000, matching=False)
            res = uncross(book)
            ref_fills, ref_price = ref.uncross()
            assert res.opening_price == ref_price, f"case {case}"
            assert [tuple(f) for f in res.fills] == ref_fills, f"case {case}"
            bids, asks = _resting(book)
            rbids, rasks = ref.snapshot()
            assert bids == rbids and asks == rasks


class TestExpiry:
    def test_boundary_inclusive(self):
        book = Book()
        insert_order(book, _mk(0, "bid", 1.0, expires=5))
        expire_orders(book, now=5)
        assert book.bids == []

    def test_fresh_book_identity(self):
        book = Book()
        insert_order(book, _mk(0, "bid", 1.0, expires=5))
        expire_orders(book, now=0)
        assert book.best_bid == 1.0

    def test_mixed_expiries(self):
        book = Book()
        insert_order(book, _mk(0, "bid", 1.0, expires=3))
        insert_order(book, _mk(1, "bid", 0.99, expires=7))
        expire_orders(book, now=5)
        bids, _ = _resting(book)
        assert [b[2] for b in bids] == [1]

    def test_filled_order_not_double_removed(self):
        book = Book()
        insert_order(book, _mk(0, "ask", 1.0, expires=3))
        insert_order(book, _mk(1, "ask", 1.0, expires=50))
        insert_order(book, _mk(2, "bid", 1.0, expires=9))  # lifts ask 0 (FIFO)
        expire_orders(book, now=3)  # ask 0 already traded; ask 1 shares its
        _, asks = _resting(book)    # price level and must survive
        assert [a[2] for a in asks] == [1]

    def test_expiry_after_gap_in_now(self):
        book = Book()
        for i in range(5):
            insert_order(book, _mk(i, "bid", 1.0 - 0.01 * i,
                                   placed=0, expires=10 + i))
        expire_orders(book, now=2)
        expire_orders(book, now=12)  # jump across several buckets
        bids, _ = _resting(book)
        assert [b[2] for b in bids] == [3, 4]


class TestStreamEquivalence:
    def _run_stream(self, n_orders, seed, expire_every=17):
        prices, is_bid, volumes, ttls = make_order_stream(n_orders, seed)
        book = Book()
        ref = RefBook()
        engine_fills = []
        ref_fills = []
        for i in range(n_orders):
            now = i
            book.step = now
            ref.step = now
            if i % expire_every == 0:
                expire_orders(book, now)
                ref.expire(now)
            order = Order(id=i, side="bid" if is_bid[i] else "ask",
                          price=float(prices[i]), volume=int(volumes[i]),
                          placed_at=now, expires_at=now + int(ttls[i]))
            engine_fills.extend(insert_order(book, order))
            ref_fills.extend(ref.insert(i, bool(is_bid[i]), float(prices[i]),
                                        int(volumes[i]), int(ttls[i])))
            bb, ba = book.best_bid, book.best_ask
            if bb is not None and ba is not None:
                assert bb < ba, f"crossed book after order {i}"
        return book, ref, engine_fills, ref_fills

    def test_fill_sequences_identical(self):
        book, ref, engine_fills, ref_fills = self._run_stream(20_000, seed=3)
        assert [tuple(f) for f in engine_fills] == ref_fills
        bids, asks = _resting(book)
        rbids, rasks = ref.snapshot()
        assert bids == rbids and asks == rasks
        assert len(engine_fills) > 1000  # the stream must actually trade

    def test_conservation(self):
        book, ref, engine_fills, _ = self._run_stream(5_000, seed=11)
        submitted = int(make_order_stream(5_000, 11)[2].sum())
        traded = sum(f.volume for f in engine_fills)
        resting = sum(e[3] for e in book.bids) + sum(e[3] for e in book.asks)
        # each traded unit consumes one unit of buy volume and one of sell
        assert submitted == 2 * traded + resting + ref.expired_volume

    def test_determinism(self):
        _, _, a, _ = self._run_stream(3_000, seed=5)
        _, _, b, _ = self._run_stream(3_000, seed=5)
        assert a == b

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_equivalence_property(self, seed):
        _, _, engine_fills, ref_fills = self._run_stream(600, seed=seed)
        assert [tuple(f) for f in engine_fills] == ref_fills

