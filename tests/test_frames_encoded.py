"""Dictionary-encoded columns against plain columns.

Every Column/Frame verb runs on the same seeded labels and integer keys
held both ways — an object or ``int64`` array, and narrow codes plus a
category table (:meth:`Column.from_codes`) — and must give the same
values, kinds, factorizations and serialisations.  Verbs that select
rows keep an encoded column encoded.
"""

import pickle

import numpy as np
import pytest

from repro.errors import FrameError
from repro.frames import Column, Frame, group_by, read_csv_text, to_csv_text
from repro.frames.column import code_dtype
from repro.frames.groupby import pivot_grid

CITIES = np.array(["ams", "jnb", None, "cpt", "dur", "lon"], dtype=object)
PATHS = np.array(["1-2", "1-3-2", "1-4-2", ""], dtype=object)
#: Integer keys: negative, zero, and past what a uint8 code could hold.
DAYS = np.array([20, 3, -7, 3000, 0, 12], dtype=np.int64)


def encode(name, values, kind="object"):
    """The encoded twin of *values*: codes numbered by first appearance."""
    table = {}
    codes = [table.setdefault(v, len(table)) for v in values]
    return Column.from_codes(
        name, np.array(codes, dtype=code_dtype(len(table))), list(table), kind=kind
    )


def encode_int(name, values):
    return encode(name, np.asarray(values, dtype=np.int64), kind="int")


def twin_frames(seed, n=200):
    """``(plain, encoded)`` frames over the same labels and numbers."""
    rng = np.random.default_rng(seed)
    u = CITIES[rng.integers(0, len(CITIES), size=n)]
    v = PATHS[rng.integers(0, len(PATHS), size=n)]
    x = rng.normal(size=n)
    k = rng.integers(0, 5, size=n)
    d = DAYS[rng.integers(0, len(DAYS), size=n)]
    plain = Frame(
        [
            Column("u", u.copy(), kind="object"),
            Column("v", v.copy(), kind="object"),
            Column("x", x.copy()),
            Column("k", k.copy()),
            Column("d", d.copy()),
        ]
    )
    encoded = Frame(
        [
            encode("u", u),
            encode("v", v),
            Column("x", x.copy()),
            Column("k", k.copy()),
            encode_int("d", d),
        ]
    )
    return plain, encoded


def is_encoded(col):
    return col._codes is not None


def assert_same(got: Frame, want: Frame, encoded=("u", "v", "d")):
    """Same schema and values; encoded columns still stored as codes."""
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        if name in encoded:
            assert is_encoded(a), name
        assert a.kind == b.kind, name
        if a.kind == "float":
            np.testing.assert_array_equal(a.values, b.values)
        else:
            assert a.to_list() == b.to_list(), name
            assert [type(x) for x in a.to_list()] == [type(x) for x in b.to_list()]
        assert a.values.dtype == b.values.dtype, name


def assert_same_factorize(got: Column, want: Column):
    got_codes, got_uniques = got.factorize()
    want_codes, want_uniques = want.factorize()
    np.testing.assert_array_equal(got_codes, want_codes)
    assert got_codes.dtype == want_codes.dtype
    assert got_uniques == want_uniques
    assert [type(u) for u in got_uniques] == [type(u) for u in want_uniques]


SEEDS = range(3)


@pytest.mark.parametrize("seed", SEEDS)
class TestVerbParity:
    def test_take(self, seed):
        plain, enc = twin_frames(seed)
        idx = np.random.default_rng(seed + 10).integers(0, plain.num_rows, size=300)
        got, want = enc.take(idx), plain.take(idx)
        assert_same(got, want)
        assert_same_factorize(got.column("u"), want.column("u"))
        assert_same_factorize(got.column("d"), want.column("d"))

    def test_filter(self, seed):
        plain, enc = twin_frames(seed)
        keep = np.random.default_rng(seed + 20).random(plain.num_rows) < 0.4
        got, want = enc.filter(keep), plain.filter(keep)
        assert_same(got, want)
        assert_same_factorize(got.column("v"), want.column("v"))
        assert_same_factorize(got.column("d"), want.column("d"))
        assert_same(enc.filter(np.zeros(plain.num_rows, bool)), plain.head(0))

    def test_concat(self, seed):
        plain, enc = twin_frames(seed)
        plain2, enc2 = twin_frames(seed + 100, n=50)
        got, want = enc.concat(enc2), plain.concat(plain2)
        assert_same(got, want)
        assert_same_factorize(got.column("u"), want.column("u"))
        assert_same_factorize(got.column("d"), want.column("d"))
        assert got.column("d")._categories.dtype == np.int64
        # Mixed storage concatenates to the same values.
        assert_same(enc.concat(plain2), want, encoded=())
        assert_same(plain.concat(enc2), want, encoded=())

    def test_rename(self, seed):
        plain, enc = twin_frames(seed)
        got = enc.rename({"u": "city"})
        want = plain.rename({"u": "city"})
        assert_same(got, want, encoded=("city", "v"))
        assert_same_factorize(got.column("city"), want.column("city"))

    def test_rows(self, seed):
        plain, enc = twin_frames(seed)
        assert list(enc.iter_rows()) == list(plain.iter_rows())
        assert enc.row(-1) == plain.row(-1)
        assert enc.to_text(max_rows=7) == plain.to_text(max_rows=7)
        assert enc.column("u")._values is None  # rows read through the codes

    def test_drop_missing_with_a_none_category(self, seed):
        plain, enc = twin_frames(seed)
        assert None in enc.column("u").factorize()[1]
        np.testing.assert_array_equal(
            enc.column("u").is_missing(), plain.column("u").is_missing()
        )
        got, want = enc.drop_missing(["u"]), plain.drop_missing(["u"])
        assert_same(got, want)
        assert None not in got.column("u").factorize()[1]

    @pytest.mark.parametrize("descending", [False, True])
    def test_sort_by(self, seed, descending):
        plain, enc = twin_frames(seed)
        for keys in (["u"], ["u", "x"], ["v", "u", "k"], ["d"], ["d", "u"]):
            assert_same(
                enc.sort_by(keys, descending=descending),
                plain.sort_by(keys, descending=descending),
            )

    def test_group_by(self, seed):
        plain, enc = twin_frames(seed)
        specs = dict(
            n=("x", "count"), mean=("x", "mean"), first=("v", "first"), uniq=("u", "nunique")
        )
        got = group_by(enc, ["u", "v"]).aggregate(**specs)
        want = group_by(plain, ["u", "v"]).aggregate(**specs)
        assert_same(got, want, encoded=())
        sizes = lambda key, g: {"u": key[0], "n": g.num_rows}
        assert group_by(enc, "u").apply(sizes) == group_by(plain, "u").apply(sizes)
        day_specs = dict(n=("x", "median"), lo=("d", "min"), days=("d", "nunique"))
        assert_same(
            group_by(enc, ["d", "u"]).aggregate(**day_specs),
            group_by(plain, ["d", "u"]).aggregate(**day_specs),
            encoded=(),
        )

    def test_encode_keys(self, seed):
        plain, enc = twin_frames(seed)
        for names in ("u", ["u", "v"], ["v", "k", "u"], "d", ["d", "u"]):
            got_codes, got_keys = enc.encode_keys(names)
            want_codes, want_keys = plain.encode_keys(names)
            np.testing.assert_array_equal(got_codes, want_codes)
            assert got_keys == want_keys

    def test_factorize(self, seed):
        plain, enc = twin_frames(seed)
        for name in ("u", "v", "d"):
            assert_same_factorize(enc.column(name), plain.column(name))
            codes, _ = enc.column(name).factorize()
            assert codes.dtype == np.uint8

    def test_equality(self, seed):
        plain, enc = twin_frames(seed)
        assert enc == plain
        assert plain == enc
        reverse = np.arange(plain.num_rows)[::-1]
        flipped = enc.take(reverse)
        flipped.column("u").factorize()  # renumbers its categories
        assert flipped == plain.take(reverse)
        assert flipped.take(reverse) == enc
        # Another category order encodes the same values.
        a = Column.from_codes("u", np.array([0, 1, 0], dtype=np.uint8), ["x", "y"])
        b = Column.from_codes("u", np.array([1, 0, 1], dtype=np.uint8), ["y", "x"])
        assert a == b
        other = enc.with_column("u", ["zzz"] * plain.num_rows)
        assert other != enc
        assert enc.column("u") != enc.column("v").rename("u")
        days = flipped.column("d")
        days.factorize()
        assert days == plain.column("d").take(reverse)
        a = Column.from_codes("d", np.array([0, 1, 0], dtype=np.uint8), [5, 9], kind="int")
        b = Column.from_codes("d", np.array([1, 0, 1], dtype=np.uint8), [9, 5], kind="int")
        assert a == b and a == Column("d", [5, 9, 5])
        assert a != Column.from_codes("d", np.array([0, 1, 0], dtype=np.uint8), [5, 8], kind="int")
        assert a != Column("d", ["5", "9", "5"])

    def test_pickle_round_trip(self, seed):
        plain, enc = twin_frames(seed)
        taken = enc.take(np.arange(plain.num_rows)[::-1])
        for frame, reference in ((enc, plain), (taken, plain.take(np.arange(plain.num_rows)[::-1]))):
            back = pickle.loads(pickle.dumps(frame))
            assert_same(back, reference)
            assert_same_factorize(back.column("u"), reference.column("u"))
            assert_same_factorize(back.column("d"), reference.column("d"))

    def test_csv_round_trip(self, seed):
        plain, enc = twin_frames(seed)
        text = to_csv_text(enc)
        assert text == to_csv_text(plain)
        assert read_csv_text(text) == read_csv_text(to_csv_text(plain))


def test_int_coded_concat_sorts_numerically():
    """Two int-coded day columns concatenate to an int-coded column.

    Concatenated into an object column, days 9 and 10 would sort as the
    strings ``"10" < "9"`` in a time-sorted pivot.
    """
    first = Frame([encode_int("day", [9, 9]), Column("y", [1.0, 2.0])])
    second = Frame([encode_int("day", [10]), Column("y", [3.0])])
    both = first.concat(second)
    day = both.column("day")
    assert day.kind == "int" and day._codes is not None
    times, _, grid = pivot_grid(
        both.with_column("unit", ["a"] * 3), "day", "unit", "y", agg="median"
    )
    assert times == [9, 10]
    assert all(type(t) is np.int64 for t in times)
    np.testing.assert_array_equal(grid[:, 0], [1.5, 3.0])


def test_int_values_decode_without_keeping_a_copy():
    """An int-coded column never holds an int64 array per row."""
    _, enc = twin_frames(0)
    col = enc.column("d")
    before = col.nbytes
    values = col.values
    assert values.dtype == np.int64 and not values.flags.writeable
    assert col.nbytes == before
    np.testing.assert_array_equal(enc.numeric("d"), values.astype(np.float64))
    assert col.nbytes == before
    assert not col.is_missing().any()


def test_first_appearance_order_after_a_shuffled_take():
    plain, enc = twin_frames(7, n=500)
    order = np.random.default_rng(7).permutation(500)
    got, want = enc.take(order), plain.take(order)
    assert got.column("u").factorize()[1] != enc.column("u").factorize()[1]
    assert_same_factorize(got.column("u"), want.column("u"))
    # The renumbered codes become the column's storage: still equal after.
    assert_same(got, want)


@pytest.mark.parametrize("n_a,n_b", [(20, 20), (17, 16), (300, 300), (256, 257)])
def test_encode_keys_widens_narrow_codes_past_the_key_space(n_a, n_b):
    """Key-space products past 2**8 and 2**16 over uint8/uint16 codes.

    Multiplying the first key's narrow codes by the second key's
    cardinality without widening wraps, merges distinct key pairs, and
    so gives fewer groups than the tuple-hash reference.
    """
    rng = np.random.default_rng(n_a * n_b)
    n = 4 * n_a * n_b // 10 + 50
    a = [f"a{i}" for i in rng.integers(0, n_a, size=n)]
    b = [f"b{i}" for i in rng.integers(0, n_b, size=n)]
    # Make the highest codes appear so the full key space is in use.
    a[-n_a:] = [f"a{i}" for i in range(n_a)]
    b[-n_b:] = [f"b{i}" for i in range(n_b)]
    frame = Frame([encode("a", a), encode("b", b)])
    assert frame.column("a").factorize()[0].dtype == code_dtype(n_a)
    table = {}
    want = [table.setdefault(key, len(table)) for key in zip(a, b)]
    codes, keys = frame.encode_keys(["a", "b"])
    assert keys == list(table)
    np.testing.assert_array_equal(codes, want)
    assert len(group_by(frame, ["a", "b"])) == len(table)


def test_mutation_after_factorize_raises():
    # The memo freezes the storage: silent staleness becomes a loud
    # ValueError at the mutation site instead of wrong groups later.
    col = Column("u", np.array([1.0, 2.0]))
    col.factorize()
    with pytest.raises(ValueError):
        col.values[0] = 9.0


def test_from_codes_validates_its_inputs():
    with pytest.raises(FrameError):
        Column.from_codes("u", np.array([0, 1], dtype=np.int64), ["a", "b"])
    with pytest.raises(FrameError):
        Column.from_codes("u", np.array([0, 2], dtype=np.uint8), ["a", "b"])
    with pytest.raises(FrameError):
        Column.from_codes("u", np.array([0, 1], dtype=np.uint8), ["a", "a"])
    with pytest.raises(FrameError):
        Column.from_codes("d", np.array([0, 1], dtype=np.uint8), [1.5, 2.0], kind="int")
    with pytest.raises(FrameError):
        Column.from_codes("d", np.array([0, 1], dtype=np.uint8), [1, None], kind="int")
    with pytest.raises(FrameError):
        Column.from_codes("x", np.array([0], dtype=np.uint8), [1.0], kind="float")
    ints = Column.from_codes("d", np.empty(0, dtype=np.uint8), [], kind="int")
    assert ints.kind == "int" and ints.values.dtype == np.int64
    empty = Column.from_codes("u", np.empty(0, dtype=np.uint8), [])
    assert len(empty) == 0 and empty.kind == "object"
    assert empty.values.dtype == object and empty.factorize()[1] == []


def test_codes_out_of_first_appearance_order_still_factorize():
    col = Column.from_codes("u", np.array([2, 0, 2, 1], dtype=np.uint8), ["a", "b", "c"])
    codes, uniques = col.factorize()
    np.testing.assert_array_equal(codes, [0, 1, 0, 2])
    assert uniques == ["c", "a", "b"]
    assert col.to_list() == ["c", "a", "c", "b"]


def test_values_decode_once_read_only():
    _, enc = twin_frames(0)
    col = enc.column("u")
    before = col.nbytes
    values = col.values
    assert col.values is values
    assert not values.flags.writeable
    assert col.nbytes == before + values.nbytes
