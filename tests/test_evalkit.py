import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftts import evalkit as ek


def oracle_distance(a, b):
    """Full-matrix DP, written independently of the rolling-row version."""
    n, m = len(a), len(b)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(d[i - 1, j] + 1,
                          d[i, j - 1] + 1,
                          d[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(d[n, m])


# -- cer/wer -----------------------------------------------------------------

def test_cer_identity():
    assert ek.cer("abc", "abc") == 0.0


def test_cer_kitten_sitting():
    assert ek.cer("kitten", "sitting") == 0.5


def test_cer_empty_hypothesis():
    assert ek.cer("ab", "") == 1.0


def test_cer_empty_reference_is_error():
    with pytest.raises(ek.EmptyReferenceError):
        ek.cer("  ", "abc")


def test_wer_identity():
    assert ek.wer("the cat sat", "the cat sat") == 0.0


def test_wer_substitution():
    assert ek.wer("a b c", "a x c") == pytest.approx(1 / 3)


def test_wer_insertion():
    assert ek.wer("a", "a b") == 1.0


def test_whitespace_collapsed_before_scoring():
    assert ek.cer("a  b", "a b") == 0.0
    assert ek.wer("a\t b", "a b") == 0.0


@given(st.text(alphabet="abcd ", max_size=12), st.text(alphabet="abcd ", max_size=12))
@settings(max_examples=300, deadline=None)
def test_distance_matches_oracle(a, b):
    assert ek.edit_distance(list(a), list(b)) == oracle_distance(list(a), list(b))


@given(st.text(alphabet="abc", max_size=10), st.text(alphabet="abc", max_size=10))
@settings(max_examples=100, deadline=None)
def test_distance_symmetry(a, b):
    assert ek.edit_distance(list(a), list(b)) == ek.edit_distance(list(b), list(a))


@given(st.text(alphabet="ab", max_size=8), st.text(alphabet="ab", max_size=8),
       st.text(alphabet="ab", max_size=8))
@settings(max_examples=100, deadline=None)
def test_distance_triangle_inequality(a, b, c):
    ab = ek.edit_distance(list(a), list(b))
    bc = ek.edit_distance(list(b), list(c))
    ac = ek.edit_distance(list(a), list(c))
    assert ac <= ab + bc


LARGE_ALPHABET = [chr(0x900 + i) for i in range(128)]


@pytest.mark.parametrize("alphabet", [list("ab"), LARGE_ALPHABET], ids=["two-letter", "large"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_distance_matches_oracle_long(alphabet, data):
    # draw the lengths first: plain st.lists rarely gets near 200 tokens
    n, m = data.draw(st.integers(0, 200)), data.draw(st.integers(0, 200))
    a = data.draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    b = data.draw(st.lists(st.sampled_from(alphabet), min_size=m, max_size=m))
    want = oracle_distance(a, b)
    assert ek.edit_distance(a, b) == want
    assert ek.edit_distance(b, a) == want


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=60),
       st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=60))
@settings(max_examples=100, deadline=None)
def test_word_distance_matches_oracle(a, b):
    want = oracle_distance(a, b)
    assert ek.edit_distance(a, b) == want
    assert ek.edit_distance(b, a) == want
    if a:
        assert ek.wer(" ".join(a), " ".join(b)) == want / len(a)


@pytest.mark.parametrize("words", [False, True], ids=["chars", "words"])
@pytest.mark.parametrize("n,m", [(1000, 1000), (1500, 1024), (1001, 63), (4000, 2500)])
def test_distance_closed_forms_long(n, m, words):
    rng = random.Random(n * m)
    if words:
        pool_a, pool_b = [f"a{i}" for i in range(40)], [f"b{i}" for i in range(40)]
        a = [rng.choice(pool_a) for _ in range(n)]
        b = [rng.choice(pool_b) for _ in range(m)]
    else:
        a = "".join(rng.choice("abc") for _ in range(n))
        b = "".join(rng.choice("xyz") for _ in range(m))
    assert ek.edit_distance(a, a) == 0
    assert ek.edit_distance(a, a[:0]) == ek.edit_distance(a[:0], a) == n
    assert ek.edit_distance(a, b) == ek.edit_distance(b, a) == max(n, m)


# -- aggregation -----------------------------------------------------------

def rec(uid, dataset="indicsuperb", language="hindi", ref="abcd", hyp="abcd", sim=None):
    return ek.UtteranceRecord(uid, dataset, language, ref, hyp, sim)


def test_single_record_cell_renders_percent():
    # mean rate 0.0616 renders as 6.16 in percent
    r = ek.UtteranceRecord("u1", "indicsuperb", "hindi", "a" * 10000,
                           "a" * 10000, None)
    table = ek.aggregate([r], "cer")
    (mean, count) = table.cells[("indicsuperb", "hindi")]
    assert count == 1
    forced = ek.MetricTable("cer", {("indicsuperb", "hindi"): (0.0616, 1)},
                            ["indicsuperb"], ["hindi"])
    assert "6.16" in ek.render_table(forced, "tsv")


def test_aggregate_mean_of_two():
    table = ek.MetricTable("simo", {}, [], [])
    records = [rec("a", hyp=None, sim=0.4), rec("b", hyp=None, sim=0.6)]
    got = ek.aggregate(records, "simo")
    assert got.cells[("indicsuperb", "hindi")][0] == pytest.approx(0.5)


def test_aggregate_skips_records_without_metric():
    records = [rec("a", hyp="abcd"), rec("b", hyp=None, sim=0.5)]
    table = ek.aggregate(records, "cer")
    assert table.skipped == 1
    assert table.cells[("indicsuperb", "hindi")][1] == 1


def test_aggregate_permutation_invariant():
    records = [rec(f"u{i}", hyp="abxd" if i % 2 else "abcd") for i in range(6)]
    fwd = ek.aggregate(records, "cer")
    rev = ek.aggregate(records[::-1], "cer")
    assert fwd.cells == rev.cells


def test_simo_mode_ignores_hypothesis_text():
    records = [ek.UtteranceRecord("u1", "d", "l", "ref text", None, 0.7291)]
    table = ek.aggregate(records, "simo")
    assert table.cells[("d", "l")][0] == pytest.approx(0.7291)


# -- rendering ---------------------------------------------------------------

def test_render_missing_cell_as_dashes():
    table = ek.MetricTable("cer", {("commonvoice", "hindi"): (0.1167, 3)},
                           ["commonvoice"], ["gujarati", "hindi"])
    out = ek.render_table(table, "tsv")
    row = out.splitlines()[1].split("\t")
    assert row == ["commonvoice", "--", "11.67"]


def test_render_simo_four_decimals():
    table = ek.MetricTable("simo", {("indicsuperb", "hindi"): (0.7291, 20)},
                           ["indicsuperb"], ["hindi"])
    assert "0.7291" in ek.render_table(table, "tsv")


def test_render_single_cell_markdown():
    table = ek.MetricTable("cer", {("d", "l"): (0.05, 1)}, ["d"], ["l"])
    out = ek.render_table(table, "markdown")
    assert out.splitlines()[2] == "| d | 5.00 |"


def test_render_deterministic_bytes():
    table = ek.MetricTable("wer", {("d", "l"): (0.333333, 3)}, ["d"], ["l"])
    assert ek.render_table(table, "tsv") == ek.render_table(table, "tsv")


# -- manifest ----------------------------------------------------------------

def test_read_manifest_round_trip(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
                 "u1\tindicsuperb\thindi\tabcd\tabxd\t\n"
                 "u2\tindicsuperb\thindi\tabcd\t\t0.7291\n", encoding="utf-8")
    records = ek.read_manifest(p)
    assert len(records) == 2
    assert records[0].hypothesis == "abxd"
    assert records[1].sim_o == pytest.approx(0.7291)


def test_read_manifest_reports_line_numbers(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
                 "u1\tindicsuperb\thindi\tabcd\tabxd\t\n"
                 "u2\tonly three\tcolumns\n", encoding="utf-8")
    with pytest.raises(ek.ManifestError, match="line 3"):
        ek.read_manifest(p)


def test_read_manifest_duplicate_id(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
                 "u1\td\tl\tr\th\t\n"
                 "u1\td\tl\tr\th\t\n", encoding="utf-8")
    with pytest.raises(ek.ManifestError, match="duplicate"):
        ek.read_manifest(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_read_manifest_rejects_non_finite_sim_o(tmp_path, value):
    p = tmp_path / "m.tsv"
    p.write_text("id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
                 "u1\td\tl\tr\t\t0.5\n"
                 f"u2\td\tl\tr\t\t{value}\n", encoding="utf-8")
    with pytest.raises(ek.ManifestError, match="line 3"):
        ek.read_manifest(p)


def test_read_manifest_unreadable_file_names_the_file(tmp_path):
    with pytest.raises(ek.ManifestError, match="absent.tsv"):
        ek.read_manifest(tmp_path / "absent.tsv")
    p = tmp_path / "latin1.tsv"
    p.write_bytes(("id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
                   "u1\td\tl\tcaf\xe9\t\t\n").encode("latin-1"))
    with pytest.raises(ek.ManifestError, match="latin1.tsv"):
        ek.read_manifest(p)


# a multi-byte character, so that truncations also split a UTF-8 sequence
MANIFEST_BLOB = ("id\tdataset\tlanguage\treference\thypothesis\tsim_o\n"
                 "u1\tindicsuperb\thindi\tनमस्ते\tabxd\t\n"
                 "u2\tindicsuperb\thindi\tabcd\t\t0.7291\n").encode("utf-8")


def _load_manifest_bytes(path, blob):
    path.write_bytes(blob)
    try:
        return ek.read_manifest(path)
    except ek.ManifestError:
        return None


def test_every_manifest_truncation_loads_or_raises_manifest_error(tmp_path):
    p = tmp_path / "cut.tsv"
    for n in range(len(MANIFEST_BLOB)):
        _load_manifest_bytes(p, MANIFEST_BLOB[:n])


@settings(max_examples=100, deadline=None)
@given(extra=st.binary(min_size=1, max_size=16))
def test_manifest_appended_bytes_load_or_raise_manifest_error(tmp_path_factory, extra):
    _load_manifest_bytes(tmp_path_factory.getbasetemp() / "long.tsv", MANIFEST_BLOB + extra)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_manifest_single_byte_change_loads_or_raises_manifest_error(tmp_path_factory, data):
    pos = data.draw(st.integers(0, len(MANIFEST_BLOB) - 1), label="pos")
    blob = bytearray(MANIFEST_BLOB)
    blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    records = _load_manifest_bytes(tmp_path_factory.getbasetemp() / "flipped.tsv", bytes(blob))
    if records is not None:
        assert all(r.hypothesis is not None or r.sim_o is not None for r in records)
