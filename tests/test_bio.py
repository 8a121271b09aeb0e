import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmla.bio import (
    ASPECT,
    B,
    I,
    O,
    OPINION,
    Span,
    labels_to_spans,
    merge_heads,
    spans_to_labels,
)


def spans(*pairs, kind=ASPECT):
    return [Span(a, b, kind) for a, b in pairs]


def test_span_validation():
    with pytest.raises(ValueError):
        Span(2, 2, ASPECT)
    with pytest.raises(ValueError):
        Span(-1, 2, ASPECT)
    with pytest.raises(ValueError):
        Span(0, 1, "noun")


def test_encode_single_span():
    assert spans_to_labels(6, spans((2, 3)), ASPECT) == "OOBOOO"


def test_encode_two_spans():
    assert spans_to_labels(4, spans((0, 2), (3, 4)), ASPECT) == "BIOB"


def test_encode_rejects_overlap_and_overflow():
    with pytest.raises(ValueError):
        spans_to_labels(5, spans((0, 2), (1, 3)), ASPECT)
    with pytest.raises(ValueError):
        spans_to_labels(3, spans((1, 4)), ASPECT)
    with pytest.raises(ValueError):
        spans_to_labels(3, spans((0, 1)), OPINION)


def test_adjacent_spans_stay_distinct():
    seq = spans_to_labels(4, spans((0, 2), (2, 4)), ASPECT)
    assert seq == "BIBI"
    assert labels_to_spans(seq, ASPECT) == spans((0, 2), (2, 4))


def test_decode_empty_and_runs():
    assert labels_to_spans("OOO", ASPECT) == []
    assert labels_to_spans("BIIOB", ASPECT) == spans((0, 3), (4, 5))


def test_decode_orphan_inside_repairs_to_begin():
    assert labels_to_spans("OII", ASPECT) == spans((1, 3))
    assert labels_to_spans("IOI", OPINION) == spans((0, 1), (2, 3), kind=OPINION)


def test_decode_trailing_span_closed():
    assert labels_to_spans("OBI", ASPECT) == spans((1, 3))


def all_wellformed(n):
    for combo in itertools.product((B, I, O), repeat=n):
        prev = O
        ok = True
        for label in combo:
            if label == I and prev == O:
                ok = False
                break
            prev = label
        if ok:
            yield "".join(combo)


def test_roundtrip_exhaustive_short_lengths():
    """Every sequence, malformed ones included: decoding turns each orphan I
    into B, so a sequence survives the round trip exactly when it is well
    formed."""
    for n in range(1, 8):
        wellformed = set(all_wellformed(n))
        for combo in itertools.product((B, I, O), repeat=n):
            labels = "".join(combo)
            repaired = "".join(B if (l, prev) == (I, O) else l for prev, l in zip(O + labels, labels))
            again = spans_to_labels(n, labels_to_spans(labels, ASPECT), ASPECT)
            assert again == repaired
            assert (labels in wellformed) == (repaired == labels)


def random_disjoint_spans(draw, n):
    cuts = draw(st.lists(st.integers(0, n), min_size=0, max_size=6))
    cuts = sorted(set(cuts))
    out = []
    for a, b in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            out.append((a, b))
    return out


@given(st.data())
def test_roundtrip_random_span_sets(data):
    n = data.draw(st.integers(1, 30))
    pairs = random_disjoint_spans(data.draw, n)
    gold = spans(*pairs)
    seq = spans_to_labels(n, gold, ASPECT)
    assert labels_to_spans(seq, ASPECT) == sorted(gold)


def test_merge_no_conflict():
    merged = merge_heads("OOB", "BOO", [0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
    assert merged == ["B-OP", O, "B-ASP"]


def test_merge_conflict_resolved_by_confidence():
    assert merge_heads(B, B, [0.9], [0.6]) == ["B-ASP"]
    assert merge_heads(B, B, [0.4], [0.6]) == ["B-OP"]


def test_merge_tie_goes_to_aspect():
    assert merge_heads(B, B, [0.7], [0.7]) == ["B-ASP"]


def test_merge_repairs_broken_inside_tags():
    # opinion wins token 1 and orphans the aspect I at token 2
    merged = merge_heads("BII", "OBO", [0.6, 0.3, 0.6], [0.1, 0.8, 0.1])
    assert merged == ["B-ASP", "B-OP", "B-ASP"]


def test_merge_length_mismatch():
    with pytest.raises(ValueError):
        merge_heads("BO", "O", [0.5, 0.5], [0.5])
    with pytest.raises(ValueError):
        merge_heads("O", "BO", [0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        merge_heads("BO", "OO", [0.5, 0.5], [0.5])


def reference_merge_heads(la, lp, conf_a, conf_p):
    """merge_heads as two hand-written loops: resolve conflicts per token,
    then turn each inside tag with no chunk of its kind open into a begin
    tag."""
    tags = {ASPECT: {B: "B-ASP", I: "I-ASP"}, OPINION: {B: "B-OP", I: "I-OP"}}
    begin_of = {t[I]: t[B] for t in tags.values()}
    merged = []
    for i, (a, p) in enumerate(zip(la, lp)):
        if a != O and p != O:
            pick = (ASPECT, a) if conf_a[i] >= conf_p[i] else (OPINION, p)
        elif a != O:
            pick = (ASPECT, a)
        elif p != O:
            pick = (OPINION, p)
        else:
            merged.append(O)
            continue
        merged.append(tags[pick[0]][pick[1]])
    prev = O
    for i, tag in enumerate(merged):
        begin = begin_of.get(tag)
        if begin and prev != tag and prev != begin:
            merged[i] = begin
        prev = merged[i]
    return merged


def test_merge_matches_reference_exhaustive_short_lengths():
    """Every pair of B/I/O strings up to length 4, each with three draws of
    confidences from a set small enough to tie often."""
    rng = random.Random(4)
    for n in range(5):
        for la, lp in itertools.product(map("".join, itertools.product((B, I, O), repeat=n)), repeat=2):
            for _ in range(3):
                conf_a, conf_p = rng.choices((0.3, 0.5, 0.7), k=n), rng.choices((0.3, 0.5, 0.7), k=n)
                assert merge_heads(la, lp, conf_a, conf_p) == reference_merge_heads(la, lp, conf_a, conf_p)


def _merged_well_formed(tags):
    prev = O
    for tag in tags:
        if tag.startswith("I-") and prev != tag and prev != "B-" + tag[2:]:
            return False
        prev = tag
    return True


@given(st.data())
def test_merge_always_well_formed(data):
    n = data.draw(st.integers(1, 12))
    la = data.draw(st.text(alphabet="BIO", min_size=n, max_size=n))
    lp = data.draw(st.text(alphabet="BIO", min_size=n, max_size=n))
    conf_a = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    conf_p = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    merged = merge_heads(la, lp, conf_a, conf_p)
    assert merged == reference_merge_heads(la, lp, conf_a, conf_p)
    assert len(merged) == n
    assert _merged_well_formed(merged)
    assert all(t in ("B-ASP", "I-ASP", "B-OP", "I-OP", O) for t in merged)
