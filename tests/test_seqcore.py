"""Word tower, closed-form letters, position laws and the 2-kernel."""

from __future__ import annotations

import gc
import importlib
import sys
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from cf2 import (
    Constant,
    DistinctLettersError,
    EpsSpec,
    PositionSet,
    Shift,
    WordTooLargeError,
    build_word,
    kernel,
    kernel_sorted,
    letter_at,
    positions,
    positions_predicted,
    stream_prefix,
)
from conftest import (
    distinct_specs,
    element_prefix,
    eps_specs,
    kernel_oracle_prefixes,
)


class TestSpecParsing:
    def test_forms(self):
        assert str(EpsSpec.parse("(ab)")) == "(ab)"
        assert EpsSpec.parse("a(bc)").preperiod == "a"
        assert EpsSpec.parse("ab(c)").period == "c"
        assert EpsSpec.parse("(aabb)").d == 4

    @pytest.mark.parametrize("bad", ["", "()", "ab", "z(a)", "(aZ)", "a(b)c"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            EpsSpec.parse(bad)


class TestLetterAt:
    def test_period_doubling_prefix(self):
        spec = EpsSpec.parse("(ab)")
        assert letter_at(spec, 0) == "a"
        assert letter_at(spec, 3) == "a"
        assert stream_prefix(spec, 8) == "abaaabab"

    def test_preperiod(self):
        assert letter_at(EpsSpec.parse("a(bc)"), 3) == "c"

    @given(eps_specs())
    def test_first_letter(self, spec):
        assert letter_at(spec, 0) == spec.letter(0)

    @settings.get_profile("thousand")
    @given(eps_specs(max_pre=4, max_per=4), st.integers(min_value=0, max_value=12))
    def test_agrees_with_word_recurrence(self, spec, n):
        word = build_word(spec, n)
        assert all(letter_at(spec, i) == word[i] for i in range(len(word)))


class TestBuildWord:
    def test_base(self):
        assert build_word(EpsSpec.parse("(ab)"), 0) == ""

    def test_small_words(self):
        spec = EpsSpec.parse("(ab)")
        assert build_word(spec, 2) == "aba"
        assert build_word(spec, 3) == "abaaaba"

    @given(eps_specs(), st.integers(min_value=1, max_value=10))
    def test_palindrome_and_length(self, spec, n):
        w = build_word(spec, n)
        assert len(w) == (1 << n) - 1
        assert w == w[::-1]

    @given(eps_specs(), st.integers(min_value=0, max_value=9))
    def test_prefix_chain(self, spec, n):
        assert build_word(spec, n + 1).startswith(build_word(spec, n))

    def test_size_guard(self):
        with pytest.raises(WordTooLargeError):
            build_word(EpsSpec.parse("(ab)"), 40)


class TestStreamPrefix:
    def test_period_doubling(self):
        assert stream_prefix(EpsSpec.parse("(ab)"), 10) == "abaaababab"

    def test_ultimately_constant(self):
        assert stream_prefix(EpsSpec.parse("ab(c)"), 8) == "abacabac"

    def test_two_block(self):
        assert stream_prefix(EpsSpec.parse("(aabb)"), 20) == "aaabaaabaaabaaaaaaab"

    @given(eps_specs(), st.integers(min_value=0, max_value=9))
    def test_matches_words(self, spec, n):
        w = build_word(spec, n)
        assert stream_prefix(spec, len(w)) == w


class TestPositions:
    def test_period_doubling(self):
        spec = EpsSpec.parse("(ab)")
        assert positions(spec, "a", 8).indices == (0, 2, 3, 4, 6)
        assert positions(spec, "b", 8).indices == (1, 5, 7)

    def test_three_letters(self):
        assert positions(EpsSpec.parse("a(bc)"), "c", 12).indices == (3, 11)

    def test_predicted_examples(self):
        spec = EpsSpec.parse("a(bc)")
        assert positions_predicted(spec, 1, 20).indices == (3, 11, 15, 19)
        assert positions_predicted(spec, 0, 12).indices == (1, 5, 7, 9)

    def test_single_period_letter(self):
        # d = 1: the sole period letter fills every post-preperiod slot
        spec = EpsSpec.parse("ab(c)")
        pred = positions_predicted(spec, 0, 64)
        assert pred.indices == positions(spec, "c", 64).indices

    def test_distinctness_hypothesis(self):
        with pytest.raises(DistinctLettersError):
            positions_predicted(EpsSpec.parse("(aa)"), 0, 16)

    def test_position_set_bitset(self):
        assert PositionSet(10, 0b1000001001).indices == (0, 3, 9)
        assert PositionSet(0, 0).indices == ()
        assert positions(EpsSpec.parse("(ab)"), "b", 8) == PositionSet(8, 0b10100010)
        for bits in (-1, 1 << 10):
            with pytest.raises(ValueError):
                PositionSet(10, bits)

    def test_repr_round_trips_past_the_decimal_digit_limit(self):
        # the decimal repr of `bits` raises past 4300 digits (~14,300 bits)
        for horizon in (8, 1 << 16):
            ps = positions(EpsSpec.parse("(ab)"), "a", horizon)
            assert eval(repr(ps), {"PositionSet": PositionSet}) == ps
        assert repr(PositionSet(8, 0b1011101)) == "PositionSet(horizon=8, bits=0x5d)"

    @settings(max_examples=200, deadline=None)
    @given(
        eps_specs(),
        st.one_of(
            st.sampled_from([0, 1]),
            st.integers(min_value=3, max_value=5000).filter(lambda h: h & (h - 1)),
        ),
    )
    @example(EpsSpec.parse("(aabb)"), 1 << 12)
    def test_closed_form_matches_enumeration(self, spec, horizon):
        # an oracle independent of the progression masks: one letter at a time
        prefix = stream_prefix(spec, horizon)
        for letter in spec.alphabet + "z":
            expected = tuple(n for n, c in enumerate(prefix) if c == letter)
            assert positions(spec, letter, horizon).indices == expected

    @settings(max_examples=150, deadline=None)
    @given(distinct_specs(), st.integers(min_value=1, max_value=1 << 14))
    # horizons at and around powers of two and the law's own windows
    # (8, 71, 575, 4607 for a period of three), where clipping bites
    @example(EpsSpec.parse("(abc)"), (1 << 12) - 1)
    @example(EpsSpec.parse("(abc)"), 1 << 12)
    @example(EpsSpec.parse("(abc)"), (1 << 12) + 1)
    @example(EpsSpec.parse("(abc)"), 574)
    @example(EpsSpec.parse("(abc)"), 575)
    @example(EpsSpec.parse("(abc)"), 576)
    @example(EpsSpec.parse("a(bcde)"), (1 << 13) - 1)
    @example(EpsSpec.parse("a(bcde)"), 1 << 13)
    @example(EpsSpec.parse("ab(c)"), (1 << 10) + 1)
    def test_predicted_matches_enumeration(self, spec, horizon):
        for j in range(spec.d):
            pred = positions_predicted(spec, j, horizon)
            enum = positions(spec, spec.period[j], horizon)
            assert pred == enum


class TestKernel:
    def test_period_doubling(self):
        els = kernel(EpsSpec.parse("(ab)"))
        assert els == {Shift(0), Shift(1), Constant("a"), Constant("b")}

    def test_constant_seed(self):
        els = kernel(EpsSpec.parse("(a)"))
        assert len(els) == 1

    def test_oracle_sizes(self):
        for text in ["(ab)", "(a)", "a(bc)", "ab(c)", "(abc)", "a(ba)"]:
            spec = EpsSpec.parse(text)
            assert len(kernel(spec)) == len(kernel_oracle_prefixes(spec))

    @settings(max_examples=120, deadline=None)
    @given(eps_specs(max_pre=2, max_per=3, n_letters=4))
    def test_size_matches_oracle(self, spec):
        assert len(kernel(spec)) == len(kernel_oracle_prefixes(spec))

    @settings(max_examples=60, deadline=None)
    @given(eps_specs(max_pre=2, max_per=3, n_letters=4))
    def test_closure(self, spec):
        # every half-index subsequence of a member is again a member
        horizon = 1 << 10
        els = kernel(spec)
        prefixes = {element_prefix(spec, el, horizon) for el in els}
        half = horizon // 2
        member_heads = {p[:half] for p in prefixes}
        for p in prefixes:
            for r in (0, 1):
                child = tuple(p[2 * n + r] for n in range(half))
                assert child in member_heads

    def test_sorted_listing(self):
        els = kernel_sorted(kernel(EpsSpec.parse("a(bc)")))
        shifts = [e for e in els if isinstance(e, Shift)]
        consts = [e for e in els if isinstance(e, Constant)]
        assert [e.j for e in shifts] == sorted(e.j for e in shifts)
        assert [e.letter for e in consts] == sorted(e.letter for e in consts)


class TestCanonicalSpec:
    def test_primitive_period(self):
        assert EpsSpec.parse("(abab)").canonical() == EpsSpec.parse("(ab)")

    def test_absorbed_preperiod(self):
        # a(ba) spells the same sequence as (ab)
        assert EpsSpec.parse("a(ba)").canonical() == EpsSpec.parse("(ab)")

    @given(eps_specs(), st.integers(min_value=0, max_value=20))
    def test_canonical_preserves_letters(self, spec, n):
        assert spec.canonical().letter(n) == spec.letter(n)

    @given(eps_specs(), st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=40))
    def test_shift_semantics(self, spec, j, n):
        assert spec.shifted(j).letter(n) == spec.letter(j + n)


def _drop_cf2_modules() -> dict:
    names = [k for k in sys.modules if k == "cf2" or k.startswith("cf2.")]
    return {k: sys.modules.pop(k) for k in names}


class TestImport:
    def test_fresh_import_frees_the_previous_copy(self):
        # module-level aliases such as KernelElement must not pin cf2's
        # classes (and through them each module's globals) in typing's
        # cache, or every fresh import keeps the previous copy alive
        saved = _drop_cf2_modules()
        try:
            first = weakref.ref(importlib.import_module("cf2").InvSeries)
            _drop_cf2_modules()
            assert importlib.import_module("cf2").KernelElement is not None
            _drop_cf2_modules()
            gc.collect()
            assert first() is None
        finally:
            _drop_cf2_modules()
            sys.modules.update(saved)
