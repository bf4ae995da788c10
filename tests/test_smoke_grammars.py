"""The two classic non-context-free smoke tests: equal letter runs and
matched tag names."""

import gc
import tracemalloc

from txpeg.demos.smoke import anbncn_grammar, tags_grammar
from txpeg.grammar import run_parse

ANBNCN = anbncn_grammar()
TAGS = tags_grammar()


def perturbations(text, alphabet):
    """Every single-character substitution, insertion, and deletion."""
    out = set()
    for i in range(len(text)):
        for c in alphabet:
            if c != text[i]:
                out.add(text[:i] + c + text[i + 1:])
        out.add(text[:i] + text[i + 1:])
    for i in range(len(text) + 1):
        for c in alphabet:
            out.add(text[:i] + c + text[i:])
    out.discard(text)
    return out


def test_equal_runs_accepted_up_to_one_hundred():
    for n in range(101):
        text = "a" * n + "b" * n + "c" * n
        assert run_parse(ANBNCN, text).success, n


def test_every_neighbor_of_a_valid_word_is_rejected():
    for variant in perturbations("aabbcc", "abc"):
        assert not run_parse(ANBNCN, variant).success, variant


def test_unequal_runs_report_the_expected_count():
    out = run_parse(ANBNCN, "aabbbcc")
    assert not out.success
    assert "exactly 2 'b'" in out.error.message

    out = run_parse(ANBNCN, "aabbc")
    assert not out.success
    assert out.error.position == 5
    assert "exactly 2 'c'" in out.error.message


def test_stray_characters_fail_the_full_match():
    out = run_parse(ANBNCN, "aabbccx")
    assert not out.success
    assert out.error.message == "expected end of input"


def test_matched_tags_accepted():
    assert run_parse(TAGS, "<a></a>").success
    assert run_parse(TAGS, "<foo><bar></bar></foo>").success
    assert run_parse(TAGS, "<a><b><c></c></b></a>").success
    assert run_parse(TAGS, "<a><b></b><c></c></a>").success


def test_mismatched_closer_fails_at_its_name():
    out = run_parse(TAGS, "<foo></bar>")
    assert not out.success
    assert out.error.position == 7
    assert "closing tag for 'foo'" in out.error.message


def test_structural_tag_errors():
    assert not run_parse(TAGS, "<foo>").success
    assert not run_parse(TAGS, "</foo>").success
    assert not run_parse(TAGS, "<foo></foo").success
    assert not run_parse(TAGS, "<a><b></a></b>").success


def test_sibling_scopes_do_not_leak():
    # The closer of the outer element must still match after a complete
    # inner element pushed and popped its own name.
    assert run_parse(TAGS, "<out><in></in></out>").success
    assert not run_parse(TAGS, "<out><in></in></in>").success


def peak_kib(grammar, text):
    """The tracemalloc peak of one successful parse of ``text``, in KiB."""
    gc.collect()
    tracemalloc.start()
    try:
        assert run_parse(grammar, text).success
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_a_tag_parse_peaks_by_its_nesting_not_its_length():
    # A root holding sections of one paragraph each: three deep at most.
    def tree(elements):
        return "<doc>" + "<sec><p></p></sec>" * ((elements - 1) // 2) + "</doc>"

    # The state is a tag stack three deep; the parse keeps no copy of the
    # input, so four times the elements peaks no higher.
    small, large = peak_kib(TAGS, tree(1_201)), peak_kib(TAGS, tree(5_001))
    assert abs(large - small) < 1, (small, large)


def test_an_equal_runs_parse_peaks_by_its_state_not_its_run_lengths():
    # Each run is recalled by its length, never by its text.
    def word(n):
        return "a" * n + "b" * n + "c" * n

    small, large = peak_kib(ANBNCN, word(250)), peak_kib(ANBNCN, word(4_000))
    assert abs(large - small) < 1, (small, large)
