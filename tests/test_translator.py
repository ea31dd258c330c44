"""Tests for XPath -> SQL translation: SQL structure, stats, and the
per-encoding axis conditions (execution correctness is covered by the
store and property tests)."""

import pytest

from repro.core.translator import (
    make_translator,
    normalize_steps,
)
from repro.errors import TranslationError, UnsupportedXPathError
from repro.store import XmlStore
from repro.xpath import parse_xpath
from tests.conftest import BIB_XML, counters


def translate(encoding, xpath):
    return make_translator(encoding).translate(xpath, doc=1)


class TestNormalization:
    def test_double_slash_child_merges_to_descendant(self):
        steps = normalize_steps(parse_xpath("//a").steps)
        assert len(steps) == 1
        assert steps[0].axis == "descendant"
        assert steps[0].positional_axis == "child"

    def test_double_slash_attribute_merges(self):
        steps = normalize_steps(parse_xpath("//@id").steps)
        assert len(steps) == 1
        assert steps[0].axis == "attribute-deep"

    def test_regular_steps_untouched(self):
        steps = normalize_steps(parse_xpath("/a/b[1]").steps)
        assert [s.axis for s in steps] == ["child", "child"]
        assert steps[1].positional_axis == "child"

    def test_explicit_descendant_keeps_its_positional_axis(self):
        steps = normalize_steps(parse_xpath("/a/descendant::b[2]").steps)
        assert steps[1].axis == "descendant"
        assert steps[1].positional_axis == "descendant"


class TestCommonShape:
    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_simple_path_is_join_chain(self, encoding):
        translated = translate(encoding, "/bib/book/title")
        assert translated.sql.startswith("SELECT DISTINCT")
        assert translated.stats.joins == 2
        assert translated.result_kind == "node"
        # One doc parameter per node alias.
        assert translated.params.count(1) == 3

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_name_test_parameterised(self, encoding):
        translated = translate(encoding, "/bib")
        assert "tag = ?" in translated.sql
        assert "bib" in translated.params

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_attribute_result_kind(self, encoding):
        translated = translate(encoding, "/bib/book/@year")
        assert translated.result_kind == "attribute"
        assert "attr_" in translated.sql

    def test_relative_path_rejected(self):
        with pytest.raises(TranslationError):
            translate("global", "book/title")

    def test_bare_root_rejected(self):
        with pytest.raises(TranslationError):
            translate("global", "/")

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_midpath_attribute_rejected(self, encoding):
        with pytest.raises(UnsupportedXPathError):
            translate(encoding, "/a/@id/parent::a")

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_existence_predicate_uses_exists(self, encoding):
        translated = translate(encoding, "/bib/book[author]")
        assert "EXISTS (" in translated.sql
        assert translated.stats.exists_subqueries == 1

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_positional_predicate_uses_count(self, encoding):
        # On the child axis the k-th sibling is picked once per parent;
        # on any other axis the preceding axis-mates are counted.
        child = translate(encoding, "/bib/book[2]")
        assert "(SELECT COUNT(*)" not in child.sql
        assert "LIMIT ? OFFSET ?)" in child.sql
        assert child.stats.scalar_subqueries == 1
        sibling = translate(encoding, "/bib/book/following-sibling::book[2]")
        assert "(SELECT COUNT(*)" in sibling.sql
        assert "LIMIT" not in sibling.sql
        assert sibling.stats.scalar_subqueries == 1

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_last_uses_not_exists(self, encoding):
        translated = translate(encoding, "/bib/book[last()]")
        assert "NOT EXISTS (" in translated.sql

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_value_comparison_against_number_casts(self, encoding):
        # xpath_number, not CAST: CAST('t11' AS REAL) is 0, but XPath
        # number('t11') is NaN and every NaN comparison is false.
        translated = translate(encoding, "/bib/book[price < 10]")
        assert "xpath_number(" in translated.sql
        assert "CAST(" not in translated.sql

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_numeric_not_equal_keeps_nan_semantics(self, encoding):
        # NaN != x is *true*, so the != comparison needs an IS NULL
        # disjunct (xpath_number maps NaN to NULL).
        translated = translate(encoding, "/bib/book[price != 10]")
        assert "IS NULL" in translated.sql

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_string_equality_parameterised(self, encoding):
        translated = translate(encoding, "/bib/book[author = 'Smith']")
        assert "Smith" in translated.params

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_contains_uses_instr(self, encoding):
        translated = translate(
            encoding, "/bib/book[contains(title, 'Web')]"
        )
        assert "INSTR(" in translated.sql

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_starts_with_uses_substr(self, encoding):
        translated = translate(
            encoding, "/bib/book[starts-with(title, 'T')]"
        )
        assert "SUBSTR(" in translated.sql

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_string_literal_becomes_parameter(self, encoding):
        # Predicate literals never appear in the SQL text (no quoting
        # or escaping to get wrong); they bind as parameters, and the
        # SQL is shared across literal values.
        translated = translate(
            encoding, "/bib/book[contains(title, \"O'Reilly\")]"
        )
        assert "O'Reilly" not in translated.sql
        assert "O'Reilly" in translated.params
        other = translate(
            encoding, "/bib/book[contains(title, \"Knuth\")]"
        )
        assert other.sql == translated.sql


class TestGlobalEncoding:
    def test_descendant_is_interval(self):
        translated = translate("global", "/bib//title")
        assert ".pos >" in translated.sql
        assert ".endpos" in translated.sql

    def test_following_is_single_comparison(self):
        translated = translate("global", "/bib/book[1]/following::title")
        assert ".pos > " in translated.sql
        assert translated.stats.recursions == 0

    def test_orders_by_pos(self):
        translated = translate("global", "/bib/book")
        assert translated.sql.rstrip().endswith("ORDER BY n1.pos")


class TestDeweyEncoding:
    def test_descendant_uses_successor_range(self):
        translated = translate("dewey", "/bib//title")
        assert "dewey_successor(" in translated.sql

    def test_parent_derived_from_key(self):
        translated = translate("dewey", "/bib/book/title/parent::book")
        assert "dewey_parent(" in translated.sql

    def test_orders_by_key(self):
        translated = translate("dewey", "/bib/book")
        assert translated.sql.rstrip().endswith("ORDER BY n1.dkey")


class TestLocalEncoding:
    def test_descendant_is_one_recursion_whatever_the_depth(self):
        translated = translate("local", "/bib//title")
        assert translated.stats.recursions == 1
        assert translated.sql.count("FROM (WITH RECURSIVE") == 1
        # The walk descends from the whole context set, one level per
        # round, and is the step's FROM item: no EXISTS per candidate,
        # and no document's depth is in the plan.
        assert "EXISTS" not in translated.sql
        assert ".depth + 1" not in translated.sql

    def test_needs_client_order(self):
        """Local has no order column: the plan leaves document order to
        the store, which sorts the rows."""
        translated = translate("local", "/bib/book")
        assert "ORDER BY" not in translated.sql
        store = XmlStore(encoding="local")
        doc = store.load(BIB_XML)
        with counters() as count:
            store.query("/bib/book", doc)
            assert count("query.client_order_sorts") == 1

    def test_sibling_axes_direct(self):
        translated = translate(
            "local", "/bib/book/title/following-sibling::author"
        )
        assert ".lpos >" in translated.sql
        assert translated.stats.recursions == 0

    def test_document_order_positional_untranslatable(self):
        with pytest.raises(TranslationError):
            translate("local", "/bib/book[1]/following::author[2]")

    def test_following_axis_is_triple_expansion(self):
        translated = translate("local", "/bib/book/following::author")
        # ancestor-or-self x following-sibling x descendant-or-self:
        # the candidate's walk up, and nested in it the context's,
        # around one sibling comparison.
        assert translated.stats.exists_subqueries == 1
        assert translated.stats.recursions == 2
        assert translated.sql.count(".lpos < ") == 1

    def test_global_and_dewey_allow_doc_order_positionals(self):
        for encoding in ("global", "dewey"):
            translated = translate(
                encoding, "/bib/book[1]/following::author[2]"
            )
            assert "(SELECT COUNT(*)" in translated.sql


class TestTranslationStatsComparative:
    def test_local_pays_more_for_document_order(self):
        xpath = "/journal/article[3]/following::author"
        costs = {
            name: translate(name, xpath).stats
            .total_relational_operations()
            for name in ("global", "local", "dewey")
        }
        assert costs["local"] > costs["global"]
        assert costs["local"] > costs["dewey"]

    def test_encodings_equal_on_unordered_paths(self):
        xpath = "/journal/article/title"
        costs = {
            name: translate(name, xpath).stats
            .total_relational_operations()
            for name in ("global", "local", "dewey")
        }
        assert costs["global"] == costs["local"] == costs["dewey"]
