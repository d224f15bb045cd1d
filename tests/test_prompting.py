import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ann
from oracles import build_prompt_text
from querydistill.annotations import Annotation, Confidence, render_annotation
from querydistill.errors import UnparseableResponseError
from querydistill.llm_client import ResponseCache, prompt_keys
from querydistill.personas import Persona, default_personas
from querydistill.prompting import (PromptConfig, PromptFrame, PromptVariant,
                                    build_prompt, parse_response)
from querydistill.synth import synth_registry
from querydistill.taxonomy import EntityRegistry, default_registry


def config(variant, **kwargs):
    return PromptConfig(variant=variant, **kwargs)


class TestBuildPrompt:
    def test_baseline_has_no_optional_sections(self, registry):
        prompt = build_prompt(config(PromptVariant.BASELINE), registry,
                              "comedy movies")
        assert prompt.sections == ("instruction", "entity_definitions",
                                   "output_format", "query")
        assert "Step 1:" not in prompt.text
        assert "entity examples:" not in prompt.text
        assert "state your confidence" not in prompt.text
        assert "comedy movies" in prompt.text
        assert "Genre:" in prompt.text

    def test_icl_block_lists_audio_languages(self, registry):
        prompt = build_prompt(config(PromptVariant.CONFIDENCE_COT_ICL),
                              registry, "french movies")
        assert "Arabic, Bangla, Chinese, English" in prompt.text
        match = re.search(r"AudioLanguage entity examples: ([^\n]+)", prompt.text)
        assert match is not None
        assert match.group(1).startswith("Arabic, Bangla, Chinese, English")

    def test_persona_description_leads_the_prompt(self, registry):
        merchandiser = {p.id: p for p in default_personas()}["merchandiser"]
        prompt = build_prompt(config(PromptVariant.CONFIDENCE_COT), registry,
                              "kids shows", merchandiser)
        assert prompt.text.startswith(merchandiser.description)
        assert merchandiser.description.startswith("You are a merchandiser")
        assert prompt.sections[0] == "persona"
        assert PromptFrame(config(PromptVariant.CONFIDENCE_COT), registry,
                           merchandiser).persona_id == "merchandiser"

    def test_cot_block_one_step_per_entity_plus_none(self, registry):
        prompt = build_prompt(config(PromptVariant.CONFIDENCE_COT), registry,
                              "french movies")
        steps = re.findall(r"^Step (\d+):", prompt.text, re.MULTILINE)
        assert len(steps) == len(registry) + 1
        assert steps == [str(i) for i in range(1, len(registry) + 2)]
        assert f"Step {len(registry) + 1}: Assign the label None" in prompt.text

    def test_pure_function(self, registry):
        a = build_prompt(config(PromptVariant.CONFIDENCE_COT_ICL), registry, "q1")
        b = build_prompt(config(PromptVariant.CONFIDENCE_COT_ICL), registry, "q1")
        assert a.text == b.text
        assert a.sections == b.sections

    def test_sections_monotone_over_variants(self, registry):
        previous = None
        for variant in PromptVariant:
            sections = set(build_prompt(config(variant), registry, "q").sections)
            if previous is not None:
                assert previous < sections
            previous = sections

    def test_icl_respects_example_cap(self, registry):
        prompt = build_prompt(
            config(PromptVariant.CONFIDENCE_COT_ICL,
                   max_icl_examples_per_entity=2),
            registry, "french movies")
        match = re.search(r"AudioLanguage entity examples: ([^\n]+)", prompt.text)
        assert match.group(1) == "Arabic, Bangla, etc."

    def test_empty_query_rejected(self, registry):
        with pytest.raises(ValueError):
            build_prompt(config(PromptVariant.BASELINE), registry, "  ")

    def test_registries_with_same_ids_get_their_own_sections(self,
                                                              tiny_registry):
        # Registries that share ids (and so a hash) but not definitions or
        # examples get their own sections, and equal registries render
        # equal prompts.
        genre = tiny_registry.entities[0]
        other = EntityRegistry(entities=(
            replace(genre, definition="a different genre text",
                    icl_examples=("western",)),) + tiny_registry.entities[1:])
        copy = EntityRegistry(entities=tiny_registry.entities)
        assert other.hash == tiny_registry.hash
        full = config(PromptVariant.CONFIDENCE_COT_ICL)
        first = build_prompt(full, tiny_registry, "q").text
        second = build_prompt(full, other, "q").text
        assert "a different genre text" in second and "western" in second
        assert "a different genre text" not in first and "western" not in first
        assert build_prompt(full, copy, "q").text == first

    def test_registry_hash_pinning(self, registry, tiny_registry):
        pinned = config(PromptVariant.BASELINE, registry_hash=registry.hash)
        build_prompt(pinned, registry, "q")
        from querydistill.errors import ModelError
        with pytest.raises(ModelError):
            build_prompt(pinned, tiny_registry, "q")


# The personas ``querydistill synth`` writes, one whose description holds
# template syntax that must stay literal, and no persona at all.
_PERSONAS = [None] + [
    Persona(id=pid, name=pid.title(), category=category,
            description=f"You are a {pid} who annotates search queries.")
    for pid, category in (("generalist", "Expert"),
                          ("enthusiast", "NicheExpert"),
                          ("skeptic", "NonDomainExpert"))] + [
    Persona(id="literal", name="Literal", category="Expert",
            description="Echo {query} and {{query}} and {persona} verbatim.")]

# The shipped template (None) and custom ones: {query} in the middle,
# twice, absent, next to escaped braces, and beside other fields' specs.
_TEMPLATES = [
    None,
    "{persona}Query: {query}\n{entity_definitions}\nAnswer:",
    "{query} | {query}{icl_block}",
    "{persona}{cot_steps}no query here{confidence_instruction}",
    "{{{query}}} {{query}} {{{{{query}}}}}{persona!s:>3}",
    "{query}",
]

# Queries with non-ASCII text and braces, which must reach the prompt as
# written. Surrogates are left out: no UTF-8 input decodes to one.
_QUERIES = st.text(
    alphabet=st.one_of(st.sampled_from("{}qé漢 \n!:"),
                       st.characters(blacklist_categories=("Cs",))),
    min_size=1, max_size=30).filter(str.strip)


_SYNTH_REGISTRY = synth_registry()


class TestPromptFrame:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(variant=st.sampled_from(list(PromptVariant)),
           persona=st.sampled_from(_PERSONAS),
           template=st.sampled_from(_TEMPLATES),
           query=_QUERIES,
           model=st.sampled_from(["mock-0123456789ab", "m\u00e9\u6f22", ""]))
    def test_render_and_key_match_one_format_per_prompt(
            self, variant, persona, template, query, model):
        registry = _SYNTH_REGISTRY
        config = PromptConfig(variant=variant, registry_hash=registry.hash)
        frame = PromptFrame(config, registry, persona, template)
        expected = build_prompt_text(config, registry, query, persona,
                                     template)
        prompt = frame.render(query)
        assert prompt.text == expected
        assert prompt == build_prompt(config, registry, query, persona,
                                      template)
        assert frame.persona_id == (persona.id if persona else "")
        assert list(prompt_keys([(frame, query)] * 2, model)) == [
            ResponseCache.key(expected, model)] * 2

    @pytest.mark.parametrize("field", ["{query!r}", "{query:>9}",
                                       "{query!s:}", "{query.upper}",
                                       "{query[0]}"])
    def test_query_field_with_conversion_or_spec_is_rejected(self, registry,
                                                             field):
        with pytest.raises(ValueError, match="only a bare"):
            PromptFrame(config(PromptVariant.BASELINE), registry,
                        template=f"Query: {field}\n")

    def test_field_value_holding_query_text_stays_literal(self, registry):
        persona = _PERSONAS[-1]
        frame = PromptFrame(config(PromptVariant.BASELINE), registry, persona)
        text = frame.render("kids shows").text
        assert text.startswith("Echo {query} and {{query}} and {persona} "
                               "verbatim.\n\n")
        assert text.endswith("Query: kids shows\n")
        assert len(frame.pieces) == 2


# Response lines: entity lines with valid and invalid labels and tokens,
# "None" lines and near misses, and arbitrary text.
_RESPONSE_LINES = st.one_of(
    st.builds("{}|{}".format,
              st.sampled_from(default_registry().ids + ("genre", "Nonsense",
                                                       " Genre ", "")),
              st.sampled_from(["High", " medium ", "LOW", "Huge", "", "|"])),
    st.sampled_from(["None", " none ", "NONE", "None.", "N one", ""]),
    st.text(max_size=24),
)


def _usable_line(registry, line):
    """True for a line that is "None" or "EntityId|Level", after stripping
    and case-insensitively for "None" and the level."""
    line = line.strip()
    label, bar, token = line.partition("|")
    return line.casefold() == "none" or (
        bool(bar) and label.strip() in registry.ids
        and token.strip().casefold() in ("low", "medium", "high"))


class TestParseResponse:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lines=st.lists(_RESPONSE_LINES, max_size=6))
    def test_raises_iff_no_entity_line_and_no_none_line(self, lines):
        registry = default_registry()
        raw = "\n".join(lines)
        if any(_usable_line(registry, line) for line in raw.splitlines()):
            parse_response(registry, raw)
        else:
            with pytest.raises(UnparseableResponseError):
                parse_response(registry, raw)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(entities=st.dictionaries(st.sampled_from(default_registry().ids),
                                    st.sampled_from(list(Confidence))))
    def test_rendered_annotation_round_trips(self, entities):
        parsed = parse_response(default_registry(),
                                render_annotation(Annotation(entities)))
        assert parsed.entities == entities
        assert parsed.warnings == ()

    def test_happy_path(self, registry):
        parsed = parse_response(registry, "Genre|High\nIntentMovie|Medium")
        assert parsed.entities == {"Genre": Confidence.HIGH,
                                   "IntentMovie": Confidence.MEDIUM}
        assert parsed.warnings == ()

    def test_none_is_empty_annotation(self, registry):
        parsed = parse_response(registry, "None")
        assert parsed.entities == {}
        assert parsed.warnings == ()

    def test_tolerates_unknown_labels(self, registry):
        parsed = parse_response(registry, "Genre|high\nFooBar|High")
        assert parsed.entities == {"Genre": Confidence.HIGH}
        assert len(parsed.warnings) == 1

    def test_duplicates_keep_highest(self, registry):
        parsed = parse_response(registry, "Genre|Low\nGenre|High\nGenre|Medium")
        assert parsed.entities == {"Genre": Confidence.HIGH}

    def test_bad_confidence_is_warning(self, registry):
        parsed = parse_response(registry, "Genre|Sky\nSport|Low")
        assert parsed.entities == {"Sport": Confidence.LOW}
        assert any("Sky" in w for w in parsed.warnings)

    def test_unparseable_raises(self, registry):
        with pytest.raises(UnparseableResponseError):
            parse_response(registry, "complete nonsense with no pipes")

    def test_round_trip(self, registry):
        rng = random.Random(5)
        ids = list(registry.ids)
        for _ in range(50):
            chosen = rng.sample(ids, rng.randint(0, 4))
            annotation = ann(**{
                e: rng.choice(["Low", "Medium", "High"]) for e in chosen
            })
            rendered = render_annotation(annotation)
            assert parse_response(registry, rendered).entities == annotation.entities
