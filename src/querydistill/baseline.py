"""Lexical-matching baseline annotator.

A gazetteer maps entities to short phrases; a query gets an entity whenever
one of its phrases occurs as a contiguous token run in the normalized query.
Token-boundary matching, not raw substrings, so "art" never fires inside
"start". Every match is emitted at High confidence: the baseline has no
confidence notion of its own, and the uniform mapping keeps its annotations
comparable with LLM output.
"""

import json
from dataclasses import dataclass, field
from importlib import resources

from .annotations import Annotation, Confidence
from .data import normalize_query, read_jsonl


def phrase_windows(text):
    """Every run of 1-5 tokens in the normalized text, as token tuples."""
    tokens = normalize_query(text).split()
    return {tuple(tokens[start:start + size])
            for size in range(1, 6)
            for start in range(len(tokens) - size + 1)}


def _phrase_tokens(phrase):
    """The normalized tokens of a gazetteer phrase; ValueError unless there
    are 1-5 of them."""
    tokens = tuple(normalize_query(phrase).split())
    if not 1 <= len(tokens) <= 5:
        raise ValueError(f"gazetteer phrase must be 1-5 tokens: {phrase!r}")
    return tokens


@dataclass(frozen=True)
class Gazetteer:
    """Per-entity sets of normalized phrases (1-5 tokens each)."""

    phrases: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "phrases", {
            entity: frozenset(map(_phrase_tokens, phrase_list))
            for entity, phrase_list in self.phrases.items()})

    @property
    def entities(self):
        return sorted(self.phrases)

    def matches(self, text):
        """(phrase, entity) pairs, the phrase as its space-joined tokens, of
        each phrase that occurs as a contiguous token run in text."""
        windows = phrase_windows(text)
        return {(" ".join(phrase), entity)
                for entity, phrase_set in self.phrases.items()
                for phrase in phrase_set & windows}

    def match(self, text):
        """Entity ids whose phrases occur as contiguous token runs in text."""
        return {entity for _, entity in self.matches(text)}


def load_gazetteer(path, registry=None):
    """Read a JSON Lines gazetteer: {"entity": ..., "phrases": [...]} per line.

    Repeated entity lines merge their phrase sets. A line that is not valid
    JSON, lacks a field, holds a phrase that is not 1-5 tokens or, given a
    ``registry``, names an entity it does not know raises DataError naming
    the file and line.
    """
    merged = {}

    def add(record):
        entity = record["entity"]
        if registry is not None:
            registry.column(entity)
        merged.setdefault(entity, []).extend(
            " ".join(_phrase_tokens(phrase)) for phrase in record["phrases"])

    read_jsonl(path, add)
    return Gazetteer(phrases=merged)


def default_gazetteer():
    """The shipped demonstrative dictionary for the default registry."""
    ref = resources.files("querydistill.resources") / "gazetteer_default.jsonl"
    with resources.as_file(ref) as path:
        return load_gazetteer(path)


def write_gazetteer(path, gazetteer):
    with open(path, "w", encoding="utf-8") as fh:
        for entity in gazetteer.entities:
            phrases = sorted(" ".join(t) for t in gazetteer.phrases[entity])
            fh.write(json.dumps({"entity": entity, "phrases": phrases}) + "\n")


def lexical_match(gazetteer, text):
    """Annotate one query by dictionary lookup; all matches are High."""
    return Annotation(entities={
        entity: Confidence.HIGH for entity in gazetteer.match(text)
    })
