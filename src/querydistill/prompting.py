"""Prompt composition and response parsing.

Four cumulative prompt variants: a bare task prompt, then confidence-level
instructions, then per-entity reasoning steps, then in-context examples.
Each variant contains every section of the previous one, so ablations can
attribute gains to individual sections. An optional persona preamble can
front any variant.

Prompt prose lives in a versioned template file with named placeholders
({query}, {persona}, {entity_definitions}, {cot_steps}, {icl_block},
{confidence_instruction}); swap the file to change wording without touching
code. A ``PromptFrame`` fills in every field but ``{query}`` once per persona,
so a run renders a prompt's text only when it sends it.
"""

import enum
import functools
import re
import string
from dataclasses import dataclass
from importlib import resources

from .annotations import Annotation, Confidence
from .errors import ModelError, UnparseableResponseError
from .taxonomy import NONE_LABEL


class PromptVariant(enum.IntEnum):
    BASELINE = 0
    CONFIDENCE = 1
    CONFIDENCE_COT = 2
    CONFIDENCE_COT_ICL = 3

    @classmethod
    def from_string(cls, name):
        key = name.strip().casefold().replace("-", "_")
        try:
            return cls[key.upper()]
        except KeyError:
            raise ValueError(f"unknown prompt variant: {name!r}") from None


@dataclass(frozen=True)
class PromptConfig:
    variant: PromptVariant = PromptVariant.CONFIDENCE_COT_ICL
    registry_hash: str = ""
    max_icl_examples_per_entity: int = 4


@dataclass(frozen=True)
class PromptText:
    """A fully rendered prompt plus the section tags it actually contains."""

    text: str
    sections: tuple


@functools.cache
def _default_template():
    ref = resources.files("querydistill.templates") / "prompt_default.txt"
    return ref.read_text(encoding="utf-8")


def _entity_definitions(registry):
    return "\n".join(f"- {e.id}: {e.definition}" for e in registry)


def _cot_steps(registry):
    """One numbered step per entity plus the final fall-through step."""
    lines = ["Work through the query step by step, checking it against every "
             "entity in turn and using the catalogue and examples as reference:"]
    step = 0
    for entity in registry:
        step += 1
        lines.append(f"Step {step}: Check whether the query contains the "
                     f"{entity.id} entity. {entity.definition}")
    lines.append(f"Step {step + 1}: Assign the label {NONE_LABEL} if the query "
                 "fits none of the entity categories above.")
    return "\n".join(lines)


def _icl_block(registry, max_per_entity):
    lines = ["Entity examples:"]
    for entity in registry:
        if entity.icl_examples:
            shown = ", ".join(entity.icl_examples[:max_per_entity])
            lines.append(f"{entity.id} entity examples: {shown}, etc.")
    return "\n".join(lines)


_CONFIDENCE_INSTRUCTION = (
    "For every entity you report, state your confidence as Low, Medium, or "
    "High, reflecting how certain you are that the entity applies to the query."
)


class PromptFrame:
    """One persona's prompt with every template field but ``{query}`` filled
    in, so the prompts of a run share one frame per persona.

    ``pieces`` is the filled-in template split at its ``{query}`` fields (one
    more piece than fields): a prompt's text is the pieces joined by the
    query. The split comes from ``string.Formatter().parse``, not from a
    sentinel, so a field value that contains the text ``{query}`` stays
    literal. A ``{query}`` field with a conversion, a format spec, an
    attribute or an index is rejected here with ValueError.

    Section order: persona preamble (if any), task instruction, entity
    definitions, reasoning steps (variant >= CONFIDENCE_COT), in-context
    examples (variant == CONFIDENCE_COT_ICL), confidence instruction
    (variant >= CONFIDENCE), output format, query.
    """

    def __init__(self, config, registry, persona=None, template=None):
        if config.registry_hash and config.registry_hash != registry.hash:
            raise ModelError(
                f"prompt config pinned to registry {config.registry_hash[:12]}..., "
                f"got {registry.hash[:12]}...")
        variant = config.variant
        sections = []
        parts = {"entity_definitions": _entity_definitions(registry)}

        if persona is not None:
            parts["persona"] = persona.description.rstrip() + "\n\n"
            sections.append("persona")
        else:
            parts["persona"] = ""
        sections.extend(["instruction", "entity_definitions"])

        if variant >= PromptVariant.CONFIDENCE_COT:
            parts["cot_steps"] = _cot_steps(registry) + "\n\n"
            sections.append("cot")
        else:
            parts["cot_steps"] = ""

        if variant >= PromptVariant.CONFIDENCE_COT_ICL:
            parts["icl_block"] = _icl_block(registry, config.max_icl_examples_per_entity) + "\n\n"
            sections.append("icl")
        else:
            parts["icl_block"] = ""

        if variant >= PromptVariant.CONFIDENCE:
            parts["confidence_instruction"] = _CONFIDENCE_INSTRUCTION + "\n\n"
            sections.append("confidence")
        else:
            parts["confidence_instruction"] = ""

        sections.extend(["output_format", "query"])
        self.sections = tuple(sections)
        self.persona_id = persona.id if persona is not None else ""
        self.pieces = _fill_around_query(
            template if template is not None else _default_template(), parts)

    def render(self, query):
        """The prompt for one query. Pure: identical inputs give
        byte-identical text."""
        if not query.strip():
            raise ValueError("query is empty")
        return PromptText(text=query.join(self.pieces), sections=self.sections)


def _fill_around_query(template, parts):
    """``template.format(query=..., **parts)`` split at its ``{query}``
    fields: each stretch between them, its literals re-escaped and its other
    fields rebuilt as written, is formatted on its own."""
    pieces, stretch = [], []
    for literal, name, spec, conversion in string.Formatter().parse(template):
        stretch.append(literal.replace("{", "{{").replace("}", "}}"))
        if name is None:
            continue
        field = ("{" + name + ("!" + conversion if conversion else "")
                 + (":" + spec if spec else "") + "}")
        if re.match(r"query(?![^.\[])", name) is None:
            stretch.append(field)
        elif field != "{query}":
            raise ValueError(f"template field {field}: only a bare {{query}} "
                             "field is supported")
        else:
            pieces.append("".join(stretch).format(**parts))
            stretch = []
    pieces.append("".join(stretch).format(**parts))
    return tuple(pieces)


def build_prompt(config, registry, query, persona=None, template=None):
    """Render the prompt for one query: ``PromptFrame(...).render(query)``."""
    return PromptFrame(config, registry, persona, template).render(query)


def parse_response(registry, raw):
    """Parse an annotator response tolerantly into an Annotation.

    Scans lines for "EntityId|Confidence". Unknown entity labels and
    malformed lines become warnings, never errors. A line that is exactly
    "None" (case-insensitive) stands for the empty annotation. Duplicate
    entity lines keep the highest confidence. Raises only when no valid
    line and no "None" line is found.
    """
    entities = {}
    warnings = []
    saw_none = False
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.casefold() == NONE_LABEL.casefold():
            saw_none = True
            continue
        if "|" not in line:
            warnings.append(f"malformed line: {line!r}")
            continue
        label, _, conf_token = line.partition("|")
        label = label.strip()
        if label not in registry:
            warnings.append(f"unknown entity label: {label!r}")
            continue
        try:
            conf = Confidence.from_label(conf_token)
        except ValueError:
            warnings.append(f"bad confidence token: {conf_token.strip()!r}")
            continue
        if label not in entities or conf > entities[label]:
            entities[label] = conf
    if not entities and not saw_none:
        raise UnparseableResponseError(
            f"no parseable entity line and no {NONE_LABEL!r} in response: {raw[:200]!r}")
    return Annotation(entities=entities, warnings=tuple(warnings))
