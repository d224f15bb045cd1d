"""The closed entity universe: definitions, ICL example lists, validation.

The registry fixes entity column order for every confidence matrix and every
classifier output vector in a run; artifacts embed ``registry_hash`` so that
a file's columns can be matched to the registry that produced them.
"""

import hashlib
from dataclasses import dataclass, field
from importlib import resources

from .data import read_jsonl
from .errors import RegistryError, UnknownLabelError

# Reserved sentinel: "the annotator selected no entity". Never a column.
NONE_LABEL = "None"


@dataclass(frozen=True)
class EntityDef:
    id: str
    definition: str
    icl_examples: tuple = ()

    def __post_init__(self):
        if not self.id or any(ch.isspace() for ch in self.id):
            raise RegistryError(f"entity id must be non-empty, no whitespace: {self.id!r}")
        # "|" ends the id in a response line and "," splits a matrix header.
        if "|" in self.id or "," in self.id:
            raise RegistryError(f"entity id must not contain '|' or ',': {self.id!r}")
        if self.id == NONE_LABEL:
            raise RegistryError(f"entity id {NONE_LABEL!r} is reserved")
        if not self.definition.strip():
            raise RegistryError(f"entity {self.id!r} has an empty definition")
        object.__setattr__(self, "icl_examples", tuple(self.icl_examples))


@dataclass(frozen=True)
class EntityRegistry:
    entities: tuple = ()
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _ids: tuple = field(init=False, repr=False, compare=False)
    _hash: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entities:
            raise RegistryError("registry is empty")
        index = {}
        for pos, entity in enumerate(self.entities):
            if entity.id in index:
                raise RegistryError(f"duplicate entity id: {entity.id!r}")
            index[entity.id] = pos
        ids = tuple(index)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_hash", hashlib.sha256(
            "\n".join(ids).encode("utf-8")).hexdigest())

    def __len__(self):
        return len(self.entities)

    def __iter__(self):
        return iter(self.entities)

    def __contains__(self, entity_id):
        return entity_id in self._index

    @property
    def ids(self):
        return self._ids

    def column(self, entity_id):
        """Column index of an entity; raises UnknownLabelError."""
        try:
            return self._index[entity_id]
        except KeyError:
            raise UnknownLabelError(entity_id) from None

    @property
    def hash(self):
        """Stable digest over the ordered entity ids (newline-joined)."""
        return self._hash


def load_registry(path):
    """Load a registry from a JSON Lines file.

    One record per line: {"id": ..., "definition": ..., "icl_examples": [...]}.
    Entity order equals file order.
    """
    entities = read_jsonl(path, lambda record: EntityDef(
        id=str(record["id"]),
        definition=str(record.get("definition", "")),
        icl_examples=tuple(record.get("icl_examples", ()))), RegistryError)
    return EntityRegistry(entities=tuple(entities))


def default_registry():
    """The shipped 22-entity media-search registry."""
    ref = resources.files("querydistill.resources") / "registry_default.jsonl"
    with resources.as_file(ref) as path:
        return load_registry(path)


def validate_label(registry, label):
    """Resolve a label string to a registry entity id.

    Exact match after trimming surrounding whitespace; the reserved "None"
    sentinel passes through. Any other unknown string raises
    UnknownLabelError. All fuzzier normalization (case folding, repair of
    LLM typos) belongs to the response parser, not here.
    """
    trimmed = label.strip()
    if trimmed == NONE_LABEL:
        return NONE_LABEL
    if trimmed in registry:
        return trimmed
    raise UnknownLabelError(label)
