"""Synthetic corpora for the quality experiments (Tables 1-2).

The paper evaluates perplexity on WikiText-2 / PTB / C4 and accuracy on
MMLU / LongEval / PIQA with pretrained LLaMA models.  Neither the datasets
nor the pretrained weights are available here, so we build corpora with the
one property those experiments actually probe: *the model must rely on
long-range attention*, so that scrambling the positional alignment of a
truncated KV cache (NKVT) destroys predictions while decoupled truncation
(CA) and token-truncation-plus-recompute (TT) do not.

Two kinds of documents:

* **Copy corpora** — each document samples its own small vocabulary of
  made-up words and then writes sentences reusing them.  Predicting the
  rest of a word after its first character requires attending to earlier
  occurrences (in-context copying / induction), which a character-level
  n-gram model cannot do.  Three parameterisations stand in for the three
  PPL datasets.
* **Key-value corpora** — documents of ``k=v;`` assignments followed by
  ``?k:v`` queries: a synthetic LongEval-style retrieval benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

CHARS = "abcdefghijklmnopqrstuvwxyz0123456789 .?=:;"
VOCAB_SIZE = len(CHARS)
_CHAR_TO_ID = {ch: i for i, ch in enumerate(CHARS)}

LETTERS = "abcdefghijklmnopqrstuvwxyz"
DIGITS = "0123456789"


def encode(text: str) -> np.ndarray:
    """Map text to token ids; raises on characters outside the charset."""
    try:
        return np.array([_CHAR_TO_ID[ch] for ch in text], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"character {exc.args[0]!r} not in corpus charset") from None


def decode(ids: np.ndarray) -> str:
    """Map token ids back to text."""
    return "".join(CHARS[int(i)] for i in ids)


@dataclass(frozen=True)
class CopyCorpusSpec:
    """Parameters of one copy-structured corpus."""

    name: str
    word_length: int = 5
    words_per_doc: int = 8
    sentence_words: int = 4
    doc_sentences: int = 12
    seed: int = 7


#: Stand-ins for the paper's three PPL datasets.  They differ in word
#: length, per-document vocabulary and sentence length, giving three
#: distinct difficulty levels just as WikiText-2 / PTB / C4 do.  The small
#: per-document vocabularies make words repeat often, which is what lets a
#: 2-layer model develop the in-context copying (induction) circuit the
#: truncation experiments rely on.
COPY_CORPORA: dict[str, CopyCorpusSpec] = {
    "synth-wikitext": CopyCorpusSpec(
        "synth-wikitext", word_length=5, words_per_doc=5, sentence_words=5,
        doc_sentences=10,
    ),
    "synth-ptb": CopyCorpusSpec(
        "synth-ptb", word_length=4, words_per_doc=4, sentence_words=6,
        doc_sentences=10,
    ),
    "synth-c4": CopyCorpusSpec(
        "synth-c4", word_length=6, words_per_doc=6, sentence_words=4,
        doc_sentences=10,
    ),
}


def make_copy_document(spec: CopyCorpusSpec, rng: np.random.Generator) -> np.ndarray:
    """One document: sentences built from a per-document word set."""
    words = [
        "".join(rng.choice(list(LETTERS), size=spec.word_length))
        for _ in range(spec.words_per_doc)
    ]
    parts: list[str] = []
    for _ in range(spec.doc_sentences):
        chosen = rng.choice(words, size=spec.sentence_words, replace=True)
        parts.append(" ".join(chosen) + ".")
    return encode(" ".join(parts))


def make_copy_corpus(
    spec: CopyCorpusSpec, n_docs: int, seed: int | None = None
) -> list[np.ndarray]:
    """Generate ``n_docs`` documents from one corpus specification."""
    if n_docs <= 0:
        raise ValueError(f"n_docs must be positive, got {n_docs}")
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    return [make_copy_document(spec, rng) for _ in range(n_docs)]


@dataclass(frozen=True)
class KVDocument:
    """A key-value retrieval document with its query ground truth.

    Assignments are ``kv␣`` (a letter key immediately followed by a digit
    value) and queries are ``?kv␣``: at a query, the model reads ``?k`` and
    must predict ``v`` — a pure induction pattern (the earlier occurrence
    of ``k`` is followed by ``v``).  Keys are distinct within a document so
    the retrieval target is unambiguous.  ``answer_positions[i]`` indexes
    the value token of query ``i`` inside ``tokens``.
    """

    tokens: np.ndarray
    answer_positions: np.ndarray
    answers: np.ndarray
    value_of: dict[str, str]  # key -> its assigned value


def make_kv_document(
    n_pairs: int,
    rng: np.random.Generator,
    query_prob: float = 0.8,
    query_keys: list[str] | None = None,
) -> KVDocument:
    """Build one retrieval document with interleaved queries.

    After every assignment (except the first) a query of a random
    already-assigned key is emitted with probability ``query_prob``; the
    distance diversity this creates is what lets a small transformer learn
    the induction circuit.  ``query_keys``, if given, are appended as
    trailing queries instead (used by the LongEval-style benchmark).

    Args:
        n_pairs: number of assignments; must not exceed the alphabet since
            keys are distinct.
    """
    if n_pairs <= 0:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    if n_pairs > len(LETTERS):
        raise ValueError(
            f"at most {len(LETTERS)} distinct keys available, got {n_pairs}"
        )
    keys = [str(k) for k in rng.choice(list(LETTERS), size=n_pairs, replace=False)]
    values = [str(v) for v in rng.choice(list(DIGITS), size=n_pairs)]
    value_of = dict(zip(keys, values))

    parts: list[str] = []
    answer_positions: list[int] = []
    answers: list[int] = []
    cursor = 0

    def emit_query(key: str) -> None:
        nonlocal cursor
        parts.append(f"?{key}{value_of[key]} ")
        answer_positions.append(cursor + 2)
        answers.append(_CHAR_TO_ID[value_of[key]])
        cursor += 4

    for i, (k, v) in enumerate(zip(keys, values)):
        parts.append(f"{k}{v} ")
        cursor += 3
        if query_keys is None and i >= 1 and rng.random() < query_prob:
            emit_query(str(rng.choice(keys[: i + 1])))
    if query_keys is not None:
        for k in query_keys:
            if k not in value_of:
                raise ValueError(f"query key {k!r} was never assigned")
            emit_query(k)

    return KVDocument(
        tokens=encode("".join(parts)),
        answer_positions=np.array(answer_positions, dtype=np.int64),
        answers=np.array(answers, dtype=np.int64),
        value_of=value_of,
    )


def make_kv_corpus(
    n_docs: int, n_pairs: int = 10, seed: int = 11, query_prob: float = 0.8
) -> list[KVDocument]:
    """Training corpus of retrieval documents."""
    rng = np.random.default_rng(seed)
    return [make_kv_document(n_pairs, rng, query_prob) for _ in range(n_docs)]


def training_batches_padded(
    docs: list[np.ndarray],
    batch_size: int,
    n_batches: int,
    pad_id: int | None = None,
    seed: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield document-aligned (tokens, targets) batches.

    Documents are sampled whole and right-padded to the batch's longest
    document, so retrieval queries always see their assignments (a random
    window over a concatenated stream would cut them apart).
    """
    if batch_size <= 0 or n_batches <= 0:
        raise ValueError("batch_size and n_batches must be positive")
    if not docs:
        raise ValueError("no documents")
    if pad_id is None:
        pad_id = _CHAR_TO_ID[" "]
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        idx = rng.integers(0, len(docs), size=batch_size)
        longest = max(docs[i].shape[0] for i in idx)
        batch = np.full((batch_size, longest), pad_id, dtype=np.int64)
        for row, i in enumerate(idx):
            batch[row, : docs[i].shape[0]] = docs[i]
        yield batch[:, :-1], batch[:, 1:]


def training_batches(
    docs: list[np.ndarray],
    seq_len: int,
    batch_size: int,
    n_batches: int,
    seed: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (tokens, targets) batches of shape (B, seq_len) sampled from a
    concatenation of the documents (next-token prediction)."""
    if seq_len <= 0 or batch_size <= 0 or n_batches <= 0:
        raise ValueError("seq_len, batch_size and n_batches must be positive")
    stream = np.concatenate(list(docs))
    if stream.shape[0] <= seq_len + 1:
        raise ValueError(
            f"corpus too small ({stream.shape[0]} tokens) for seq_len {seq_len}"
        )
    rng = np.random.default_rng(seed)
    max_start = stream.shape[0] - seq_len - 1
    for _ in range(n_batches):
        starts = rng.integers(0, max_start, size=batch_size)
        tokens = np.stack([stream[s : s + seq_len] for s in starts])
        targets = np.stack([stream[s + 1 : s + seq_len + 1] for s in starts])
        yield tokens, targets
