"""Seeded query fuzz: every mutated query ends in a table or a CypherError.

The inputs are canonical texts of generated queries, each mutated once:
truncated, a token duplicated, two tokens swapped, or a character inserted.
Whatever the parser accepts runs on the case's graph.  Any exception other
than a CypherError, from either layer, is a bug.
"""

import random

from minicypher.engine import output
from minicypher.errors import CypherError
from minicypher.oracle import GenConfig, gen_case
from minicypher.parser import parse_query, tokenize, unparse_query

SEED = 20261018
CASES = 1000
MUTANTS_PER_CASE = 3

# Inserted characters: non-ASCII digits, letters and spaces, quotes, a
# backslash, punctuation and characters that no token class matches.
INSERTS = ["²", "é", "\xa0", "１", "ı", "'", '"', "\\",
           "(", ")", "[", "]", "{", "}", "-", "*", ".", ",", ":", "<", "=", "~", "\n", "7", "x"]


def _mutate(rng: random.Random, text: str, spans: list[tuple[int, int]]) -> str:
    op = rng.randrange(4)
    if op == 0:  # truncate
        return text[:rng.randrange(len(text))]
    if op == 1:  # duplicate a token
        s, e = rng.choice(spans)
        return text[:e] + " " + text[s:e] + text[e:]
    if op == 2:  # swap two tokens
        (s1, e1), (s2, e2) = sorted(rng.sample(spans, 2))
        return text[:s1] + text[s2:e2] + text[e1:s2] + text[s1:e1] + text[e2:]
    at = rng.randrange(len(text) + 1)  # insert a character
    return text[:at] + rng.choice(INSERTS) + text[at:]


def fuzz_corpus(seed: int = SEED, cases: int = CASES):
    """Yield (graph, mutated query text), deterministically from seed."""
    rng = random.Random(seed)
    for case_seed in range(cases):
        g, q = gen_case(GenConfig(seed=case_seed))
        text = unparse_query(q)
        spans = [(t.start, t.end) for t in tokenize(text)[:-1]]
        for _ in range(MUTANTS_PER_CASE):
            yield g, _mutate(rng, text, spans)


def test_mutated_queries_raise_only_cypher_errors():
    escaped = []
    for g, text in fuzz_corpus():
        try:
            output(parse_query(text), g)
        except CypherError:
            pass
        except Exception as exc:  # anything else is the bug this test looks for
            escaped.append((text, f"{type(exc).__name__}: {exc}"))
    assert not escaped, f"{len(escaped)} inputs escaped as non-CypherErrors, e.g. {escaped[:3]}"
