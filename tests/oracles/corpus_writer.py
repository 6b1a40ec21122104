"""The corpus writer as it was before ``Corpus.save`` rendered tokens from a
table: one ``Corpus.token`` call per occurrence. The tests compare the bytes
of the shipped writer's file with this one's."""


def save(corpus, path) -> None:
    """One walk per line, space-separated tokens, attribute nodes a<attrid>."""
    with open(path, "w", encoding="utf-8") as f:
        for row in corpus.walks:
            f.write(" ".join(corpus.token(int(v)) for v in row) + "\n")
