"""The corpus writer as it was before ``Corpus.save`` rendered tokens from a
table: each occurrence rendered on its own. The tests compare the bytes of
the shipped writer's file with this one's."""


def save(corpus, path) -> None:
    """One walk per line, space-separated tokens, attribute nodes a<attrid>."""
    with open(path, "w", encoding="utf-8") as f:
        for row in corpus.walks:
            f.write(" ".join(str(v) if v < corpus.n_raw else f"a{corpus.attr_ids[v - corpus.n_raw]}"
                             for v in row.tolist()) + "\n")
