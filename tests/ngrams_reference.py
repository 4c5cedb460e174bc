"""All-substring reference for `almt.ngrams.semi_maximal_set`.

Every stored phrase p' marks each of its strict substrings p excluded when
2*occ(p') > occ(p), as the set was computed before only one-token-longer
superstrings were tested. Slow, and used only by tests, which require the
same set from both.
"""


def semi_maximal_set(index):
    excluded = set()
    for p_prime, c_prime in index.items():
        length = len(p_prime)
        if length < 2:
            continue
        threshold = 2 * c_prime
        seen = set()
        for n in range(1, length):
            for start in range(length - n + 1):
                p = p_prime[start:start + n]
                if p in seen or p in excluded:
                    continue
                seen.add(p)
                if threshold > index[p]:
                    excluded.add(p)
    return {p for p in index if p not in excluded}
