"""Token-by-token parsing and letter-by-letter substitution, kept as test oracles.

The package parses word text through a per-genus token table and
substitutes a whole generator image at a time, cancelling only at the
seam.  This module keeps the routes those kernels replaced: every token
through the regular grammar and ``FreeGroup.letter_code``, and every
image letter pushed onto one reduction stack.  Both return plain letter
tuples, reduced here, so the tests can compare them with the package.
``project`` and ``d_two_gen`` keep the per-handle route to
``morita.d``: one reduced projection per handle, a tuple of +-ALPHA and
+-BETA, and the syllable formula of the ``morita`` module docstring on
it.  ``jablow_images`` writes out the involution's formula factor by
factor.
"""

import re

ALPHA = 1
BETA = 2

_TOKEN_RE = re.compile(r"([ABab])([1-9][0-9]*)\Z")


def _reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def parse(group, text: str) -> tuple[int, ...]:
    """Reduced letters of word text; malformed tokens raise ValueError."""
    codes: list[int] = []
    for token in text.split():
        if token == "1":
            continue
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ValueError(f"malformed generator token {token!r}")
        name, index = m.group(1), int(m.group(2))
        sign = 1 if name.isupper() else -1
        codes.append(group.letter_code(name.upper(), index, sign))
    return _reduce(codes)


def substitute(phi, w) -> tuple[int, ...]:
    """Reduced letters of phi(w), pushing one image letter at a time."""
    out: list[int] = []
    for c in w.letters:
        img = phi.images[abs(c) - 1].letters
        if c < 0:
            img = tuple(-t for t in reversed(img))
        for t in img:
            if out and out[-1] == -t:
                out.pop()
            else:
                out.append(t)
    return tuple(out)


def jablow_images(group) -> list[tuple[int, ...]]:
    """The images of ``jablow``, letter by letter from its docstring's formula.

    With P_k = B_g ... B_k and E_k = [P_k A_k, B_k] B_k, A_k goes to
    E_k ... E_g A_k^-1 B_k^-1 ... B_g^-1 and B_k to [P_k A_k, B_k^-1] B_k^-1.
    Every factor is written out again for every image that uses it, and
    each image is reduced once, at the end.
    """
    g = group.genus

    def inv(w):
        return [-c for c in reversed(w)]

    def comm(x, y):
        return x + y + inv(x) + inv(y)

    def p_a(k):  # P_k A_k
        return [g + ell for ell in range(g, k - 1, -1)] + [k]

    def e(ell):
        return comm(p_a(ell), [g + ell]) + [g + ell]

    images_a = [
        _reduce([c for ell in range(k, g + 1) for c in e(ell)]
                + [-k] + [-(g + ell) for ell in range(k, g + 1)])
        for k in range(1, g + 1)
    ]
    images_b = [_reduce(comm(p_a(k), [-(g + k)]) + [-(g + k)]) for k in range(1, g + 1)]
    return images_a + images_b


def project(w, i: int) -> tuple[int, ...]:
    """Kill every generator except the i-th handle pair, then reduce.

    The result uses +-1 for alpha = A_i and +-2 for beta = B_i.
    """
    g = w.group.genus
    if not 1 <= i <= g:
        raise ValueError(f"handle index {i} out of range 1..{g}")
    a_code, b_code = i, g + i
    out: list[int] = []
    for c in w.letters:
        mag = abs(c)
        if mag == a_code:
            t = ALPHA if c > 0 else -ALPHA
        elif mag == b_code:
            t = BETA if c > 0 else -BETA
        else:
            continue
        if out and out[-1] == -t:
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def syllables(x: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Greedy left-to-right split into alpha^eps beta^delta blocks.

    Each step consumes at most one alpha letter and then at most one
    immediately following beta letter, so every emitted pair carries at
    least one nonzero entry.
    """
    out: list[tuple[int, int]] = []
    i, n = 0, len(x)
    while i < n:
        eps = 0
        delta = 0
        if abs(x[i]) == ALPHA:
            eps = 1 if x[i] > 0 else -1
            i += 1
        if i < n and abs(x[i]) == BETA:
            delta = 1 if x[i] > 0 else -1
            i += 1
        out.append((eps, delta))
    return tuple(out)


def d_two_gen(x: tuple[int, ...]) -> int:
    """The turning function on one handle, by the syllable formula; d((1, 2)) == 1."""
    total = 0
    suffix_delta = 0
    suffix_eps = 0
    for eps, delta in reversed(syllables(x)):
        suffix_delta += delta
        total += eps * suffix_delta
        total -= delta * suffix_eps
        suffix_eps += eps
    return total
