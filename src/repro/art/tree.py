"""Collapsed hash trie underlying approximate reconciliation trees.

Construction follows Section 5.3 / Figure 3 of the paper:

1. Each element is first hashed by a *balancing* hash ``H1`` into
   ``[0, M)`` with ``M = poly(|S|)`` so the virtual binary tree over the
   hashed universe has depth ``O(log |S|)`` with high probability and no
   adversarial clustering (Figure 3(a,b)).
2. The virtual tree (root = whole range, children = halves, ...) is
   collapsed by removing trivial chains — nodes that correspond to the
   same element subset — leaving ``O(|S|)`` nodes.  The result is exactly
   a binary radix (PATRICIA) trie over the bits of ``H1(x)``.
3. Each element is hashed *again* by a value hash ``H2`` into ``[1, h)``
   to break spatial correlation in node values (Figure 3(c)).
4. Every internal node's value is the XOR of its children's values —
   equivalently, the XOR of ``H2`` over all elements in its subtree
   (Figure 3(d)).

Node values are position-independent functions of the element subset in
the node's interval, which is what makes values comparable between the two
peers' independently collapsed tries: if A and B hold the same elements
within some interval of the hashed universe, the corresponding nodes carry
identical values in both tries.
"""

from typing import Iterable, Iterator, List, Optional

from repro.hashing.mix import mix64

#: Value-hash width: 64-bit, per the paper's "hash into [1, h)" with h
#: large enough that accidental value collisions are negligible next to
#: the Bloom-filter false positives we deliberately trade for size.
_VALUE_BITS = 64

#: Seed tweak separating the value hash ``H2`` from the position hash.
_VALUE_SEED_XOR = 0x1122334455667788


def value_hash(key: int, seed: int) -> int:
    """``H2(key)`` for a trie built with ``seed`` — leaf value of ``key``.

    A module-level function (not just a trie method) because the value
    hash depends only on the agreed seed, never on the builder's set
    size: any peer knowing the seed can compute the leaf value a key
    *would* carry and probe a received leaf filter with it, which is
    what gives ART summaries a single-key membership surface.
    """
    v = mix64(key, seed ^ _VALUE_SEED_XOR) & ((1 << _VALUE_BITS) - 1)
    return v or 1


class TrieNode:
    """One collapsed node: an interval of the hashed universe and its value.

    Attributes:
        prefix: the high ``depth`` bits of ``H1`` shared by every element
            in the subtree.
        depth: number of meaningful bits in ``prefix`` (virtual depth);
            leaves always carry the full position width.
        value: XOR of value-hashes of all elements in the subtree.
        element: the original key for leaves (``None`` for internal nodes).
        left/right: children (both ``None`` for leaves).
    """

    __slots__ = ("prefix", "depth", "value", "element", "left", "right")

    def __init__(self, prefix: int, depth: int):
        self.prefix = prefix
        self.depth = depth
        self.value = 0
        self.element: Optional[int] = None
        self.left: Optional["TrieNode"] = None
        self.right: Optional["TrieNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class ReconciliationTrie:
    """Radix trie over ``H1``-hashed element keys with XOR node values.

    Both peers must build with the same ``seed`` (hence the same ``H1`` and
    ``H2``) — trees are only comparable under universally agreed hash
    functions, mirroring the min-wise permutation agreement in Section 4.
    """

    def __init__(self, elements: Iterable[int], seed: int = 0):
        pool: List[int] = sorted(set(elements))
        self.seed = seed
        self.size = len(pool)
        # Position-hash width: M = |S|^2 rounded up to a power of two,
        # floored at 2^16 so tiny sets still get collision-free balancing.
        self.position_bits = max(16, 2 * max(1, (self.size - 1).bit_length()))
        self._pos_seed = seed ^ 0xA1B2C3D4E5F60718
        self.root: Optional[TrieNode] = None
        self.collision_count = 0
        for key in pool:
            self._insert(key)

    # -- hashing --------------------------------------------------------

    def position_hash(self, key: int) -> int:
        """``H1``: where the element lives in the virtual tree."""
        return mix64(key, self._pos_seed) >> (64 - self.position_bits)

    def value_hash(self, key: int) -> int:
        """``H2``: the element's spatial-correlation-free leaf value.

        Forced non-zero (range ``[1, h)``) so a leaf value never cancels a
        subtree to the XOR identity.
        """
        return value_hash(key, self.seed)

    # -- construction -----------------------------------------------------

    def _insert(self, key: int) -> None:
        pos = self.position_hash(key)
        val = self.value_hash(key)
        if self.root is None:
            self.root = self._fresh_leaf(pos, key, val)
        else:
            self.root = self._insert_at(self.root, pos, key, val)

    def _insert_at(self, node: TrieNode, pos: int, key: int, val: int) -> TrieNode:
        shift = self.position_bits - node.depth
        if (pos >> shift) == node.prefix:
            if node.is_leaf:
                # Leaves carry full-width prefixes, so a matching prefix is
                # a full H1 collision between two distinct keys.  Fold the
                # value in; accuracy accounting treats the pair as merged.
                self.collision_count += 1
                node.value ^= val
                return node
            bit = (pos >> (shift - 1)) & 1
            assert node.left is not None and node.right is not None
            if bit:
                node.right = self._insert_at(node.right, pos, key, val)
            else:
                node.left = self._insert_at(node.left, pos, key, val)
            node.value ^= val
            return node
        return self._branch(node, pos, key, val)

    def _branch(self, node: TrieNode, pos: int, key: int, val: int) -> TrieNode:
        """Fork above ``node`` at the first bit where ``pos`` diverges."""
        pos_prefix = pos >> (self.position_bits - node.depth)
        lcp = node.depth - (node.prefix ^ pos_prefix).bit_length()
        fork = TrieNode(node.prefix >> (node.depth - lcp), lcp)
        new_leaf = self._fresh_leaf(pos, key, val)
        if (pos >> (self.position_bits - lcp - 1)) & 1:
            fork.left, fork.right = node, new_leaf
        else:
            fork.left, fork.right = new_leaf, node
        fork.value = node.value ^ val
        return fork

    def _fresh_leaf(self, pos: int, key: int, val: int) -> TrieNode:
        leaf = TrieNode(pos, self.position_bits)
        leaf.element = key
        leaf.value = val
        return leaf

    # -- traversal ----------------------------------------------------------

    def nodes(self) -> Iterator[TrieNode]:
        """Pre-order traversal of all collapsed nodes."""
        stack = [self.root] if self.root else []
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def internal_values(self) -> List[int]:
        """Values of internal (non-leaf) nodes, root included."""
        return [n.value for n in self.nodes() if not n.is_leaf]

    def leaf_values(self) -> List[int]:
        """Values of leaves (one per element, barring H1 collisions)."""
        return [n.value for n in self.nodes() if n.is_leaf]

