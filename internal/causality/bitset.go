package causality

// bitset is a growable set of small non-negative integers: the applied
// set of one replica, one bit per update ever issued.
type bitset struct {
	words []uint64
}

// set inserts idx.
func (b *bitset) set(idx int) {
	if need := idx/64 + 1; need > len(b.words) {
		nw := make([]uint64, need*2)
		copy(nw, b.words)
		b.words = nw
	}
	b.words[idx/64] |= 1 << (uint(idx) % 64)
}

// has reports membership of idx.
func (b *bitset) has(idx int) bool {
	w := idx / 64
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(uint(idx)%64)) != 0
}

// clone returns an independent copy.
func (b *bitset) clone() bitset {
	return bitset{words: append([]uint64(nil), b.words...)}
}
