// Package sharegraph models how shared read/write registers are placed on
// replicas in a partially replicated distributed shared memory, and derives
// from that placement the combinatorial structures of Xiang & Vaidya
// (PODC 2019): the share graph (Definition 3), (i, e_jk)-loops
// (Definition 4), per-replica timestamp graphs (Definition 5), the
// Hélary–Milani hoop definitions the paper corrects (Definitions 17, 18
// and 20), and the augmented variants for the client-server architecture
// (Definitions 16, 27 and 28).
package sharegraph

import (
	"fmt"
	"sort"
	"strings"
)

// Register names a shared read/write register.
type Register string

// ReplicaID identifies a replica. Replicas are numbered 0 through R-1.
// (The paper numbers replicas 1 through R; we use zero-based indices and
// translate in display helpers.)
type ReplicaID int

// Edge is a directed edge e_{From,To} of a share graph. Directed edges in
// the share graph itself always come in pairs (Definition 3), but timestamp
// graphs may contain an edge in only one direction (see the Figure 5
// example in the paper), so direction is significant.
type Edge struct {
	From ReplicaID
	To   ReplicaID
}

// String renders the edge in the paper's e_{jk} notation.
func (e Edge) String() string {
	return fmt.Sprintf("e(%d->%d)", e.From, e.To)
}

// Reverse returns the edge with endpoints swapped.
func (e Edge) Reverse() Edge {
	return Edge{From: e.To, To: e.From}
}

// RegisterSet is a set of register names.
type RegisterSet map[Register]struct{}

// NewRegisterSet builds a set from the given registers.
func NewRegisterSet(regs ...Register) RegisterSet {
	s := make(RegisterSet, len(regs))
	for _, r := range regs {
		s[r] = struct{}{}
	}
	return s
}

// Has reports whether x is in the set.
func (s RegisterSet) Has(x Register) bool {
	_, ok := s[x]
	return ok
}

// Add inserts x into the set.
func (s RegisterSet) Add(x Register) {
	s[x] = struct{}{}
}

// Len returns the number of registers in the set.
func (s RegisterSet) Len() int { return len(s) }

// Clone returns an independent copy of the set.
func (s RegisterSet) Clone() RegisterSet {
	c := make(RegisterSet, len(s))
	for r := range s {
		c[r] = struct{}{}
	}
	return c
}

// UnionInPlace adds every register of t to s and returns s.
func (s RegisterSet) UnionInPlace(t RegisterSet) RegisterSet {
	for r := range t {
		s[r] = struct{}{}
	}
	return s
}

// Intersect returns a new set holding s ∩ t.
func (s RegisterSet) Intersect(t RegisterSet) RegisterSet {
	small, large := s, t
	if len(large) < len(small) {
		small, large = large, small
	}
	u := make(RegisterSet)
	for r := range small {
		if large.Has(r) {
			u[r] = struct{}{}
		}
	}
	return u
}

// DiffNonEmpty reports whether s − t is non-empty without materializing it.
// The paper's loop conditions (Definition 4) are all of this form.
func (s RegisterSet) DiffNonEmpty(t RegisterSet) bool {
	for r := range s {
		if !t.Has(r) {
			return true
		}
	}
	return false
}

// Equal reports whether the two sets hold exactly the same registers.
func (s RegisterSet) Equal(t RegisterSet) bool {
	if len(s) != len(t) {
		return false
	}
	for r := range s {
		if !t.Has(r) {
			return false
		}
	}
	return true
}

// Sorted returns the registers in lexicographic order.
func (s RegisterSet) Sorted() []Register {
	out := make([]Register, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// String renders the set as {a, b, c} in sorted order.
func (s RegisterSet) String() string {
	regs := s.Sorted()
	parts := make([]string, len(regs))
	for i, r := range regs {
		parts[i] = string(r)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
