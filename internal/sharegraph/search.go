package sharegraph

import "sync"

// This file implements the (i, e_jk)-loop decision engine, the only loop
// search in the package. Enumerating simple loops through i is exponential
// on dense share graphs (the enumerating DFS survives only as the test
// reference in loops_ref_test.go); this engine decides Definition 4
// existence without enumerating loops, by exploiting two structural facts:
//
//  1. Every side condition has the form "X − S ≠ ∅" for a set S that only
//     grows as the l-path grows (interior ⊆ full, and both are unions of
//     replica register sets). Feasibility is therefore ANTITONE in the
//     interior: any loop that closes against a small interior also closes
//     against any subset of it. The l-path search keeps, per vertex, an
//     antichain of ⊆-minimal interior masks and prunes every dominated
//     state — the search is a Pareto fixpoint over (vertex, interior-mask)
//     states instead of a walk over simple paths.
//
//  2. Once the l-path is fixed, the r-path needs no vertex bookkeeping at
//     all: a hop into an l-path interior vertex v carries a label
//     X_uv ⊆ X_v ⊆ interior, so conditions (ii)/(iii) already forbid the
//     r-path from touching the l-path (and X_uk ⊆ X_k ⊆ full forbids k).
//     Deciding conditions (ii)+(iii) is plain BFS reachability from j to i
//     in an edge-filtered graph — polynomial, evaluated once per
//     undominated arrival at k. The only vertex the filter cannot exclude
//     is a FIRST hop onto k (condition (ii) tests against interior, which
//     excludes X_k), so r_2 = k is rejected explicitly.
//
// Dominance over register masks alone is sound because the l-path can be
// relaxed to a WALK: shortcutting a walk only shrinks the interior, which
// only helps every condition, so walk-reachable (k, S) with a feasible
// r-side implies a simple witness with interior ⊆ S. Parent chains through
// the antichain are in fact already simple (a revisit would be dominated
// by the chain's own earlier state), so witness reconstruction needs no
// shortcutting.
//
// The augmented variant (Definition 27) weakens hops to "label condition
// OR both endpoints client-accessible". Client-pair hops bypass the
// register filter, so fact 2 no longer excludes the l-path automatically;
// the augmented engine appends per-vertex visited bits to the state mask
// (dominance becomes the product order over registers × vertices) and the
// r-side BFS excludes the l-path's vertex set explicitly.
//
// Truncated searches (0 < MaxLen < R, the Appendix D causality sacrifice)
// bound the loop's vertex count 1 + |L| + |R|. Each state also records its
// depth |L| so far, and dominance becomes the product order over (mask ⊆,
// depth ≤): a state with a smaller interior but a longer l-path no longer
// subsumes a shorter one. The walk argument above still holds, because
// shortcutting a walk shrinks both the interior and the length. The FIFO
// queue pops states in nondecreasing depth, so a new state can only evict
// states of its own layer. The r-side BFS records each vertex's r-path
// vertex count and stops expanding at the room the l-path leaves, so it
// closes on the shortest feasible r-path.
//
// Builds ask every owner i about one edge e_jk in a row, and two
// pre-filters never read i. Reach: an l-path vertex must reach k avoiding
// j, so it lies in k's component of G − j (Ĝ − j when augmented), labelled
// once per j. The depth-0 r-side check (empty interior, l-path k alone)
// reads only j, k and the bound, so one BFS from j with no target marks
// every vertex an r-path closes onto, once per edge. Expanding through i
// cannot change i's own mark: a shortest path to i never passes through i.

// searchIndex holds the per-graph canonical bitmask tables shared by the
// exact engine and the allocation-free IsIEJKLoop validator: one bit per
// register that appears in at least one shared edge set (private registers
// never occur in edge labels, so they cannot affect any side condition).
type searchIndex struct {
	words  int              // register-mask words
	vwords int              // vertex-bitset words (⌈R/64⌉)
	regBit map[Register]int // shared registers → bit position
	xb     [][]uint64       // xb[v] = X_v ∩ shared registers
	eb     map[Edge][]uint64
	pool   sync.Pool // *loopScratch for the validators
}

// loopScratch is the reusable working memory of IsIEJKLoop /
// IsAugmentedIEJKLoop, recycled through searchIndex.pool so validation
// runs allocation-free inside fuzz and differential loops.
type loopScratch struct {
	seen     []uint64
	interior []uint64
	full     []uint64
}

// searchIndex lazily builds (once, concurrency-safe) the bitmask tables.
func (g *Graph) searchIndex() *searchIndex {
	g.searchOnce.Do(func() {
		idx := &searchIndex{regBit: make(map[Register]int)}
		for _, r := range g.regs {
			if len(g.holders[r]) >= 2 {
				idx.regBit[r] = len(idx.regBit)
			}
		}
		idx.words = (len(idx.regBit) + 63) / 64
		if idx.words == 0 {
			idx.words = 1 // keep mask slices non-empty on edgeless graphs
		}
		idx.vwords = (g.r + 63) / 64
		idx.xb = make([][]uint64, g.r)
		for i := range idx.xb {
			m := make([]uint64, idx.words)
			for r := range g.stores[i] {
				if b, ok := idx.regBit[r]; ok {
					m[b>>6] |= 1 << (b & 63)
				}
			}
			idx.xb[i] = m
		}
		idx.eb = make(map[Edge][]uint64, len(g.shared))
		for e, x := range g.shared {
			m := make([]uint64, idx.words)
			for r := range x {
				b := idx.regBit[r]
				m[b>>6] |= 1 << (b & 63)
			}
			idx.eb[e] = m
		}
		idx.pool.New = func() any {
			return &loopScratch{
				seen:     make([]uint64, idx.vwords),
				interior: make([]uint64, idx.words),
				full:     make([]uint64, idx.words),
			}
		}
		g.searchIdx = idx
	})
	return g.searchIdx
}

func (idx *searchIndex) scratch() *loopScratch   { return idx.pool.Get().(*loopScratch) }
func (idx *searchIndex) release(sc *loopScratch) { idx.pool.Put(sc) }

// ---- word-mask primitives ----

func maskZero(m []uint64) {
	for w := range m {
		m[w] = 0
	}
}

func maskCopy(dst, src []uint64) { copy(dst, src) }

func maskOr(dst, src []uint64) {
	for w := range src {
		dst[w] |= src[w]
	}
}

// maskSubset reports a ⊆ b.
func maskSubset(a, b []uint64) bool {
	for w := range a {
		if a[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

// maskDiffNonEmpty reports a − b ≠ ∅; a nil a (no such edge label) is
// empty, a nil b is the empty exclusion set.
func maskDiffNonEmpty(a, b []uint64) bool {
	if b == nil {
		for _, w := range a {
			if w != 0 {
				return true
			}
		}
		return false
	}
	for w := range a {
		if a[w]&^b[w] != 0 {
			return true
		}
	}
	return false
}

func bitSet(m []uint64, i int) { m[i>>6] |= 1 << (i & 63) }

func bitGet(m []uint64, i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

// ---- the engine ----

// LoopSearcher is the (i, e_jk)-loop engine over one share graph, or over
// an augmented graph Ĝ (Definition 27). It decides existence (and produces
// a witness) in time polynomial in the Pareto-frontier size instead of the
// simple-loop count, which makes timestamp graphs tractable on dense
// topologies where enumerating loops runs for minutes, at every
// LoopOptions.MaxLen. A searcher reuses its working memory across queries
// and is NOT safe for concurrent use; create one per goroutine. The
// differential and fuzz tests in loops_diff_test.go and loops_fuzz_test.go
// hold it to the enumerating reference DFS at every MaxLen.
type LoopSearcher struct {
	es exactSearch
}

// NewLoopSearcher builds a searcher for the (i, e_jk)-loops of g.
func NewLoopSearcher(g *Graph) *LoopSearcher {
	s := &LoopSearcher{}
	s.es.init(g, nil)
	return s
}

// NewAugmentedLoopSearcher builds a searcher for the augmented
// (i, e_jk)-loops of a.
func NewAugmentedLoopSearcher(a *AugmentedGraph) *LoopSearcher {
	s := &LoopSearcher{}
	s.es.init(a.G, a)
	return s
}

// Find searches for an (i, e_jk)-loop of at most opts.MaxLen vertices and
// returns a witness if one exists.
func (s *LoopSearcher) Find(i ReplicaID, e Edge, opts LoopOptions) (Loop, bool) {
	return s.es.find(i, e, opts)
}

// Has reports whether any (i, e_jk)-loop of at most opts.MaxLen vertices
// exists.
func (s *LoopSearcher) Has(i ReplicaID, e Edge, opts LoopOptions) bool {
	_, ok := s.es.query(i, e, opts)
	return ok
}

// sstate is one Pareto state of the l-path search: the path's end vertex,
// its depth (the number of l-path vertices; the seed at i has 0) and a
// parent link for witness reconstruction. Its mask lives in the arena at
// [id*tw, (id+1)*tw). live is cleared when a later state dominates it out
// of its vertex's antichain.
type sstate struct {
	v     ReplicaID
	prev  int32
	depth int32
	live  bool
}

type exactSearch struct {
	g   *Graph
	aug *AugmentedGraph // nil for the plain engine
	idx *searchIndex
	n   int
	rw  int // register words in a state mask
	vw  int // vertex words in a state mask (augmented only, else 0)
	tw  int // total state-mask words

	// The current edge e_jk, its label X_jk and the loop vertex bound (0
	// when unbounded), set by setEdge, and the pre-filters every owner
	// shares (see the file header): comp labels the components of the
	// adjacency minus compJ; rclose, fhAll and fhFree hold while swept.
	j, k   ReplicaID
	tl     []uint64
	limit  int
	comp   []int32
	compJ  ReplicaID
	swept  bool
	rclose []uint64 // vertices the depth-0 r-side sweep closes onto
	fhAll  []uint64 // union of all usable first-hop labels out of j
	fhFree bool     // some first hop out of j is a client pair

	adj     [][]ReplicaID // G adjacency, or Ĝ adjacency when augmented
	adjLab  [][][]uint64  // edge label per (v, adj index); nil for client-only edges
	adjPair [][]bool      // client-pair flag per (v, adj index); nil when plain

	// Per-query scratch, reset between queries and reused across them.
	states  []sstate
	masks   []uint64  // state-mask arena, tw words per state
	anti    [][]int32 // antichain of state ids per vertex (k's slot holds arrivals)
	dirty   []int32   // vertices with non-empty antichains, for cheap reset
	queue   []int32
	cur     []uint64 // popped state's mask (arena may grow mid-expansion)
	cand    []uint64 // candidate successor mask
	rvis    []uint64 // r-side BFS visited set
	rq      []ReplicaID
	rparent []ReplicaID // r-side BFS parents
	rlevel  []int32     // r-side BFS r-path vertex count (j is 1)
	rfull   []uint64    // full = interior ∪ X_k for the current r-side query
	rGoal   ReplicaID   // last r-path vertex before i (valid after success)
}

func (es *exactSearch) init(g *Graph, aug *AugmentedGraph) {
	es.g, es.aug = g, aug
	es.idx = g.searchIndex()
	es.n = g.r
	es.rw = es.idx.words
	if aug != nil {
		es.vw = es.idx.vwords
		es.adj = aug.adj
	} else {
		es.adj = g.adj
	}
	es.tw = es.rw + es.vw
	es.adjLab = make([][][]uint64, es.n)
	if aug != nil {
		es.adjPair = make([][]bool, es.n)
	}
	for v := 0; v < es.n; v++ {
		nbrs := es.adj[v]
		labs := make([][]uint64, len(nbrs))
		for x, w := range nbrs {
			labs[x] = es.idx.eb[Edge{ReplicaID(v), w}]
		}
		es.adjLab[v] = labs
		if aug != nil {
			ps := make([]bool, len(nbrs))
			for x, w := range nbrs {
				ps[x] = aug.clientPair[Edge{ReplicaID(v), w}]
			}
			es.adjPair[v] = ps
		}
	}
	es.anti = make([][]int32, es.n)
	es.cur = make([]uint64, es.tw)
	es.cand = make([]uint64, es.tw)
	es.fhAll = make([]uint64, es.rw)
	es.comp = make([]int32, es.n)
	es.compJ = -1
	es.rclose = make([]uint64, es.idx.vwords)
	es.rvis = make([]uint64, es.idx.vwords)
	es.rparent = make([]ReplicaID, es.n)
	es.rlevel = make([]int32, es.n)
	es.rfull = make([]uint64, es.rw)
}

func (es *exactSearch) mask(id int32) []uint64 {
	return es.masks[int(id)*es.tw : (int(id)+1)*es.tw]
}

// pair reports whether the x-th adjacency hop out of v is client-backed.
func (es *exactSearch) pair(v ReplicaID, x int) bool {
	return es.adjPair != nil && es.adjPair[v][x]
}

func (es *exactSearch) find(i ReplicaID, e Edge, opts LoopOptions) (Loop, bool) {
	sid, ok := es.query(i, e, opts)
	if !ok {
		return Loop{}, false
	}
	return es.buildWitness(i, e.From, e.To, sid), true
}

// query decides (i, e) at opts.MaxLen; only a share edge not incident at i
// can have loops.
func (es *exactSearch) query(i ReplicaID, e Edge, opts LoopOptions) (int32, bool) {
	if i == e.From || i == e.To || !es.g.HasEdge(e) {
		return -1, false
	}
	es.setEdge(e, opts)
	return es.search(i)
}

// setEdge makes the share edge e = e_jk and opts.MaxLen current.
func (es *exactSearch) setEdge(e Edge, opts LoopOptions) {
	limit := 0
	if opts.MaxLen > 0 && opts.MaxLen < es.n {
		limit = opts.MaxLen // Appendix D truncation
	}
	if e.From != es.j || e.To != es.k || limit != es.limit {
		es.swept = false
	}
	es.j, es.k, es.tl, es.limit = e.From, e.To, es.idx.eb[e], limit
}

// search decides the current edge for owner i. On success it returns the
// l-state whose arrival at k closed, with the deciding r-side BFS left in
// scratch for buildWitness.
func (es *exactSearch) search(i ReplicaID) (int32, bool) {
	j, k, tl := es.j, es.k, es.tl
	if es.compJ != j {
		es.label(j)
	}
	if !es.swept {
		es.rFeasible(-1, j, k, nil, es.rmax(1))
		es.swept = true
	}
	// Depth-1 pre-filter: only k's component of G − j can hold an l-path.
	// Depth-0: if the r-side cannot close onto i even against an empty
	// interior and the shortest l-path (k alone) — the easiest it will
	// ever be — no l-path helps.
	if es.comp[i] != es.comp[k] || !bitGet(es.rclose, int(i)) {
		return -1, false
	}

	// Reset per-query scratch.
	es.states = es.states[:0]
	es.masks = es.masks[:0]
	for _, v := range es.dirty {
		es.anti[v] = es.anti[v][:0]
	}
	es.dirty = es.dirty[:0]
	es.queue = es.queue[:0]

	// Seed: the empty l-path at i. Interior excludes X_i by Definition 4.
	maskZero(es.cand)
	if es.vw > 0 {
		bitSet(es.cand[es.rw:], int(i))
	}
	if id, ok := es.insertState(i, es.cand, -1, 0); ok {
		es.queue = append(es.queue, id)
	}

	for qi := 0; qi < len(es.queue); qi++ {
		sid := es.queue[qi]
		depth := es.states[sid].depth + 1 // every successor's depth
		if es.rmax(depth) < 1 {
			// No room for the successor and j. The queue is in
			// nondecreasing depth, so no later state has room either.
			break
		}
		if !es.states[sid].live {
			continue // dominated after being queued
		}
		v := es.states[sid].v
		copy(es.cur, es.mask(sid))
		for _, w := range es.adj[v] {
			if w == j || w == i {
				continue
			}
			if w == k {
				// l-path complete; cur's register part is the interior.
				if !maskDiffNonEmpty(tl, es.cur[:es.rw]) {
					continue // condition (i) fails
				}
				if _, ok := es.insertState(k, es.cur, sid, depth); !ok {
					continue // a dominating arrival already failed the r-side
				}
				if es.rFeasible(i, j, k, es.cur, es.rmax(depth)) {
					return sid, true
				}
				continue
			}
			if es.comp[w] != es.comp[k] {
				continue
			}
			if es.vw > 0 && bitGet(es.cur[es.rw:], int(w)) {
				continue // augmented states track vertices; simple paths suffice
			}
			copy(es.cand, es.cur)
			maskOr(es.cand[:es.rw], es.idx.xb[w])
			if es.vw > 0 {
				bitSet(es.cand[es.rw:], int(w))
			}
			if maskSubset(tl, es.cand[:es.rw]) {
				continue // condition (i) can never hold past w
			}
			if !es.fhFree && maskSubset(es.fhAll, es.cand[:es.rw]) {
				continue // condition (ii) can never hold past w
			}
			if id, ok := es.insertState(w, es.cand, sid, depth); ok {
				es.queue = append(es.queue, id)
			}
		}
	}
	return -1, false
}

// rmax returns how many r-path vertices fit in a loop whose l-path has d
// vertices.
func (es *exactSearch) rmax(d int32) int32 {
	if es.limit == 0 {
		return int32(es.n)
	}
	return int32(es.limit) - 1 - d
}

// insertState adds a state to v's antichain unless a state with a
// ⊆-smaller mask at no greater depth is already there; states the new one
// dominates in that product order are evicted.
func (es *exactSearch) insertState(v ReplicaID, m []uint64, prev, depth int32) (int32, bool) {
	lst := es.anti[v]
	for _, id := range lst {
		if maskSubset(es.mask(id), m) && es.states[id].depth <= depth {
			return -1, false
		}
	}
	wasEmpty := len(lst) == 0
	out := lst[:0]
	for _, id := range lst {
		if maskSubset(m, es.mask(id)) && depth <= es.states[id].depth {
			es.states[id].live = false
			continue
		}
		out = append(out, id)
	}
	id := int32(len(es.states))
	es.states = append(es.states, sstate{v: v, prev: prev, depth: depth, live: true})
	es.masks = append(es.masks, m...)
	es.anti[v] = append(out, id)
	if wasEmpty {
		es.dirty = append(es.dirty, int32(v))
	}
	return id, true
}

// label sets comp to the component labels of the search adjacency minus
// j (each component is named by its least vertex), and comp[j] to -1.
func (es *exactSearch) label(j ReplicaID) {
	for v := range es.comp {
		es.comp[v] = -1
	}
	for v0 := range es.n {
		if ReplicaID(v0) == j || es.comp[v0] >= 0 {
			continue
		}
		es.comp[v0] = int32(v0)
		es.rq = append(es.rq[:0], ReplicaID(v0))
		for qi := 0; qi < len(es.rq); qi++ {
			for _, w := range es.adj[es.rq[qi]] {
				if w != j && es.comp[w] < 0 {
					es.comp[w] = int32(v0)
					es.rq = append(es.rq, w)
				}
			}
		}
	}
	es.compJ = j
}

// rFeasible decides whether an r-path exists for the l-path summarized by
// lmask (nil = the empty l-path): conditions (ii) and (iii) as BFS edge
// filters, target i. For the plain engine the filters themselves keep the
// r-path off the l-path interior and k (their labels are inside the
// excluded sets); the augmented engine additionally excludes the l-path's
// visited-vertex bits, since client-pair hops bypass the register filter.
// The r-path may have at most rmax vertices; the BFS stops expanding there,
// so it finds the shortest r-path. On success the BFS parents from rGoal
// back to j describe a concrete r-path. With i < 0 there is no target: the BFS runs
// to the end, marks in es.rclose every vertex it can close onto, and
// collects fhAll and fhFree from the first hops (r_2 = k is never
// allowed): once an interior covers fhAll and no client pair can stand
// in, condition (ii) is dead for every extension — masks only grow.
func (es *exactSearch) rFeasible(i, j, k ReplicaID, lmask []uint64, rmax int32) bool {
	var interior, excl []uint64
	if lmask != nil {
		interior = lmask[:es.rw]
		if es.vw > 0 {
			excl = lmask[es.rw:]
		}
	}
	maskCopy(es.rfull, es.idx.xb[k])
	if interior != nil {
		maskOr(es.rfull, interior)
	}
	sweep := i < 0
	if sweep {
		maskZero(es.rclose)
		maskZero(es.fhAll)
		es.fhFree = false
	}
	if rmax < 1 {
		return false // no room for j
	}
	// BFS from j = r_1. Hops out of j (the first hop r_2, or the direct
	// close onto i when t = 1) are under condition (ii) against interior,
	// later hops under condition (iii) against full. k starts visited:
	// r_2 = k would revisit the l-path's endpoint and is the one vertex the
	// filter cannot exclude.
	maskZero(es.rvis)
	bitSet(es.rvis, int(j))
	bitSet(es.rvis, int(k))
	es.rlevel[j] = 1
	es.rq = append(es.rq[:0], j)
	for qi := 0; qi < len(es.rq); qi++ {
		u := es.rq[qi]
		excluded := es.rfull
		if u == j {
			excluded = interior
		}
		for x, w := range es.adj[u] {
			if !es.pair(u, x) && !maskDiffNonEmpty(es.adjLab[u][x], excluded) {
				continue
			}
			if w == i {
				es.rGoal = u
				return true
			}
			if sweep {
				bitSet(es.rclose, int(w))
				if u == j && w != k {
					maskOr(es.fhAll, es.adjLab[u][x])
					es.fhFree = es.fhFree || es.pair(u, x)
				}
			}
			if es.rlevel[u] >= rmax || bitGet(es.rvis, int(w)) || excl != nil && bitGet(excl, int(w)) {
				continue
			}
			bitSet(es.rvis, int(w))
			es.rparent[w] = u
			es.rlevel[w] = es.rlevel[u] + 1
			es.rq = append(es.rq, w)
		}
	}
	return false
}

// buildWitness reassembles the Loop from the successful l-state chain and
// the r-side BFS scratch left by the deciding rFeasible call. The chain is
// provably simple (a vertex revisit along a chain would be dominated by
// the chain's own earlier state) and the r-path provably avoids it, so no
// shortcutting is needed; the differential tests re-validate every witness
// with IsIEJKLoop / IsAugmentedIEJKLoop regardless.
func (es *exactSearch) buildWitness(i, j, k ReplicaID, sid int32) Loop {
	var rev []ReplicaID
	for id := sid; es.states[id].prev >= 0; id = es.states[id].prev {
		rev = append(rev, es.states[id].v)
	}
	lp := Loop{I: i, L: make([]ReplicaID, 0, len(rev)+1)}
	for p := len(rev) - 1; p >= 0; p-- {
		lp.L = append(lp.L, rev[p])
	}
	lp.L = append(lp.L, k)
	var rrev []ReplicaID
	for v := es.rGoal; v != j; v = es.rparent[v] {
		rrev = append(rrev, v)
	}
	lp.R = make([]ReplicaID, 0, len(rrev)+1)
	lp.R = append(lp.R, j)
	for p := len(rrev) - 1; p >= 0; p-- {
		lp.R = append(lp.R, rrev[p])
	}
	return lp
}
