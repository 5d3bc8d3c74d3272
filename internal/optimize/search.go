package optimize

import (
	"fmt"
	"math/rand"

	"repro/internal/lowerbound"
	"repro/internal/sharegraph"
)

// SearchOptions tunes the placement search.
type SearchOptions struct {
	// Seed drives every random choice (restart starting points, move
	// order). The same seed on the same graph yields the same result.
	Seed int64
	// Restarts is the number of hill-climb starts beyond the identity
	// placement; each restart begins from a random broken subset.
	// Default 3.
	Restarts int
	// MaxEvals caps total candidate evaluations (each evaluation builds
	// the effective graph's timestamp graphs — the expensive step).
	// Default 64; 0 means the default, negative means unlimited.
	MaxEvals int
	// MaxBroken caps how many registers one placement may break (0 =
	// unlimited). Each break trades timestamp entries for relay latency,
	// so deployments may want to bound the damage.
	MaxBroken int
	// EdgeWeight optionally prices the base edge between two replicas
	// (e.g. an observed latency EWMA). When set, every tracked timestamp
	// entry costs 1 + normalized weight of the edge it tracks instead of
	// 1, steering breaks toward cycles whose edges are slow. Weights are
	// normalized by the maximum over base edges, so the score stays
	// within 2× of the entry count and entry reductions dominate.
	EdgeWeight func(i, j sharegraph.ReplicaID) float64
	// CheckBound, when set, computes the Section 4 lower bound for each
	// replica of the result's effective graph (skipping replicas whose
	// timestamp graphs exceed boundEntryCap entries — the family is
	// exponential in |E_i|).
	CheckBound bool
	// BoundM is the per-edge count range m for CheckBound. Default 2.
	BoundM int
}

// boundEntryCap bounds the per-replica timestamp-graph size for which
// CheckBound enumerates the conflict family (m^|E_i| members).
const boundEntryCap = 16

// SearchResult reports the best placement found.
type SearchResult struct {
	Placement *Placement
	Effective *sharegraph.Graph
	// BaseEntries and Entries are the total tracked timestamp entries
	// (Σ_i |E_i|) before and after; Entries < BaseEntries whenever the
	// search found any improving move.
	BaseEntries int
	Entries     int
	// Score is the weighted objective of the winner (equals Entries plus
	// a sub-1 break penalty when EdgeWeight is nil).
	Score float64
	// Evals is how many candidate placements were scored.
	Evals int
	// Bounds holds the per-replica lower bounds of the effective graph
	// when CheckBound was set (skipped replicas are omitted).
	Bounds []lowerbound.Bound
}

// Tight reports whether every computed lower bound matches the
// algorithm's entry count (vacuously true when CheckBound was off or
// all replicas were skipped).
func (r *SearchResult) Tight() bool {
	for _, b := range r.Bounds {
		if !b.Tight() {
			return false
		}
	}
	return true
}

// Search runs seeded local search over placements of g: hill-climbing
// with random restarts, where a move breaks one more register (relaying
// it along a route built over the surviving edges) or un-breaks one, and
// only moves that leave a placement Validate accepts are taken.
// Candidates are scored by rebuilding the effective graph's timestamp
// graphs and summing tracked entries, optionally weighted per edge; the
// placement with the lowest score wins. The identity placement is always
// a candidate, so the result is never worse than the input.
func Search(g *sharegraph.Graph, opts SearchOptions) (*SearchResult, error) {
	if g == nil {
		return nil, fmt.Errorf("optimize: nil graph")
	}
	if opts.Restarts == 0 {
		opts.Restarts = 3
	}
	if opts.MaxEvals == 0 {
		opts.MaxEvals = 64
	}
	if opts.BoundM == 0 {
		opts.BoundM = 2
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	regs := g.Registers()

	weight := func(*sharegraph.Graph) func(sharegraph.Edge) float64 {
		return func(sharegraph.Edge) float64 { return 1 }
	}
	if opts.EdgeWeight != nil {
		max := 0.0
		for _, e := range g.Edges() {
			if w := opts.EdgeWeight(e.From, e.To); w > max {
				max = w
			}
		}
		weight = func(eff *sharegraph.Graph) func(sharegraph.Edge) float64 {
			return func(e sharegraph.Edge) float64 {
				if max <= 0 {
					return 1
				}
				w := opts.EdgeWeight(e.From, e.To)
				if w < 0 {
					w = 0
				}
				return 1 + w/max
			}
		}
	}
	// Breaking a register is never free operationally (relay latency), so
	// ties in entry count prefer fewer breaks: each break costs under
	// 1/(2·|registers|) — the total penalty stays below ½ and can never
	// outvote a whole-entry improvement.
	breakPenalty := 1.0 / float64(2*(len(regs)+1))

	evals := 0
	score := func(p *Placement) (float64, int, bool) {
		if opts.MaxEvals > 0 && evals >= opts.MaxEvals {
			return 0, 0, false
		}
		evals++
		eff, err := p.EffectiveGraph()
		if err != nil {
			return 0, 0, false
		}
		w := weight(eff)
		entries := 0
		total := 0.0
		for _, tsg := range sharegraph.BuildAllTSGraphs(eff, sharegraph.LoopOptions{}) {
			entries += tsg.Len()
			for _, e := range tsg.Edges() {
				total += w(e)
			}
		}
		return total + breakPenalty*float64(len(p.Broken)), entries, true
	}

	best := NewPlacement(g)
	bestScore, bestEntries, ok := score(best)
	if !ok {
		return nil, fmt.Errorf("optimize: could not score the identity placement")
	}
	baseEntries := bestEntries

	// climb improves p by first-improvement hill-climbing until a full
	// pass finds no improving move or the evaluation budget runs out.
	climb := func(p *Placement, s float64, entries int) (*Placement, float64, int) {
		for {
			improved := false
			order := rng.Perm(len(regs))
			for _, ri := range order {
				x := regs[ri]
				if _, broken := p.Broken[x]; !broken && opts.MaxBroken > 0 && len(p.Broken) >= opts.MaxBroken {
					continue
				}
				cand, ok := p.toggle(x)
				if !ok {
					continue
				}
				cs, ce, scored := score(cand)
				if !scored {
					return p, s, entries
				}
				if cs < s {
					p, s, entries = cand, cs, ce
					improved = true
					break
				}
			}
			if !improved {
				return p, s, entries
			}
		}
	}

	start := best
	startScore, startEntries := bestScore, bestEntries
	for r := 0; r <= opts.Restarts; r++ {
		if r > 0 {
			// Random restart: break a random subset to escape the local
			// optimum the greedy pass settled into.
			p := NewPlacement(g)
			for _, x := range regs {
				if opts.MaxBroken > 0 && len(p.Broken) >= opts.MaxBroken {
					break
				}
				if rng.Intn(3) != 0 {
					continue
				}
				if cand, ok := p.toggle(x); ok {
					p = cand
				}
			}
			s, e, scored := score(p)
			if !scored {
				break
			}
			start, startScore, startEntries = p, s, e
		}
		p, s, e := climb(start, startScore, startEntries)
		if s < bestScore {
			best, bestScore, bestEntries = p, s, e
		}
		if opts.MaxEvals > 0 && evals >= opts.MaxEvals {
			break
		}
	}

	eff, err := best.EffectiveGraph()
	if err != nil {
		return nil, err
	}
	res := &SearchResult{
		Placement:   best,
		Effective:   eff,
		BaseEntries: baseEntries,
		Entries:     bestEntries,
		Score:       bestScore,
		Evals:       evals,
	}
	if opts.CheckBound {
		for _, tsg := range sharegraph.BuildAllTSGraphs(eff, sharegraph.LoopOptions{}) {
			if tsg.Len() > boundEntryCap {
				continue
			}
			res.Bounds = append(res.Bounds, lowerbound.ComputeBound(eff, tsg.Owner, opts.BoundM))
		}
	}
	return res, nil
}
