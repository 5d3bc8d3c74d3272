// Package optimize implements the metadata-reduction techniques of
// Section 5 and Appendix D of Xiang & Vaidya (PODC 2019):
//
//   - timestamp compression: counters for a source replica's outgoing
//     edges are linearly dependent whenever the underlying register sets
//     overlap; the minimal number of independent counters is the rank of
//     the edge/register incidence matrix (exact, over ℚ);
//   - dummy registers: planting metadata-only register copies reshapes the
//     share graph, trading messages and false dependencies for smaller
//     timestamps (full-replication emulation as the extreme);
//   - placements: breaking a register takes its share edges out of the
//     graph and relays its updates hop by hop along a route of virtual
//     registers; a search looks for the broken set with the fewest
//     counters. Ring breaking (Figure 13) is the placement with one
//     register of a ring broken: a cycle's 2n counters become a path's ≤4
//     per replica, at a latency cost of n−1 hops;
//   - l-hop truncation ("sacrificing causality"): dropping counters for
//     loops longer than l is safe exactly when long paths are slower than
//     single hops, and detectably unsafe otherwise.
//
// None of the protocols built here has a node of its own. Each is core's
// replica prototype with the edge-indexed clock over a modified graph —
// an effective share graph, or truncated timestamp graphs — and, for
// placements, a router that turns broken-register writes into hop writes
// and applied hop writes into materializations and forwards.
package optimize

import (
	"math/big"
	"sort"

	"repro/internal/sharegraph"
)

// SourceReport describes compression for one source replica j within a
// timestamp graph E_i: how many outgoing-edge counters E_i keeps for j and
// the minimal independent subset (the paper's I(E_i, j)).
type SourceReport struct {
	Source sharegraph.ReplicaID
	Edges  int
	Rank   int
	// Registers is the size of the union of the tracked edges' register
	// labels for this source — the counter count of the Appendix D
	// per-register refinement. Always ≥ Rank, but each per-register
	// counter stays smaller (it counts writes to one register, not sums
	// over label sets), trading counter count for counter width.
	Registers int
}

// Report describes compression of one replica's timestamp.
type Report struct {
	Replica sharegraph.ReplicaID
	// Entries is |E_i|, the uncompressed counter count.
	Entries int
	// Compressed is Σ_j I(E_i, j), the minimal counter count when the
	// per-edge counts are consistent (the paper's best case).
	Compressed int
	// RegisterLevel is Σ_j |∪ labels|, the Appendix D per-register
	// counting alternative (more counters than Compressed, narrower
	// each).
	RegisterLevel int
	PerSource     []SourceReport
}

// Ratio returns Compressed/Entries (1.0 when nothing compresses).
func (r Report) Ratio() float64 {
	if r.Entries == 0 {
		return 1
	}
	return float64(r.Compressed) / float64(r.Entries)
}

// Analyze computes the compression report for replica i's timestamp graph.
// For each source replica j, the counters {τ_i[e_jk]} count updates to the
// register sets {X_jk}; writing each counter as the sum of per-register
// write counts makes it a 0/1 linear combination, so the minimal basis
// size is the rank of the indicator matrix over ℚ (computed exactly with
// big.Rat arithmetic).
func Analyze(g *sharegraph.Graph, tsg *sharegraph.TSGraph) Report {
	bySource := make(map[sharegraph.ReplicaID][]sharegraph.Edge)
	for _, e := range tsg.Edges() {
		bySource[e.From] = append(bySource[e.From], e)
	}
	sources := make([]sharegraph.ReplicaID, 0, len(bySource))
	for j := range bySource {
		sources = append(sources, j)
	}
	sort.Slice(sources, func(a, b int) bool { return sources[a] < sources[b] })

	rep := Report{Replica: tsg.Owner, Entries: tsg.Len()}
	for _, j := range sources {
		edges := bySource[j]
		// Column universe: registers appearing in any X_jk for these edges.
		colIdx := make(map[sharegraph.Register]int)
		var rows [][]int
		for _, e := range edges {
			row := make([]int, 0, 4)
			for x := range g.Shared(e.From, e.To) {
				c, ok := colIdx[x]
				if !ok {
					c = len(colIdx)
					colIdx[x] = c
				}
				row = append(row, c)
			}
			rows = append(rows, row)
		}
		rank := indicatorRank(rows, len(colIdx))
		rep.PerSource = append(rep.PerSource, SourceReport{
			Source: j, Edges: len(edges), Rank: rank, Registers: len(colIdx),
		})
		rep.Compressed += rank
		rep.RegisterLevel += len(colIdx)
	}
	return rep
}

// AnalyzeAll runs Analyze for every replica.
func AnalyzeAll(g *sharegraph.Graph, graphs []*sharegraph.TSGraph) []Report {
	out := make([]Report, len(graphs))
	for i, tsg := range graphs {
		out[i] = Analyze(g, tsg)
	}
	return out
}

// TotalEntries sums Entries over reports.
func TotalEntries(reports []Report) int {
	n := 0
	for _, r := range reports {
		n += r.Entries
	}
	return n
}

// TotalCompressed sums Compressed over reports.
func TotalCompressed(reports []Report) int {
	n := 0
	for _, r := range reports {
		n += r.Compressed
	}
	return n
}

// indicatorRank computes the rank over ℚ of a 0/1 matrix given as sparse
// rows (lists of set-column indices) via exact Gaussian elimination.
func indicatorRank(rows [][]int, cols int) int {
	if cols == 0 {
		return 0
	}
	dense := make([][]*big.Rat, len(rows))
	for i, row := range rows {
		dense[i] = make([]*big.Rat, cols)
		for c := range dense[i] {
			dense[i][c] = new(big.Rat)
		}
		for _, c := range row {
			dense[i][c].SetInt64(1)
		}
	}
	rank := 0
	for col := 0; col < cols && rank < len(dense); col++ {
		pivot := -1
		for r := rank; r < len(dense); r++ {
			if dense[r][col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		dense[rank], dense[pivot] = dense[pivot], dense[rank]
		// Normalize pivot row.
		inv := new(big.Rat).Inv(dense[rank][col])
		for c := col; c < cols; c++ {
			dense[rank][c].Mul(dense[rank][c], inv)
		}
		// Eliminate below.
		for r := rank + 1; r < len(dense); r++ {
			f := new(big.Rat).Set(dense[r][col])
			if f.Sign() == 0 {
				continue
			}
			for c := col; c < cols; c++ {
				t := new(big.Rat).Mul(f, dense[rank][c])
				dense[r][c].Sub(dense[r][c], t)
			}
		}
		rank++
	}
	return rank
}
