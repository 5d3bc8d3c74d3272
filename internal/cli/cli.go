// Package cli provides shared flag-level helpers for the repository's
// command-line tools: named topology and protocol selectors.
package cli

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sharegraph"
)

// Load builds a share graph (and optional client assignment) from either
// a JSON config file (when path is non-empty) or a named topology family.
func Load(path, topology string, n int, seed int64) (*sharegraph.Graph, sharegraph.ClientAssignment, error) {
	if path == "" {
		g, err := Topology(topology, n, seed)
		return g, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("read config: %w", err)
	}
	cfg, err := sharegraph.ParseConfig(data)
	if err != nil {
		return nil, nil, err
	}
	g, err := cfg.Graph()
	if err != nil {
		return nil, nil, err
	}
	return g, cfg.Assignment(), nil
}

// minSize is the smallest size parameter each sized family's generator
// accepts; the generators panic below it.
var minSize = map[string]int{
	"ring": 3, "line": 2, "star": 2, "clique": 2, "fullrep": 1, "grid": 1, "random": 3,
}

// Topology builds a share graph by family name. n is the size parameter
// (ignored by the fixed paper examples); seed feeds the random family.
func Topology(name string, n int, seed int64) (*sharegraph.Graph, error) {
	name = strings.ToLower(name)
	if min, sized := minSize[name]; sized && n < min {
		return nil, fmt.Errorf("topology %q needs n >= %d, got %d", name, min, n)
	}
	switch name {
	case "fig3":
		return sharegraph.Fig3Example(), nil
	case "fig5":
		return sharegraph.Fig5Example(), nil
	case "hm1":
		g, _ := sharegraph.HelaryMilani1()
		return g, nil
	case "hm2":
		g, _ := sharegraph.HelaryMilani2()
		return g, nil
	case "ring":
		return sharegraph.Ring(n), nil
	case "line":
		return sharegraph.Line(n), nil
	case "star":
		return sharegraph.Star(n), nil
	case "clique":
		return sharegraph.PairClique(n), nil
	case "fullrep":
		return sharegraph.FullReplication(n, 3), nil
	case "grid":
		side := 2
		for side*side < n {
			side++
		}
		return sharegraph.Grid(side, (n+side-1)/side), nil
	case "random":
		return sharegraph.RandomK(n, 3*n, 3, seed), nil
	default:
		return nil, fmt.Errorf("unknown topology %q (want %s)", name, strings.Join(TopologyNames(), "|"))
	}
}

// TopologyNames lists the accepted topology names.
func TopologyNames() []string {
	names := []string{"fig3", "fig5", "hm1", "hm2", "ring", "line", "star", "clique", "fullrep", "grid", "random"}
	sort.Strings(names)
	return names
}

// Protocol builds a protocol by name over the graph.
func Protocol(name string, g *sharegraph.Graph) (core.Protocol, error) {
	switch strings.ToLower(name) {
	case "edge-indexed", "edge", "":
		return core.NewEdgeIndexed(g)
	case "matrix":
		return baseline.NewMatrix(g), nil
	case "dummy-broadcast", "broadcast":
		return baseline.NewBroadcast(g), nil
	case "naive-vector", "vector":
		return baseline.NewNaiveVector(g), nil
	case "fifo-only", "fifo":
		return baseline.NewFIFOOnly(g), nil
	default:
		return nil, fmt.Errorf("unknown protocol %q (want edge-indexed|matrix|dummy-broadcast|naive-vector|fifo-only)", name)
	}
}
