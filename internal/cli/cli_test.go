package cli

import (
	"os"
	"path/filepath"
	"testing"
)

func TestTopologyNames(t *testing.T) {
	for _, name := range TopologyNames() {
		g, err := Topology(name, 5, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g.NumReplicas() == 0 {
			t.Errorf("%s: empty graph", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Topology("nope", 5, 1); err == nil {
		t.Error("unknown topology accepted")
	}
	// One below each sized family's minimum is an error, not a generator
	// panic; the minimum itself builds.
	for name, min := range minSize {
		if _, err := Topology(name, min-1, 1); err == nil {
			t.Errorf("%s: n = %d accepted", name, min-1)
		}
		if _, err := Topology(name, min, 1); err != nil {
			t.Errorf("%s: n = %d rejected: %v", name, min, err)
		}
	}
}

func TestProtocolNames(t *testing.T) {
	g, err := Topology("fig3", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"edge-indexed", "edge", "", "matrix", "dummy-broadcast", "broadcast", "naive-vector", "vector", "fifo-only", "fifo"} {
		p, err := Protocol(name, g)
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		if _, err := p.NewNodes(); err != nil {
			t.Errorf("%q: NewNodes: %v", name, err)
		}
	}
	if _, err := Protocol("nope", g); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestLoadConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.json")
	data := []byte(`{
	  "replicas": [
	    {"registers": ["x"]},
	    {"registers": ["x", "y"]},
	    {"registers": ["y"]}
	  ],
	  "clients": [{"replicas": [0, 2]}]
	}`)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	g, clients, err := Load(path, "ignored", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumReplicas() != 3 || len(clients) != 1 {
		t.Errorf("replicas=%d clients=%d", g.NumReplicas(), len(clients))
	}
	if _, _, err := Load(filepath.Join(dir, "missing.json"), "", 0, 0); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(bad, "", 0, 0); err == nil {
		t.Error("malformed config accepted")
	}
	// No path falls back to the topology family.
	g2, _, err := Load("", "ring", 4, 1)
	if err != nil || g2.NumReplicas() != 4 {
		t.Errorf("fallback failed: %v", err)
	}
}
