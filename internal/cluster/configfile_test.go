package cluster

import (
	"strings"
	"testing"
	"time"
)

func TestParseConfigFile(t *testing.T) {
	src := `{
	  "nodes": [
	    {"name": "paravance-1", "cores": 16},
	    {"name": "paravance-2", "cores": 8},
	    {"cores": 4}
	  ],
	  "linkLatency": 0.5,
	  "seed": 42,
	  "scaleMicros": 200
	}`
	cfg, err := ParseConfigFile([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 3 || len(cfg.NodeSpecs) != 3 {
		t.Errorf("nodes = %d / %d", cfg.Nodes, len(cfg.NodeSpecs))
	}
	if cfg.LinkLatency != 0.5 || cfg.Seed != 42 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Scale != 200*time.Microsecond {
		t.Errorf("scale = %v", cfg.Scale)
	}

	c := New(cfg)
	if got := len(c.Nodes()); got != 3 {
		t.Fatalf("built %d nodes", got)
	}
	if c.Nodes()[0].String() != "paravance-1" || c.Nodes()[0].Slots() != 32 {
		t.Errorf("node 0: %v slots %d", c.Nodes()[0], c.Nodes()[0].Slots())
	}
	if c.Nodes()[1].Slots() != 16 {
		t.Errorf("node 1 slots = %d", c.Nodes()[1].Slots())
	}
	if c.Nodes()[2].String() != "node-2" { // unnamed falls back to id
		t.Errorf("node 2 = %v", c.Nodes()[2])
	}
	if got := c.TotalSlots(); got != 2*(16+8+4) {
		t.Errorf("total slots = %d", got)
	}
}

func TestParseConfigFileRejects(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`{`, "decoding"},
		{`{"nodes": []}`, "no nodes"},
		{`{"nodes": [{"cores": 0}]}`, "cores"},
		{`{"nodes": [{"cores": 2}], "bogus": 1}`, "decoding"},
	}
	for _, c := range cases {
		_, err := ParseConfigFile([]byte(c.src))
		if err == nil {
			t.Errorf("ParseConfigFile(%q) succeeded", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("error %q does not mention %q", err, c.frag)
		}
	}
}

func TestNodeSpecsOverrideNodeCount(t *testing.T) {
	cfg := Config{
		Nodes:     99, // overridden by explicit specs
		NodeSpecs: []NodeSpec{{Cores: 2}, {Cores: 2}},
	}
	c := New(cfg)
	if got := len(c.Nodes()); got != 2 {
		t.Errorf("nodes = %d, want 2", got)
	}
}
