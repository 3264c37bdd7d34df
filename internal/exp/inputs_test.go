package exp

import (
	"encoding/json"
	"testing"

	"deuce/internal/obs"
)

// TestInputsHashCanonical: the hash is deterministic and canonical over
// defaulted configs.
func TestInputsHashCanonical(t *testing.T) {
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4}
	h := InputsHash("fig10", rc)
	if h == "" {
		t.Fatal("hashable config produced no hash")
	}
	if got := InputsHash("fig10", rc); got != h {
		t.Errorf("hash not deterministic: %q vs %q", got, h)
	}
	// Zero fields and their explicit defaults must hash identically, or a
	// recording made with -writebacks 30000 would never match a default
	// check of the same scale.
	if InputsHash("fig10", RunConfig{Seed: 1}) != InputsHash("fig10", RunConfig{Writebacks: 30000, Lines: 2048, Warmup: 4096, Seed: 1}) {
		t.Error("defaulted and explicit-default configs hash differently")
	}
}

// TestInputsHashDiscriminates: the hash must move with every input that
// changes results — experiment identity and scale.
func TestInputsHashDiscriminates(t *testing.T) {
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4}
	h := InputsHash("fig10", rc)
	if InputsHash("fig5", rc) == h {
		t.Error("different experiments share a hash")
	}
	for name, other := range map[string]RunConfig{
		"writebacks": {Writebacks: 301, Lines: 64, Seed: 4},
		"lines":      {Writebacks: 300, Lines: 128, Seed: 4},
		"seed":       {Writebacks: 300, Lines: 64, Seed: 5},
	} {
		if InputsHash("fig10", other) == h {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

// TestInputsHashUnhashableWithHooks: a config carrying a single-run
// recording hook must not produce a reusable hash.
func TestInputsHashUnhashableWithHooks(t *testing.T) {
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4, Metrics: obs.NewRegistry(1)}
	if h := InputsHash("fig10", rc); h != "" {
		t.Errorf("hooked config produced hash %q; recorded tables cannot replay hooks", h)
	}
}

// TestRunTableStampsInputs: every produced table carries its inputs hash,
// and the hash survives the JSON round trip a recording takes.
func TestRunTableStampsInputs(t *testing.T) {
	e, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Writebacks: 300, Lines: 64, Seed: 4}
	tbl, err := e.RunTable(rc)
	if err != nil {
		t.Fatal(err)
	}
	want := InputsHash("table2", rc)
	if tbl.Inputs != want {
		t.Errorf("RunTable stamped Inputs %q, want %q", tbl.Inputs, want)
	}
	blob, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Inputs != want {
		t.Errorf("Inputs lost in JSON round trip: %q", back.Inputs)
	}
	if got := tbl.Clone().Inputs; got != want {
		t.Errorf("Clone dropped Inputs: %q", got)
	}
}
