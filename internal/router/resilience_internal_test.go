package router

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

// TestResilienceBlockGolden pins the marshaled resilience block of
// /stats byte for byte: dashboards and the chaos harness key on these
// names, so adding a counter means extending this golden, never
// renaming or reordering what exists.
func TestResilienceBlockGolden(t *testing.T) {
	rt, err := New(Config{Backends: fakeBackends(2)})
	if err != nil {
		t.Fatal(err)
	}
	rt.breakerOpened.Add(3)
	rt.breakerHalfOpen.Add(2)
	rt.breakerClosed.Add(1)
	rt.hedgesFired.Add(7)
	rt.hedgesWon.Add(4)
	rt.retried.Add(6)

	out, err := json.Marshal(rt.metrics.Stats()["resilience"])
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"breakerClosed":1,"breakerHalfOpen":2,"breakerOpened":3,"failovers":6,"hedgesFired":7,"hedgesWon":4}`
	if string(out) != golden {
		t.Fatalf("resilience block drifted:\n got %s\nwant %s", out, golden)
	}
}

// TestResilienceBlockKeysSorted: the block marshals with its keys in
// alphabetical order, matching the sorted-key treatment of every other
// /stats section.
func TestResilienceBlockKeysSorted(t *testing.T) {
	rt, err := New(Config{Backends: fakeBackends(2)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rt.metrics.Stats()["resilience"])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.Token() // {
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		if k, ok := tok.(string); ok {
			keys = append(keys, k)
		}
		var skip json.RawMessage
		dec.Decode(&skip)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("resilience keys are not sorted: %v", keys)
	}
	if len(keys) != 6 {
		t.Fatalf("resilience block has %d keys, want 6 (extend the goldens when adding counters)", len(keys))
	}
}
