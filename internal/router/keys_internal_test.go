package router

import (
	"encoding/json"
	"strconv"
	"testing"

	"energysched/internal/core"
	"energysched/internal/loadgen"
)

// directRoutingKey and directInstanceKey derive the affinity keys with
// a full decode every time — the computation the instance-key memo
// stands in for.
func directRoutingKey(kind string, body []byte) string {
	switch kind {
	case "solve", "simulate", "jobs":
		var probe struct {
			Instance json.RawMessage `json:"instance"`
		}
		if json.Unmarshal(body, &probe) == nil && len(probe.Instance) > 0 {
			if in, err := core.UnmarshalInstance(probe.Instance); err == nil {
				return in.Hash()
			}
		}
	}
	return "body:" + strconv.FormatUint(hashKey(string(body)), 16)
}

func directInstanceKey(raw json.RawMessage) string {
	if in, err := core.UnmarshalInstance(raw); err == nil {
		return in.Hash()
	}
	return "body:" + strconv.FormatUint(hashKey(string(raw)), 16)
}

// TestMemoisedKeysMatchDirect: for every body of the committed
// reference trace (plus a few that carry no decodable instance), the
// memoised routingKey and instanceKey equal the direct computation on
// the first call, a memo miss, and on the second, a memo hit — so the
// memo moves no request to another backend.
func TestMemoisedKeysMatchDirect(t *testing.T) {
	tr, err := loadgen.Generate(loadgen.ReferenceSpec())
	if err != nil {
		t.Fatal(err)
	}
	events := append([]loadgen.Event(nil), tr.Events...)
	for _, body := range []string{`{"instance":{"tasks":[]}}`, `{"instance":"x"}`, `junk`, `{}`} {
		events = append(events, loadgen.Event{Kind: "solve", Body: json.RawMessage(body)})
	}
	rt, err := New(Config{Backends: []string{"http://127.0.0.1:1"}}) // never contacted
	if err != nil {
		t.Fatal(err)
	}

	var instanceBodies, batchItems int
	for pass, name := range []string{"miss", "hit"} {
		for n, ev := range events {
			kinds := []string{ev.Kind}
			if ev.Kind == "solve" {
				kinds = append(kinds, "jobs") // a job submit carries the same instance field
			}
			for _, kind := range kinds {
				if got, want := rt.routingKey(kind, ev.Body), directRoutingKey(kind, ev.Body); got != want {
					t.Fatalf("%s call, event %d (%s as %s): routingKey %q, direct %q", name, n, ev.Kind, kind, got, want)
				}
			}
			var probe struct {
				Instance  json.RawMessage   `json:"instance"`
				Instances []json.RawMessage `json:"instances"`
			}
			json.Unmarshal(ev.Body, &probe)
			if len(probe.Instance) > 0 {
				if _, in, err := rt.keys.Key(probe.Instance); err == nil && in != nil {
					t.Fatalf("%s call, event %d: instance not memoised after routingKey", name, n)
				}
				if pass == 0 {
					instanceBodies++
				}
			}
			for i, raw := range probe.Instances {
				if got, want := rt.instanceKey(raw), directInstanceKey(raw); got != want {
					t.Fatalf("%s call, event %d item %d: instanceKey %q, direct %q", name, n, i, got, want)
				}
				if _, in, _ := rt.keys.Key(raw); in != nil {
					t.Fatalf("%s call, event %d item %d: instance not memoised after instanceKey", name, n, i)
				}
				if pass == 0 {
					batchItems++
				}
			}
		}
	}
	if instanceBodies == 0 || batchItems == 0 {
		t.Fatalf("trace exercised %d instance bodies and %d batch items; want both", instanceBodies, batchItems)
	}
}
