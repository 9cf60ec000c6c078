package core_test

import (
	"fmt"
	"sync"
	"testing"

	"energysched/internal/core"
)

const keysInstance = `{
  "tasks": [{"name": "a", "weight": 1}, {"name": "b", "weight": 2}, {"name": "c", "weight": 3}],
  "edges": [[0, 1], [1, 2]],
  "processors": 1,
  "speedModel": {"kind": "continuous", "fmin": 0.05, "fmax": 10},
  "deadline": 4
}`

// keysInstanceReordered is keysInstance with its edges listed in the
// other order and its whitespace stripped: different bytes, same
// instance.
const keysInstanceReordered = `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2},{"name":"c","weight":3}],"edges":[[1,2],[0,1]],"processors":1,"speedModel":{"kind":"continuous","fmin":0.05,"fmax":10},"deadline":4}`

func directHash(t *testing.T, raw string) string {
	t.Helper()
	in, err := core.UnmarshalInstance([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return in.Hash()
}

// TestInstanceKeysMissThenHit: the first Key call decodes and hands
// the instance back, the second answers from the memo with no
// instance; both return the direct Hash.
func TestInstanceKeysMissThenHit(t *testing.T) {
	keys := core.NewInstanceKeys(16)
	want := directHash(t, keysInstance)

	hash, in, err := keys.Key([]byte(keysInstance))
	if err != nil {
		t.Fatal(err)
	}
	if hash != want || in == nil || in.Hash() != want {
		t.Fatalf("miss: hash %q, instance %v; want %q with the decoded instance", hash, in, want)
	}
	hash, in, err = keys.Key([]byte(keysInstance))
	if err != nil {
		t.Fatal(err)
	}
	if hash != want || in != nil {
		t.Fatalf("hit: hash %q, instance %v; want %q with no instance", hash, in, want)
	}
}

// TestInstanceKeysEncodingsShareHash: byte-different encodings of one
// instance are separate memo entries with one canonical hash.
func TestInstanceKeysEncodingsShareHash(t *testing.T) {
	keys := core.NewInstanceKeys(16)
	a, inA, err := keys.Key([]byte(keysInstance))
	if err != nil {
		t.Fatal(err)
	}
	b, inB, err := keys.Key([]byte(keysInstanceReordered))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("encodings hash differently: %q vs %q", a, b)
	}
	if inA == nil || inB == nil {
		t.Fatal("each encoding's first call must be a miss that decodes")
	}
}

// TestInstanceKeysFailuresNotMemoised: malformed bytes return
// UnmarshalInstance's error, unchanged, on every call.
func TestInstanceKeysFailuresNotMemoised(t *testing.T) {
	keys := core.NewInstanceKeys(16)
	for _, raw := range []string{
		`{"tasks":[]}`,
		`{"tasks":[{"name":"a","weight":"x"}]}`,
		`{"tasks":[{"name":"a","weight":1}],"processors":0}`,
		`[`,
	} {
		_, want := core.UnmarshalInstance([]byte(raw))
		if want == nil {
			t.Fatalf("%s: expected a decode error", raw)
		}
		for call := 0; call < 2; call++ {
			hash, in, err := keys.Key([]byte(raw))
			if err == nil || err.Error() != want.Error() || hash != "" || in != nil {
				t.Fatalf("%s call %d: (%q, %v, %v), want error %q", raw, call, hash, in, err, want)
			}
		}
	}
}

// TestInstanceKeysEvictionRedecodes: past capacity, an evicted entry
// is decoded again and still yields the direct hash.
func TestInstanceKeysEvictionRedecodes(t *testing.T) {
	keys := core.NewInstanceKeys(1) // one entry per shard
	raws := make([]string, 64)
	for i := range raws {
		raws[i] = fmt.Sprintf(`{"tasks":[{"name":"t%d","weight":1}],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`, i)
	}
	for round := 0; round < 2; round++ {
		for _, raw := range raws {
			hash, _, err := keys.Key([]byte(raw))
			if err != nil {
				t.Fatal(err)
			}
			if want := directHash(t, raw); hash != want {
				t.Fatalf("round %d: hash %q, want %q", round, hash, want)
			}
		}
	}
}

// TestInstanceKeysConcurrent hammers one small memo from several
// goroutines with hits, misses, evictions and failures (run it with
// -race).
func TestInstanceKeysConcurrent(t *testing.T) {
	keys := core.NewInstanceKeys(4)
	raws := []string{keysInstance, keysInstanceReordered, `{"tasks":[]}`}
	for i := 0; i < 20; i++ {
		raws = append(raws, fmt.Sprintf(`{"tasks":[{"name":"t%d","weight":1}],"processors":1,"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":10}`, i))
	}
	want := make([]string, len(raws))
	for i, raw := range raws {
		if in, err := core.UnmarshalInstance([]byte(raw)); err == nil {
			want[i] = in.Hash()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g*7 + n) % len(raws)
				hash, _, err := keys.Key([]byte(raws[i]))
				if (err == nil) != (want[i] != "") || hash != want[i] {
					t.Errorf("goroutine %d, input %d: (%q, %v), want %q", g, i, hash, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
