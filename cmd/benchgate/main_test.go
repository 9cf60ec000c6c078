package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMergeKeepsOtherEntries checks that -update replaces only the
// benchmarks of the run: the others keep their numbers and host notes,
// a refreshed entry loses its note, and a new one is added.
func TestMergeKeepsOtherEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	old := baseline{Note: "kept", Benchmarks: map[string]metrics{
		"BenchmarkA": {NsPerOp: 10, BytesPerOp: 1, AllocsPerOp: 2, Host: "elsewhere"},
		"BenchmarkB": {NsPerOp: 20, BytesPerOp: 3, AllocsPerOp: 4, Host: "elsewhere"},
	}}
	raw, err := json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	merge(path, map[string]metrics{
		"BenchmarkB": {NsPerOp: 25, BytesPerOp: 3, AllocsPerOp: 4},
		"BenchmarkC": {NsPerOp: 30, BytesPerOp: 5, AllocsPerOp: 6},
	})
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got baseline
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := baseline{Note: "kept", Benchmarks: map[string]metrics{
		"BenchmarkA": {NsPerOp: 10, BytesPerOp: 1, AllocsPerOp: 2, Host: "elsewhere"},
		"BenchmarkB": {NsPerOp: 25, BytesPerOp: 3, AllocsPerOp: 4},
		"BenchmarkC": {NsPerOp: 30, BytesPerOp: 5, AllocsPerOp: 6},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged baseline %+v, want %+v", got, want)
	}
}

// TestMergeCreatesBaseline checks that -update on a missing baseline
// writes the run.
func TestMergeCreatesBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	run := map[string]metrics{"BenchmarkA": {NsPerOp: 10, BytesPerOp: 1, AllocsPerOp: 2}}
	merge(path, run)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got baseline
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Benchmarks, run) || got.Note == "" {
		t.Errorf("new baseline %+v", got)
	}
}
