package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestDriversByteIdentical is the determinism invariant (SNIPPETS
// H13): every driver is seeded, so running one twice must render
// byte-identical tables and bit-identical metrics — worker scheduling,
// map iteration, float accumulation order or wall time must never
// leak into either. Wall-clock measurements live in Report.Timing,
// which is exempt. Subtests are named after the driver function
// (E12HeuristicSweep, …).
func TestDriversByteIdentical(t *testing.T) {
	for _, e := range All() {
		name := runtime.FuncForPC(reflect.ValueOf(e.Run).Pointer()).Name()
		t.Run(name[strings.LastIndexByte(name, '.')+1:], func(t *testing.T) {
			first := e.Run()
			second := e.Run()
			a, b := first.Table.String(), second.Table.String()
			if a != b {
				t.Errorf("two seeded runs rendered different tables:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
			if len(a) == 0 {
				t.Fatal("driver rendered an empty table")
			}
			if len(first.Metrics) != len(second.Metrics) {
				t.Fatalf("metric sets differ: %v vs %v", first.Metrics, second.Metrics)
			}
			for k, v := range first.Metrics {
				if w, ok := second.Metrics[k]; !ok || w != v {
					t.Errorf("metric %q: %v vs %v", k, v, w)
				}
			}
		})
	}
}
