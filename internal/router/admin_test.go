package router_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"energysched/internal/router"
	"energysched/internal/server"
)

type adminState struct {
	Backends []struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
		RingID  int    `json:"ringId"`
	} `json:"backends"`
	Healthy int `json:"healthy"`
}

func postAdmin(t *testing.T, base string, change any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(change)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/admin/backends", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, []byte(readAll(t, resp))
}

func getAdmin(t *testing.T, base string) adminState {
	t.Helper()
	resp, err := http.Get(base + "/admin/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st adminState
	if err := json.Unmarshal([]byte(readAll(t, resp)), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdminAddRemoveLiveMembership: a backend added through POST
// /admin/backends starts taking traffic without a router restart, the
// remap is bounded (only keys the new member claims move), and
// removing it restores the original mapping exactly.
func TestAdminAddRemoveLiveMembership(t *testing.T) {
	c, err := router.NewTestCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	extra := httptest.NewServer(server.New(server.Config{}).Handler())
	defer extra.Close()

	if st := getAdmin(t, c.URL()); len(st.Backends) != 3 || st.Healthy != 3 {
		t.Fatalf("initial membership %+v, want 3 healthy members", st)
	}

	// Home a population of keys on the original pool.
	const nKeys = 24
	home := make([]string, nKeys)
	for i := 0; i < nKeys; i++ {
		resp, _, backend := postSolve(t, c, solveBody(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
		home[i] = backend
	}

	status, body := postAdmin(t, c.URL(), map[string][]string{"add": {extra.URL}})
	if status != http.StatusOK {
		t.Fatalf("add: status %d (%s)", status, body)
	}
	var st adminState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Backends) != 4 || st.Healthy != 4 {
		t.Fatalf("after add: %+v, want 4 healthy members", st)
	}

	// Bounded remap: every key either stays home or moves to the new
	// member — no reshuffling among the incumbents. Each round sends
	// the keys with its own timeoutMs, so the router's response cache
	// (keyed on the exact body) answers none of them.
	moved := 0
	for i := 0; i < nKeys; i++ {
		resp, _, backend := postSolve(t, c, solveBodyWithTimeout(i, 60000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d after add: status %d", i, resp.StatusCode)
		}
		switch backend {
		case home[i]:
		case extra.URL:
			moved++
		default:
			t.Fatalf("solve %d moved from %s to incumbent %s; only the new member may claim keys",
				i, home[i], backend)
		}
	}
	t.Logf("adding a 4th member moved %d of %d keys", moved, nKeys)
	if moved == 0 {
		t.Error("new member claimed no keys; it is not participating in the ring")
	}

	// Removing it hands every key back to its original home.
	status, body = postAdmin(t, c.URL(), map[string][]string{"remove": {extra.URL}})
	if status != http.StatusOK {
		t.Fatalf("remove: status %d (%s)", status, body)
	}
	for i := 0; i < nKeys; i++ {
		resp, _, backend := postSolve(t, c, solveBodyWithTimeout(i, 60001))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d after remove: status %d", i, resp.StatusCode)
		}
		if backend != home[i] {
			t.Fatalf("solve %d routes to %s after remove, want original home %s", i, backend, home[i])
		}
	}
}

// TestAdminRejectsBadChanges pins the admin endpoint's validation: an
// empty change, an unknown removal, a duplicate add, and removing the
// last member are all 400s that leave membership untouched.
func TestAdminRejectsBadChanges(t *testing.T) {
	c, err := router.NewTestCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		name   string
		change map[string][]string
	}{
		{"empty change", map[string][]string{}},
		{"unknown removal", map[string][]string{"remove": {"http://nobody.invalid:1"}}},
		{"duplicate add", map[string][]string{"add": {c.BackendURL(0)}}},
		{"last member removal", map[string][]string{"remove": {c.BackendURL(0)}}},
	}
	for _, tc := range cases {
		status, body := postAdmin(t, c.URL(), tc.change)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, status, body)
		}
		var env map[string]string
		if err := json.Unmarshal(body, &env); err != nil || env["error"] == "" {
			t.Errorf("%s: response is not the JSON error envelope: %q", tc.name, body)
		}
	}
	if st := getAdmin(t, c.URL()); len(st.Backends) != 1 {
		t.Fatalf("membership changed by rejected requests: %+v", st)
	}
	// The pool still serves.
	resp, _, _ := postSolve(t, c, solveBody(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after rejected changes: status %d", resp.StatusCode)
	}
}

// TestAdminReAddMintsFreshIdentity: removing a URL and adding it back
// in one change is accepted and mints a new ring identity.
func TestAdminReAddMintsFreshIdentity(t *testing.T) {
	c, err := router.NewTestCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := getAdmin(t, c.URL())
	url := c.BackendURL(0)
	status, body := postAdmin(t, c.URL(), map[string][]string{"remove": {url}, "add": {url}})
	if status != http.StatusOK {
		t.Fatalf("remove+add: status %d (%s)", status, body)
	}
	after := getAdmin(t, c.URL())
	if len(after.Backends) != 2 {
		t.Fatalf("after remove+add: %d members, want 2", len(after.Backends))
	}
	var oldID, newID = -1, -1
	for _, b := range before.Backends {
		if b.URL == url {
			oldID = b.RingID
		}
	}
	for _, b := range after.Backends {
		if b.URL == url {
			newID = b.RingID
		}
	}
	if newID == -1 || newID == oldID {
		t.Fatalf("re-added member ringId = %d (was %d), want a fresh identity", newID, oldID)
	}
}
