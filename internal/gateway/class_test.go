package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"helmsim/internal/serve"
	"helmsim/internal/server"
)

// TestStatzVersionGate pins the prober's schema gate: only the current
// version decodes; an older one (whose class rows have another shape)
// or a newer one is discarded unread.
func TestStatzVersionGate(t *testing.T) {
	cases := []struct {
		version int
		want    bool
	}{
		{server.StatzSchemaVersion, true},      // current
		{server.StatzSchemaVersion - 1, false}, // previous: shed_other class rows
		{server.StatzSchemaVersion + 1, false}, // from the future
		{0, false},                             // no version at all
	}
	for _, tc := range cases {
		r := newStubReplica()
		r.setStatz(server.Stats{SchemaVersion: tc.version, QueueDepth: 7})
		bc, _ := stubBackend(t, "r", r, 1)
		g, _ := startGateway(t, Config{Backends: []BackendConfig{bc}})
		g.ProbeOnce(context.Background())
		b := g.Backend("r")
		b.mu.Lock()
		have := b.haveStats
		b.mu.Unlock()
		if have != tc.want {
			t.Errorf("statz version %d: snapshot accepted=%v, want %v", tc.version, have, tc.want)
		}
		if tc.want && b.queueDepth() != 7 {
			t.Errorf("statz version %d: queue depth %d, want 7", tc.version, b.queueDepth())
		}
	}
}

// TestLeastLoadCostAware pins the routing score: with equal request
// counts the advertised cost backlog breaks the tie, and a replica
// without a cost signal scores on counts alone.
func TestLeastLoadCostAware(t *testing.T) {
	mk := func(name string, depth int, backlog int64, have bool) *Backend {
		b := &Backend{name: name}
		b.haveStats = have
		b.lastStats = server.Stats{QueueDepth: depth, CostBacklog: backlog}
		return b
	}
	heavy := mk("heavy", 1, 900, true)
	light := mk("light", 1, 10, true)
	v2 := mk("v2", 1, 0, true)
	if got := (leastLoad{}).Pick([]*Backend{heavy, light}); got != light {
		t.Errorf("equal depth: picked %s, want the lower cost backlog", got.name)
	}
	// The count term dominates: one extra queued request outweighs any
	// realistic backlog gap.
	deep := mk("deep", 3, 0, true)
	if got := (leastLoad{}).Pick([]*Backend{deep, heavy}); got != heavy {
		t.Errorf("depth 3 vs 1: picked %s, want the shallower replica", got.name)
	}
	// A replica advertising zero cost is indistinguishable from an empty
	// one on cost — ties break toward configuration order.
	if got := (leastLoad{}).Pick([]*Backend{v2, mk("v2b", 1, 0, true)}); got != v2 {
		t.Errorf("v2 tie: picked %s, want configuration order", got.name)
	}
}

// TestFleetBrownoutShedsAtEdge pins the edge shed: when EVERY eligible
// replica advertises a brownout level above the class, the gateway
// sheds at admission with an honest Retry-After and its own conserved
// bucket; a single replica with headroom keeps the class flowing.
func TestFleetBrownoutShedsAtEdge(t *testing.T) {
	r1, r2 := newStubReplica(), newStubReplica()
	r1.setStatz(server.Stats{SchemaVersion: server.StatzSchemaVersion, BrownoutLevel: 1})
	r2.setStatz(server.Stats{SchemaVersion: server.StatzSchemaVersion, BrownoutLevel: 2})
	bc1, _ := stubBackend(t, "a", r1, 1)
	bc2, _ := stubBackend(t, "b", r2, 1)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{bc1, bc2}})
	g.ProbeOnce(context.Background())

	post := func(class string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"prompt": []int{1}, "max_tokens": 2, "class": class})
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// min(1, 2) = 1: batch (class 0) shed at the edge, rag and
	// interactive still routed.
	if resp := post("batch"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch under fleet brownout: status %d, want 503", resp.StatusCode)
	} else if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("fleet brownout Retry-After %q, want %q (the default 2s)", ra, "2")
	}
	for _, class := range []string{"rag", "interactive", ""} {
		if resp := post(class); resp.StatusCode != http.StatusOK {
			t.Fatalf("class %q under level-1 fleet brownout: status %d, want 200", class, resp.StatusCode)
		}
	}
	// One replica recovering (level 0) reopens the edge for batch.
	r1.setStatz(server.Stats{SchemaVersion: server.StatzSchemaVersion, BrownoutLevel: 0})
	g.ProbeOnce(context.Background())
	if resp := post("batch"); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after one replica recovered: status %d, want 200", resp.StatusCode)
	}
	// An unknown class never reaches the fleet: 400, bad_requests, no
	// class row.
	if resp := post("premium"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown class: status %d, want 400", resp.StatusCode)
	}

	st := g.Stats()
	if st.ShedBrownout != 1 || st.Classes[serve.ClassBatch].Ledger.Buckets[serve.ShedBrownout] != 1 {
		t.Fatalf("brownout sheds global %d batch-row %d, want 1/1", st.ShedBrownout, st.Classes[serve.ClassBatch].Ledger.Buckets[serve.ShedBrownout])
	}
	if st.BadRequests != 1 {
		t.Fatalf("bad requests %d, want 1", st.BadRequests)
	}
	if st.Classes[serve.ClassInteractive].Ledger.Buckets[serve.Admitted] != 2 { // explicit + defaulted ""
		t.Fatalf("interactive admitted %d, want 2", st.Classes[serve.ClassInteractive].Ledger.Buckets[serve.Admitted])
	}
	if !st.Conserved() {
		t.Fatalf("fleet ledger not conserved: %+v", st)
	}
}

// TestLedgerFieldsConserve holds both flat wire ledgers, server.Stats
// and FleetStats, to their Conserved methods by reflection over the
// live types. Every bucket a layer can reach has exactly one int64
// field tagged with its wire name (the gateway's Admitted is "routed"),
// a snapshot filled through those fields conserves, and adding one to
// any admitted, routed or shed_* field, arrivals unchanged, must make
// it stop conserving: a bucket left out of a Conserved identity
// survives the bump.
func TestLedgerFieldsConserve(t *testing.T) {
	var replica []serve.Bucket
	for b := serve.Bucket(0); b < serve.NumBuckets; b++ {
		if b != serve.ShedNoHealthyBackend { // only the gateway finds no replica
			replica = append(replica, b)
		}
	}
	cases := []struct {
		name     string
		admitted string // wire name standing for serve.Admitted
		reach    []serve.Bucket
		// snapshot returns a pointer to a wire struct whose arrivals,
		// class rows and attributions are row's; bucket fields zero.
		snapshot  func(row serve.Ledger) any
		conserved func(any) bool
	}{
		{
			name: "server.Stats", admitted: "admitted", reach: replica,
			snapshot: func(row serve.Ledger) any {
				return &server.Stats{Arrivals: row.Arrivals, Classes: []serve.ClassRow{{Ledger: row}}}
			},
			conserved: func(p any) bool { return p.(*server.Stats).Conserved() },
		},
		{
			name: "gateway.FleetStats", admitted: "routed",
			reach: []serve.Bucket{serve.Admitted, serve.ShedDraining, serve.ShedBrownout, serve.ShedNoHealthyBackend},
			snapshot: func(row serve.Ledger) any {
				return &FleetStats{Arrivals: row.Arrivals, Classes: []serve.ClassRow{{Ledger: row}},
					Backends: []BackendStats{{Finalized: row.Buckets[serve.Admitted]}}}
			},
			conserved: func(p any) bool { return p.(*FleetStats).Conserved() },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var row serve.Ledger
			for i, b := range tc.reach {
				row.Buckets[b] = int64(i + 1) // distinct, so a swapped field shows
				row.Arrivals += int64(i + 1)
			}
			p := tc.snapshot(row)
			v := reflect.ValueOf(p).Elem()
			fieldsTagged := func(name string) []int {
				var idx []int
				for i := 0; i < v.NumField(); i++ {
					tag, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
					if tag == name && v.Field(i).Kind() == reflect.Int64 {
						idx = append(idx, i)
					}
				}
				return idx
			}
			for _, b := range tc.reach {
				name := b.String()
				if b == serve.Admitted {
					name = tc.admitted
				}
				idx := fieldsTagged(name)
				if len(idx) != 1 {
					t.Fatalf("bucket %s: %d int64 fields tagged %q, want exactly one", b, len(idx), name)
				}
				v.Field(idx[0]).SetInt(row.Buckets[b])
			}
			if !tc.conserved(p) {
				t.Fatalf("snapshot filled bucket by bucket does not conserve: %+v", p)
			}
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if f.Type.Kind() != reflect.Int64 || tag != tc.admitted && !strings.HasPrefix(tag, "shed_") {
					continue
				}
				bumped := reflect.New(v.Type())
				bumped.Elem().Set(v)
				bumped.Elem().Field(i).SetInt(v.Field(i).Int() + 1)
				if tc.conserved(bumped.Interface()) {
					t.Errorf("%s one above the class rows still conserves: Conserved ignores %s", tag, f.Name)
				}
			}
		})
	}
}
