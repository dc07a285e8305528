package tensor

import (
	"testing"
)

func TestArenaGetMatchesNew(t *testing.T) {
	a := NewArena()
	m := a.Get(3, 4)
	if m.R != 3 || m.C != 4 || len(m.Data) != 12 {
		t.Fatalf("Get(3,4) = %dx%d len %d", m.R, m.C, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Get returned non-zero element %d: %v", i, v)
		}
	}
}

func TestArenaRecyclesAndZeroes(t *testing.T) {
	a := NewArena()
	m := a.Get(2, 3)
	for i := range m.Data {
		m.Data[i] = float32(i + 1)
	}
	data := &m.Data[0]
	a.Put(m)

	// Same element count, different shape: must reuse the dirty slice
	// and hand it back zeroed.
	n := a.Get(3, 2)
	if &n.Data[0] != data {
		t.Fatalf("Get(3,2) did not reuse the recycled 6-element slice")
	}
	for i, v := range n.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}

	// Different element count: fresh allocation, not the recycled one.
	o := a.Get(2, 2)
	if len(o.Data) != 4 {
		t.Fatalf("Get(2,2) len %d", len(o.Data))
	}
}

func TestArenaPutZeroMat(t *testing.T) {
	a := NewArena()
	a.Put(Mat{}) // must not panic or pollute the free list
	m := a.Get(1, 1)
	if len(m.Data) != 1 {
		t.Fatalf("Get(1,1) after zero Put: len %d", len(m.Data))
	}
}

func TestArenaSteadyStateAllocs(t *testing.T) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	a := NewArena()
	// Warm the free list with every shape the loop uses.
	x, y := a.Get(1, 8), a.Get(8, 8)
	a.Put(x)
	a.Put(y)
	allocs := testing.AllocsPerRun(50, func() {
		m := a.Get(1, 8)
		w := a.Get(8, 8)
		if err := MatMulInto(m, w, m2(a)); err != nil {
			t.Fatal(err)
		}
		a.Put(m)
		a.Put(w)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocated %v times per run", allocs)
	}
}

// m2 pulls the matmul output from the arena and immediately recycles it
// so the next iteration reuses it; helper keeps the closure alloc-free.
func m2(a *Arena) Mat {
	out := a.Get(1, 8)
	a.Put(out)
	return out
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	a := mustFrom(t, 2, 3, []float32{1, -2, 3, 0.5, 4, -1})
	b := mustFrom(t, 3, 4, []float32{2, 0, 1, -1, 3, 1, 0, 2, -2, 1, 1, 0})
	bt := mustFrom(t, 4, 3, []float32{2, 3, -2, 0, 1, 1, 1, 0, 1, -1, 2, 0})
	gamma := []float32{1.5, -0.5, 2}
	beta := []float32{0.1, 0, -0.2}

	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := New(2, 4)
	// Dirty the output to prove Into zeroes before accumulating.
	for i := range got.Data {
		got.Data[i] = 99
	}
	if err := MatMulInto(a, b, got); err != nil {
		t.Fatal(err)
	}
	assertSame(t, "MatMulInto", want, got)

	wantT, err := MatMulT(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	gotT := New(2, 4)
	if err := MatMulTInto(a, bt, gotT); err != nil {
		t.Fatal(err)
	}
	assertSame(t, "MatMulTInto", wantT, gotT)

	// The norms have no allocating form: a fresh output against a dirty
	// one proves every element is assigned.
	wantLN, gotLN := New(2, 3), dirty(2, 3)
	for _, out := range []Mat{wantLN, gotLN} {
		if err := LayerNormInto(a, gamma, beta, 1e-5, out); err != nil {
			t.Fatal(err)
		}
	}
	assertSame(t, "LayerNormInto", wantLN, gotLN)

	wantRN, gotRN := New(2, 3), dirty(2, 3)
	for _, out := range []Mat{wantRN, gotRN} {
		if err := RMSNormInto(a, gamma, 1e-5, out); err != nil {
			t.Fatal(err)
		}
	}
	assertSame(t, "RMSNormInto", wantRN, gotRN)
}

func TestIntoVariantsRejectBadOutput(t *testing.T) {
	a := New(2, 3)
	b := New(3, 4)
	if err := MatMulInto(a, b, New(2, 3)); err == nil {
		t.Fatal("MatMulInto accepted a mis-shaped output")
	}
	if err := MatMulTInto(a, New(4, 3), New(3, 4)); err == nil {
		t.Fatal("MatMulTInto accepted a mis-shaped output")
	}
	if err := LayerNormInto(a, []float32{1, 1, 1}, []float32{0, 0, 0}, 1e-5, New(1, 3)); err == nil {
		t.Fatal("LayerNormInto accepted a mis-shaped output")
	}
	if err := RMSNormInto(a, []float32{1, 1, 1}, 1e-5, New(2, 2)); err == nil {
		t.Fatal("RMSNormInto accepted a mis-shaped output")
	}
}

func mustFrom(t *testing.T, r, c int, data []float32) Mat {
	t.Helper()
	m, err := FromSlice(r, c, data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func assertSame(t *testing.T, name string, want, got Mat) {
	t.Helper()
	if want.R != got.R || want.C != got.C {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (must be bit-identical)", name, i, got.Data[i], want.Data[i])
		}
	}
}
